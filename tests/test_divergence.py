import math
import random

import numpy as np
import pytest

from diacorpus.corpus import TimePeriod
from diacorpus.divergence import (
    contributions_between,
    jaccard_matrix,
    jaccard_similarity,
    jensen_shannon,
    jsd_contributions,
    jsd_matrix,
    survived_words,
)
from diacorpus.errors import ComputationUndefinedError, ParameterError
from diacorpus.lexicon import Vocabulary

from conftest import PERIOD_1930, PERIOD_1980, matrix_values


def _vocab(entries, period=PERIOD_1930):
    return Vocabulary(period, dict(entries))


def oracle_jsd(p_counts, p_total, q_counts, q_total):
    """Direct evaluation of the divergence formula, independent of numpy code."""
    union = set(p_counts) | set(q_counts)
    total = 0.0
    for w in union:
        p = p_counts.get(w, 0) / p_total
        q = q_counts.get(w, 0) / q_total
        m = (p + q) / 2
        if p > 0:
            total += 0.5 * p * math.log2(p / m)
        if q > 0:
            total += 0.5 * q * math.log2(q / m)
    return total


def _random_vocab_pair(rng):
    words = [f"w{i}" for i in range(rng.randint(2, 15))]
    p = {w: rng.randint(1, 40) for w in words if rng.random() < 0.8}
    q = {w: rng.randint(1, 40) for w in words if rng.random() < 0.8}
    p = p or {words[0]: 1}
    q = q or {words[-1]: 1}
    return _vocab(p, PERIOD_1930), _vocab(q, PERIOD_1980)


class TestJaccard:
    def test_identical(self):
        assert jaccard_similarity(_vocab({"a": 1, "b": 2}), _vocab({"a": 9, "b": 1})) == 1.0

    def test_disjoint(self):
        assert jaccard_similarity(_vocab({"a": 1}), _vocab({"b": 1})) == 0.0

    def test_half_overlap(self):
        a = _vocab({"a": 1, "b": 1, "c": 1})
        b = _vocab({"b": 1, "c": 1, "d": 1})
        assert jaccard_similarity(a, b) == 0.5

    def test_both_empty_undefined(self):
        with pytest.raises(ComputationUndefinedError):
            jaccard_similarity(_vocab({}), _vocab({}))

    def test_one_empty_is_zero(self):
        assert jaccard_similarity(_vocab({}), _vocab({"a": 1})) == 0.0


class TestJensenShannon:
    def test_identical_distributions(self):
        assert jensen_shannon(_vocab({"a": 2, "b": 2}), _vocab({"a": 5, "b": 5})) == 0.0

    def test_disjoint_singletons_give_one_bit(self):
        assert jensen_shannon(_vocab({"a": 1}), _vocab({"b": 1})) == 1.0

    def test_formula_example(self):
        value = jensen_shannon(_vocab({"a": 1, "b": 1}), _vocab({"a": 1}))
        assert value == pytest.approx(0.3113, abs=1e-4)

    def test_empty_vocabulary_rejected(self):
        with pytest.raises(ComputationUndefinedError):
            jensen_shannon(_vocab({}), _vocab({"a": 1}))

    def test_matches_direct_formula_on_random_pairs(self):
        rng = random.Random(923)
        for _ in range(25):
            a, b = _random_vocab_pair(rng)
            expected = oracle_jsd(a.entries, a.token_total, b.entries, b.token_total)
            assert jensen_shannon(a, b) == pytest.approx(expected, abs=1e-12)


class TestContributions:
    def test_disjoint_singletons_split_evenly(self):
        ranking = jsd_contributions(_vocab({"a": 1}), _vocab({"b": 1}), top_k=2)
        assert {w: v for w, v, _ in ranking} == {"a": -0.5, "b": 0.5}

    def test_identical_distributions_contribute_nothing(self):
        ranking = jsd_contributions(_vocab({"a": 1, "b": 1}), _vocab({"a": 2, "b": 2}), top_k=2)
        assert all(v == 0.0 for _, v, _ in ranking)

    def test_top_k_validation(self):
        with pytest.raises(ParameterError):
            jsd_contributions(_vocab({"a": 1}), _vocab({"a": 1}), top_k=0)

    def test_magnitudes_sum_to_total_on_random_pairs(self):
        rng = random.Random(555)
        for _ in range(25):
            a, b = _random_vocab_pair(rng)
            union = len(set(a.entries) | set(b.entries))
            ranking = jsd_contributions(a, b, top_k=union)
            total = sum(abs(v) for _, v, _ in ranking)
            assert total == pytest.approx(jensen_shannon(a, b), abs=1e-9)

    def test_sign_tracks_relative_frequency(self):
        a = _vocab({"eski": 9, "ortak": 1})
        b = _vocab({"yeni": 9, "ortak": 1})
        ranking = jsd_contributions(a, b, top_k=3)
        by_word = {w: v for w, v, _ in ranking}
        assert by_word["eski"] < 0 < by_word["yeni"]

    def test_fixture_sides(self, fixture_tree):
        ranking = contributions_between(fixture_tree, PERIOD_1930, PERIOD_1980, top_k=20)
        by_word = {w: v for w, v, _ in ranking}
        assert by_word["sene"] < 0 < by_word["yıl"]
        assert by_word["mucip"] < 0 < by_word["gerek"]

    def test_reversed_pair_negates_values_and_keeps_sides(self, fixture_tree):
        forward = contributions_between(fixture_tree, PERIOD_1930, PERIOD_1980, top_k=20)
        reverse = contributions_between(fixture_tree, PERIOD_1980, PERIOD_1930, top_k=20)
        assert {(v < 0, side) for _, v, side in reverse} == {
            (True, PERIOD_1980), (False, PERIOD_1930)
        }
        assert all(value != 0 for _, value, _ in forward)
        assert [(w, -v, side) for w, v, side in forward] == [
            (w, v, side) for w, v, side in reverse
        ]


class TestMatrices:
    def test_structure_on_fixture(self, fixture_tree):
        jac = jaccard_matrix(fixture_tree)
        jsd = jsd_matrix(fixture_tree)
        for matrix, diag in ((jac, 1.0), (jsd, 0.0)):
            values = matrix_values(matrix)
            assert np.allclose(values, values.T, atol=1e-12)
            assert np.allclose(np.diag(values), diag)
            assert np.all(values >= 0.0) and np.all(values <= 1.0)

    def test_structure_on_random_vocabularies(self):
        rng = random.Random(77)
        vocabs = []
        for i in range(4):
            words = {f"w{rng.randint(0, 30)}": rng.randint(1, 9) for _ in range(12)}
            vocabs.append(Vocabulary(TimePeriod(1900 + 10 * i, 1909 + 10 * i), words))
        from diacorpus.divergence import _pairwise_matrix

        for cell, diag in ((jaccard_similarity, 1.0), (jensen_shannon, 0.0)):
            values = matrix_values(_pairwise_matrix(vocabs, cell))
            assert np.allclose(values, values.T, atol=1e-12)
            assert np.allclose(np.diag(values), diag)

    def test_matrix_values_match_scalar_functions(self, fixture_tree):
        jac = jaccard_matrix(fixture_tree)
        leaves = fixture_tree.leaves()
        expected = jaccard_similarity(leaves[0].vocabulary, leaves[1].vocabulary)
        assert matrix_values(jac)[0, 1] == expected

    def test_divergence_nondecreasing_from_base(self, fixture_tree):
        jsd = jsd_matrix(fixture_tree)
        row = matrix_values(jsd)[0]
        assert all(row[i] <= row[i + 1] + 1e-12 for i in range(len(row) - 1))


class TestSurvivedWords:
    def test_base_period_is_self_intersection(self, fixture_tree):
        series = survived_words(fixture_tree, PERIOD_1930)
        base_size = len(fixture_tree.leaves()[0].vocabulary.entries)
        assert dict(series)[PERIOD_1930] == base_size

    def test_matches_independent_set_intersection(self, fixture_tree):
        series = survived_words(fixture_tree, PERIOD_1930)
        leaves = fixture_tree.leaves()
        expected = len(
            set(leaves[0].vocabulary.entries) & set(leaves[1].vocabulary.entries)
        )
        assert dict(series)[PERIOD_1980] == expected

    def test_periods_before_a_later_base_are_skipped(self, fixture_tree):
        series = survived_words(fixture_tree, PERIOD_1980)
        assert series == [(PERIOD_1980, len(fixture_tree.leaves()[1].vocabulary.entries))]

    def test_disjoint_later_vocab(self):
        from diacorpus.corpus import DiachronicCorpus, PeriodCorpus

        early = PeriodCorpus.from_texts(PERIOD_1930, {"d": "aa bb"})
        late = PeriodCorpus.from_texts(PERIOD_1980, {"d": "cc dd"})
        series = survived_words(DiachronicCorpus([early, late]), PERIOD_1930)
        assert dict(series)[PERIOD_1980] == 0

    def test_unknown_base_period(self, fixture_tree):
        with pytest.raises(ParameterError):
            survived_words(fixture_tree, TimePeriod(1800, 1809))
