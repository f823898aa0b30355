"""Guards that the rest of the in-process suite never reaches, each driven through
public input: a library call or ``cli.main``.

``tools/unreached_lines.py`` lists the lines tier-1 leaves unrun. One guard
stays unreached on purpose: the residual self-check of
``alignment.procrustes_align``, which raises if the fitted rotation fits worse
than the identity. ``u @ vt`` from the SVD of ``A.T @ B`` minimizes
``||A @ R - B||`` over all orthogonal R, the identity among them, so no input
makes the rotated residual exceed the identity's by more than rounding, far
below the check's 1e-9 relative slack. It guards the solver, not the input.
"""

from __future__ import annotations

import io
import zipfile

import numpy as np
import pytest

from conftest import FIXTURES, PERIOD_1930, PERIOD_1980, series_values
from diacorpus.alignment import procrustes_align, semantic_change
from diacorpus.cli import main
from diacorpus.corpus import DiachronicCorpus, PeriodCorpus
from diacorpus.embeddings import (
    EmbeddingSet,
    build_ppmi,
    collocations,
    cosine,
    count_cooccurrences,
    rank_by_cosine,
    read_embeddings,
    svd_embeddings,
)
from diacorpus.errors import ParameterError
from diacorpus.lexicon import frequency, morpheme_frequency, words_matching
from diacorpus.preprocess import FilterConfig


def _set(period, seed=0, n=4, dim=2):
    matrix = np.random.default_rng(seed).normal(size=(n, dim))
    return EmbeddingSet(period, {f"w{i}": i for i in range(n)}, matrix, "svd")


def _ppmi():
    leaf = PeriodCorpus.from_texts(PERIOD_1930, {"d1": "aa bb cc aa bb", "d2": "bb cc bb aa cc"})
    return build_ppmi(count_cooccurrences(leaf, window=2))


class TestAlignment:
    def test_semantic_change_of_no_sets_is_parameter_error(self):
        with pytest.raises(ParameterError, match="needs at least one embedding set"):
            semantic_change("w0", [])

    def test_semantic_change_with_a_transform_missing_is_parameter_error(self):
        sets = [_set(PERIOD_1930), _set(PERIOD_1980, seed=1)]
        with pytest.raises(ParameterError, match="2 periods need 1 consecutive transforms, got 0"):
            semantic_change("w0", sets, [])

    def test_semantic_change_with_a_transform_too_many_is_parameter_error(self):
        sets = [_set(PERIOD_1930), _set(PERIOD_1980, seed=1)]
        step = procrustes_align(sets[1], sets[0])
        with pytest.raises(ParameterError, match="got 2"):
            semantic_change("w0", sets, [step, step])


class TestEmbeddings:
    def test_svd_of_dim_zero_is_parameter_error(self):
        with pytest.raises(ParameterError, match="embedding dim must be at least 1"):
            svd_embeddings(_ppmi(), dim=0)

    def test_cosine_with_a_zero_vector_is_zero(self):
        assert cosine(np.zeros(3), np.array([1.0, 2.0, 3.0])) == 0.0
        assert cosine(np.array([1.0, 2.0, 3.0]), np.zeros(3)) == 0.0

    def test_rank_by_cosine_of_no_words_is_parameter_error(self):
        embedding_set = _set(PERIOD_1930)
        with pytest.raises(ParameterError, match="top_k must be at least 1"):
            rank_by_cosine(embedding_set.vector("w0"), embedding_set, 0)

    def test_collocations_of_no_words_is_parameter_error(self):
        with pytest.raises(ParameterError, match="top_k must be at least 1"):
            collocations("aa", 0, _ppmi())

    def test_store_member_that_is_no_npy_array_is_parameter_error(self, tmp_path):
        arrays = {"vectors": np.zeros((1, 1)), "period": np.array("1930-1939"),
                  "provenance": np.array("svd")}
        buffer = io.BytesIO()
        with zipfile.ZipFile(buffer, "w") as archive:
            for name, array in arrays.items():
                member = io.BytesIO()
                np.save(member, array)
                archive.writestr(f"{name}.npy", member.getvalue())
            # no .npy magic: numpy hands the member back as raw bytes, not as an array
            archive.writestr("words.npy", b"aa")
        path = tmp_path / "e.npz"
        path.write_bytes(buffer.getvalue())
        with pytest.raises(ParameterError, match=r"e\.npz: unreadable embedding store: "
                                                 r"words is not an \.npy array"):
            read_embeddings(path)


class TestLexicon:
    def test_normalized_frequency_of_a_period_with_no_kept_token_is_zero(self):
        # the alphabetic-only filter drops every token, so the period keeps none
        leaf = PeriodCorpus.from_texts(PERIOD_1930, {"d1": "1930 1931"}, FilterConfig())
        assert leaf.vocabulary.token_total == 0
        assert series_values(frequency(DiachronicCorpus([leaf]), "1930", normalize=True)) == [0.0]

    def test_unknown_match_kind_is_parameter_error(self, fixture_tree):
        with pytest.raises(ParameterError, match="unknown match kind 'infix'"):
            words_matching(fixture_tree, "infix", "ka")

    def test_empty_morpheme_pattern_is_parameter_error(self, fixture_tree):
        with pytest.raises(ParameterError, match="morpheme pattern must be non-empty"):
            morpheme_frequency(fixture_tree, "")


class TestCorpus:
    def test_corpus_of_no_leaves_is_parameter_error(self):
        with pytest.raises(ParameterError, match="needs at least one child"):
            DiachronicCorpus([])


def test_help_after_the_config_flag_exits_zero(capsys):
    assert main(["--config", str(FIXTURES / "fixture_config.json"), "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: diacorpus")
