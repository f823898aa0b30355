import unicodedata

import pytest

from diacorpus.corpus import DiachronicCorpus, PeriodCorpus
from diacorpus.errors import ComputationUndefinedError, ParameterError
from diacorpus.lexicon import Vocabulary
from diacorpus.orthography import (
    circumflex_frequency,
    detect_variant_pairs,
    ending_ratio_rows,
)
from diacorpus.preprocess import LookupAnalyzer

from conftest import PERIOD_1930, PERIOD_1980, fixture_sequences


def _vocab(entries, period=PERIOD_1930):
    return Vocabulary(period, dict(entries))


def _ratios(tree, pair_class):
    """The ratio column of the ``ending_ratio_rows`` of a pair class, in period order."""
    return [ratio for *_, ratio in ending_ratio_rows(tree, pair_class)]


class TestDetectVariantPairs:
    def test_textbook_pair(self):
        pairs = detect_variant_pairs(_vocab({"kitab": 1, "kitap": 1}), "b-p")
        assert pairs == [("kitab", "kitap")]

    def test_counterpart_absent(self):
        assert detect_variant_pairs(_vocab({"kitab": 1}), "b-p") == []

    def test_default_exclusions_drop_et(self):
        vocab = _vocab({"et": 50, "ed": 3, "ahmed": 2, "ahmet": 4})
        pairs = detect_variant_pairs(vocab, "d-t")
        assert pairs == [("ahmed", "ahmet")]

    def test_each_pair_emitted_once_soft_first(self):
        pairs = detect_variant_pairs(_vocab({"kitab": 1, "kitap": 1, "mektub": 1, "mektup": 1}), "b-p")
        assert pairs == [
            ("kitab", "kitap"),
            ("mektub", "mektup"),
        ]

    def test_pair_class_validated(self):
        with pytest.raises(ParameterError):
            detect_variant_pairs(_vocab({"a": 1}), "x-y")


def _two_period_tree(texts_early, texts_late):
    return DiachronicCorpus(
        [
            PeriodCorpus.from_texts(PERIOD_1930, {"d": texts_early}),
            PeriodCorpus.from_texts(PERIOD_1980, {"d": texts_late}),
        ]
    )


class TestEndingRatio:
    def test_single_pair_arithmetic(self):
        tree = _two_period_tree(
            " ".join(["kitab"] * 10 + ["kitap"] * 90),
            " ".join(["kitab"] * 2 + ["kitap"] * 98),
        )
        assert _ratios(tree, "b-p")[0] == pytest.approx(10 / 90)

    def test_zero_soft_forms(self):
        tree = _two_period_tree("kitap kitap kitap", "kitab kitap kitap")
        assert _ratios(tree, "b-p")[0] == 0.0

    def test_zero_hard_forms_is_null(self):
        tree = _two_period_tree("kitab kitab", "kitap kitap kitab")
        assert _ratios(tree, "b-p")[0] is None

    def test_no_pairs_errors_naming_class(self):
        tree = _two_period_tree("kalem defter", "kalem defter")
        with pytest.raises(ComputationUndefinedError, match="b-p"):
            ending_ratio_rows(tree, "b-p")

    def test_fixture_declines(self, fixture_tree):
        for pair_class in ("b-p", "d-t"):
            values = _ratios(fixture_tree, pair_class)
            assert values[0] > values[1]

    def test_invariant_under_corpus_duplication(self, fixture_config, fixture_tree):
        def rebuilt(copies):
            return DiachronicCorpus(
                [
                    PeriodCorpus.from_texts(
                        leaf.period,
                        {
                            f"{i}-{copy}": " ".join(seq)
                            for i, seq in enumerate(
                                fixture_sequences(fixture_config, leaf, "surface")
                            )
                            for copy in range(copies)
                        },
                        filter_config=fixture_config.filter,
                    )
                    for leaf in fixture_tree.leaves()
                ]
            )

        original = _ratios(rebuilt(1), "b-p")
        duplicated = _ratios(rebuilt(2), "b-p")
        for a, b in zip(original, duplicated):
            assert a == pytest.approx(b)

    def test_merged_vocabulary_pairs_forms_across_periods(self):
        # soft form lives only in the early period, hard only in the late one;
        # the merged vocabulary still pairs them
        tree = _two_period_tree("kitab kitab kitab", "kitap kitap kitap")
        rows = ending_ratio_rows(tree, "b-p")
        assert rows[0][1] == 3 and rows[0][2] == 0
        assert rows[1][1] == 0 and rows[1][2] == 3


def _circumflex_columns(node):
    """The raw and per-million columns of the ``circumflex_frequency`` rows."""
    rows = circumflex_frequency(node)
    return [raw for _, raw, _ in rows], [rate for _, _, rate in rows]


class TestCircumflex:
    def test_counts_by_hand(self):
        leaf = PeriodCorpus.from_texts(PERIOD_1930, {"d": "kâğıt kâğıt kâğıt kalem"})
        raw, per_million = _circumflex_columns(DiachronicCorpus([leaf]))
        assert raw == [3]
        assert per_million[0] == pytest.approx(3 / 4 * 1_000_000)

    @pytest.mark.parametrize("form", ["NFC", "NFD"])
    def test_decomposed_text_counts_as_precomposed(self, form):
        # in NFD the marks are combining characters, which made kâğıt, hükûmet and
        # İstanbul fail the alphabetic filter and every circumflex read 0
        text = "Kâğıt resmî millî kâğıt. İstanbul İstanbul hükûmet."
        leaf = PeriodCorpus.from_texts(PERIOD_1930, {"d": unicodedata.normalize(form, text)})
        raw, _ = _circumflex_columns(DiachronicCorpus([leaf]))
        assert raw == [5]
        assert len(leaf.vocabulary.entries) == 5

    def test_no_circumflex(self):
        leaf = PeriodCorpus.from_texts(PERIOD_1930, {"d": "kalem defter"})
        raw, per_million = _circumflex_columns(DiachronicCorpus([leaf]))
        assert raw == [0]
        assert per_million == [0.0]

    def test_single_letter_per_occurrence(self):
        # the analyzer keeps the full form as the lemma; only the î counts, once per token
        analyzer = LookupAnalyzer({"abidevî": "abidevî"})
        leaf = PeriodCorpus.from_texts(PERIOD_1930, {"d": "abidevî abidevî"}, analyzer=analyzer)
        raw, _ = _circumflex_columns(DiachronicCorpus([leaf]))
        assert raw == [2]

    def test_duplication_doubles_raw_not_rate(self, fixture_config, fixture_tree):
        def rebuilt(copies):
            return DiachronicCorpus(
                [
                    PeriodCorpus.from_texts(
                        leaf.period,
                        {
                            f"{i}-{copy}": " ".join(seq)
                            for i, seq in enumerate(
                                fixture_sequences(fixture_config, leaf, "lemma")
                            )
                            for copy in range(copies)
                        },
                        filter_config=fixture_config.filter,
                    )
                    for leaf in fixture_tree.leaves()
                ]
            )

        raw_once, rate_once = _circumflex_columns(rebuilt(1))
        raw_twice, rate_twice = _circumflex_columns(rebuilt(2))
        assert [2 * v for v in raw_once] == raw_twice
        for a, b in zip(rate_once, rate_twice):
            assert a == pytest.approx(b)

    def test_fixture_rate_declines(self, fixture_tree):
        _, values = _circumflex_columns(fixture_tree)
        assert values[0] > values[1]
