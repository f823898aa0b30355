import math
import sys
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diacorpus.errors import ParameterError
from diacorpus.preprocess import (
    FilterConfig,
    LookupAnalyzer,
    f5_stem,
    filter_vocabulary,
    frequency_threshold,
    lemma_surfaces,
    load_analyzer_tsv,
    normalize_text,
    token_surfaces,
    turkish_lower,
)

from conftest import FIXTURES, GOLDEN

# Hand-tokenized reference for a 1921-style gazette sentence, frozen once.
SENTENCE_1921 = "(1) Hâkimiyet bilâ-kayd ü şart milletindir."
SENTENCE_1921_TOKENS = [
    "(",
    "1",
    ")",
    "Hâkimiyet",
    "bilâ-kayd",
    "ü",
    "şart",
    "milletindir",
    ".",
]


def reference_normalize(raw):
    """The character loop normalize_text replaced, kept as its reference.

    Soft hyphens are dropped; each whitespace run becomes a newline if it
    holds one, else a space; leading and trailing runs are dropped. The
    result is then brought to NFC.
    """
    out = []
    in_run = False
    run_has_newline = False
    for ch in raw:
        if ch == "\u00ad":
            continue
        if ch.isspace():
            in_run = True
            if ch == "\n":
                run_has_newline = True
            continue
        if in_run:
            if out:
                out.append("\n" if run_has_newline else " ")
            in_run = False
            run_has_newline = False
        out.append(ch)
    return unicodedata.normalize("NFC", "".join(out))


# every str.isspace() character, the soft hyphen, and a few letters
_WHITESPACE = "".join(chr(c) for c in range(0x3001) if chr(c).isspace())
_NORMALIZE_ALPHABET = st.sampled_from(list("abç\u00ad" + _WHITESPACE))


class TestNormalize:
    @given(st.text(_NORMALIZE_ALPHABET, max_size=40) | st.text(max_size=40))
    @settings(max_examples=500, deadline=None)
    def test_matches_reference_loop(self, raw):
        assert normalize_text(raw) == reference_normalize(raw)

    def test_nbsp_runs_collapse(self):
        assert normalize_text("a   b") == "a b"

    def test_soft_hyphen_removed(self):
        assert normalize_text("ka­ğıt") == "kağıt"

    def test_decomposed_text_becomes_precomposed(self):
        # a + U+0302 is â; g + U+0306 is ğ, even where a soft hyphen parted them
        assert normalize_text("ka\u0302g\u00ad\u0306ıt") == "kâğıt"

    def test_golden_file(self):
        raw = (FIXTURES / "raw" / "messy_sample.txt").read_text(encoding="utf-8")
        golden = (GOLDEN / "normalized_sample.txt").read_text(encoding="utf-8")
        assert normalize_text(raw) == golden

    def test_newlines_survive_as_line_breaks(self):
        assert normalize_text("bir \n\n iki\tüç") == "bir\niki üç"

    def test_total_on_empty_and_whitespace(self):
        assert normalize_text("") == ""
        assert normalize_text(" \t\n ") == ""

    @given(st.text(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, text):
        once = normalize_text(text)
        assert normalize_text(once) == once


class TestTokenize:
    def test_no_letter_is_punctuation_or_symbol(self):
        # token_surfaces keeps a chunk that is all letters whole; that is the
        # normative rule only while no isalpha() character is in category P or S
        offenders = [
            hex(cp)
            for cp in range(sys.maxunicode + 1)
            if chr(cp).isalpha() and unicodedata.category(chr(cp))[0] in "PS"
        ]
        assert offenders == []

    def test_trailing_punctuation_detached(self):
        assert token_surfaces("Hâkimiyet milletindir.") == [
            "Hâkimiyet",
            "milletindir",
            ".",
        ]

    def test_empty_input(self):
        assert token_surfaces("") == []

    def test_golden_1921_sentence(self):
        assert token_surfaces(SENTENCE_1921) == SENTENCE_1921_TOKENS

    def test_interior_apostrophe_kept(self):
        assert token_surfaces("Türkiye'nin kararı") == ["Türkiye'nin", "kararı"]

    def test_punctuation_runs_are_single_tokens(self):
        assert token_surfaces("oldu...") == ["oldu", "..."]
        assert token_surfaces("«karar»") == ["«", "karar", "»"]

    @given(st.text(max_size=120))
    @settings(max_examples=200, deadline=None)
    def test_tokens_are_the_text_without_whitespace(self, text):
        tokens = token_surfaces(text)
        assert all(t and not any(ch.isspace() for ch in t) for t in tokens)
        assert "".join(tokens) == "".join(text.split())

    @given(st.text(max_size=120))
    @settings(max_examples=200, deadline=None)
    def test_retokenizing_joined_tokens_is_stable(self, text):
        tokens = token_surfaces(normalize_text(text))
        assert token_surfaces(" ".join(tokens)) == tokens


class TestCaseFolding:
    def test_turkish_dotted_and_dotless(self):
        assert turkish_lower("İSTANBUL") == "istanbul"
        assert turkish_lower("ISPARTA") == "ısparta"

    def test_circumflex_preserved(self):
        assert turkish_lower("KÂĞIT") == "kâğıt"


class TestThreshold:
    @pytest.mark.parametrize(
        "n,expected",
        [
            (0, 0),
            (1, 1),
            (5_000_000, 1),
            (10_000_000, 1),
            (10_000_001, 2),
            (25_000_000, 3),
        ],
    )
    def test_default_divisor(self, n, expected):
        assert frequency_threshold(n) == expected
        # agrees with the ceiling formula evaluated independently
        assert frequency_threshold(n) == math.ceil(n / 10_000_000)

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            frequency_threshold(-1)

    def test_divisor_must_be_positive(self):
        with pytest.raises(ParameterError):
            FilterConfig(threshold_divisor=0)


class TestFilterVocabulary:
    def test_below_threshold_removed(self):
        out = filter_vocabulary({"a": 5, "b": 1}, 20_000_000)
        assert out == {"a": 5}

    def test_zero_tokens_passes_everything(self):
        assert filter_vocabulary({"a": 5}, 0) == {"a": 5}

    def test_non_alphabetic_removed(self):
        out = filter_vocabulary({"md5x9": 10, "kitap": 10}, 0)
        assert out == {"kitap": 10}

    def test_alphabetic_only_can_be_disabled(self):
        cfg = FilterConfig(alphabetic_only=False)
        out = filter_vocabulary({"md5x9": 10}, 0, cfg)
        assert out == {"md5x9": 10}

    @given(
        st.dictionaries(st.text(alphabet="abcçğış", min_size=1, max_size=6), st.integers(1, 50)),
        st.integers(0, 100),
        st.integers(0, 100),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_token_count(self, counts, n_small, n_extra):
        cfg = FilterConfig(threshold_divisor=10)
        small = filter_vocabulary(counts, n_small, cfg)
        large = filter_vocabulary(counts, n_small + n_extra, cfg)
        assert set(large) <= set(small)


class TestLemmatize:
    def test_f5_on_long_word(self):
        assert lemma_surfaces(["müstenittir"]) == ["müste"]

    def test_short_word_passthrough(self):
        assert lemma_surfaces(["ev"]) == ["ev"]

    def test_analyzer_hit(self):
        analyzer = LookupAnalyzer({"milletindir": "millet"})
        assert lemma_surfaces(["milletindir"], analyzer) == ["millet"]

    def test_analyzer_miss_falls_back(self):
        analyzer = LookupAnalyzer({})
        assert lemma_surfaces(["müstenittir"], analyzer) == ["müste"]

    def test_analyzer_matches_case_folded_surface(self):
        analyzer = LookupAnalyzer({"istanbul": "istanbul"})
        assert lemma_surfaces(["İstanbul"], analyzer) == ["istanbul"]

    @pytest.mark.parametrize("stem", ["aaa bbb", "aaa\u00a0bbb", "\u2028aaa"])
    def test_analyzer_stem_with_whitespace_names_the_line(self, tmp_path, stem):
        path = tmp_path / "stems.tsv"
        path.write_text(f"kitaplar\tkitap\naaalar\t{stem}\n", encoding="utf-8")
        with pytest.raises(ParameterError, match=r"stems\.tsv: line 2: stem has whitespace"):
            load_analyzer_tsv(path)

    def test_analyzer_rows_are_read_as_nfc(self, tmp_path):
        path = tmp_path / "stems.tsv"
        path.write_text(unicodedata.normalize("NFD", "kâğıtlar\tkâğıt\n"), encoding="utf-8")
        assert lemma_surfaces(["kâğıtlar"], load_analyzer_tsv(path)) == ["kâğıt"]

    def test_f5_counts_characters_not_bytes(self):
        assert f5_stem("âbidevî") == "âbide"
        assert len(f5_stem("âbidevî")) == 5

    @given(st.text(alphabet="abcçğıiöşüâîû", min_size=1, max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_f5_fallback_property(self, surface):
        (lemma,) = lemma_surfaces([surface])
        folded = turkish_lower(surface)
        if len(folded) >= 5:
            assert lemma == folded[:5]
        else:
            assert lemma == folded
