import datetime as dt
import errno
import io
import itertools
import json
import os
import re
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diacorpus.corpus import (
    DiachronicCorpus,
    DocumentRecord,
    PeriodCorpus,
    TimePeriod,
    LABEL,
    WORDS,
    build_corpus_tree,
    csv_table,
    decade_bucket,
    load_manifest,
    parse_manifest,
    parse_numbers,
    per_period,
    read_artifact,
    read_store,
    select_leaves,
    store_bytes,
    write_artifact,
)
from diacorpus.errors import IngestError, ParameterError
from diacorpus.preprocess import (
    FilterConfig,
    filter_vocabulary,
    lemma_surfaces,
    normalize_text,
    token_surfaces,
    turkish_lower,
)
from diacorpus.alignment import AlignmentTransform, read_transform, write_transform
from diacorpus.embeddings import (
    EmbeddingSet,
    PPMIMatrix,
    read_embeddings,
    read_ppmi,
    write_embeddings,
    write_ppmi,
)
from diacorpus.divergence import survived_words
from diacorpus.lexicon import (
    NgramTable,
    Vocabulary,
    cofrequency,
    exists,
    frequency,
    morpheme_frequency,
    read_ngrams,
    read_vocabulary,
    vocab_metrics,
    words_matching,
    write_ngrams,
    write_vocabulary,
)
from diacorpus.orthography import circumflex_frequency, ending_ratio, ending_ratio_rows

from conftest import (
    BAD_ASSOCIATIONS,
    BAD_COUNTS,
    EDGE_TOKENS,
    FIXTURES,
    PERIOD_1930,
    PERIOD_1980,
    fixture_sequences,
    row_order,
    with_edge_token,
)


def _record(doc_id, year, path="docs/x.txt"):
    return DocumentRecord(doc_id=doc_id, date=dt.date(year, 6, 1), source="gazette", path=path)


class TestTimePeriod:
    def test_label_roundtrip(self):
        assert TimePeriod.parse("1930-1939").label == "1930-1939"

    def test_invalid_span(self):
        with pytest.raises(ParameterError):
            TimePeriod(1950, 1940)

    def test_decade_bucket(self):
        assert decade_bucket(1935) == PERIOD_1930
        assert decade_bucket(1921) == TimePeriod(1920, 1929)
        assert decade_bucket(9999) == TimePeriod(9990, 9999)

    @pytest.mark.parametrize("years", [(-1, 5), (1990, 10000)])
    def test_year_outside_a_label_rejected(self, years):
        with pytest.raises(ParameterError, match="outside 0-9999"):
            TimePeriod(*years)

    @pytest.mark.parametrize(
        "label", ["1930-1939\n", "١٩٣٠-١٩٣٩", "0930-1939"],
        ids=["trailing-newline", "arabic-indic-digits", "leading-zero"],
    )
    def test_spelling_label_never_writes_is_rejected(self, label):
        with pytest.raises(ParameterError, match="cannot parse period label"):
            TimePeriod.parse(label)

    @settings(max_examples=200, deadline=None)
    @given(years=st.tuples(st.integers(0, 9999), st.integers(0, 9999)))
    @example(years=(0, 0))
    @example(years=(9, 10))
    @example(years=(9999, 9999))
    def test_parse_reads_back_every_label(self, years):
        period = TimePeriod(*sorted(years))
        assert TimePeriod.parse(period.label) == period


class TestTreeConstruction:
    def test_overlapping_children_rejected(self):
        with pytest.raises(ParameterError):
            DiachronicCorpus(
                [PeriodCorpus(TimePeriod(1930, 1949)), PeriodCorpus(TimePeriod(1940, 1959))]
            )

    def test_composite_period_spans_children(self):
        tree = DiachronicCorpus([PeriodCorpus(PERIOD_1980), PeriodCorpus(PERIOD_1930)])
        assert [l.period for l in tree.leaves()] == [PERIOD_1930, PERIOD_1980]

    def test_select_leaves_rejects_a_repeated_period(self, fixture_tree):
        with pytest.raises(ParameterError, match="period 1930-1939 is listed twice"):
            select_leaves(fixture_tree, [PERIOD_1930, PERIOD_1980, PERIOD_1930])


class TestBucketing:
    def test_two_decades(self, tmp_path):
        for name in ("a.txt", "b.txt"):
            (tmp_path / name).write_text("bir iki", encoding="utf-8")
        tree = build_corpus_tree(
            [_record("a", 1935, "a.txt"), _record("b", 1985, "b.txt")],
            corpus_root=tmp_path,
        )
        assert [l.period for l in tree.leaves()] == [PERIOD_1930, PERIOD_1980]

    def test_single_document_single_bucket(self, tmp_path):
        (tmp_path / "a.txt").write_text("bir", encoding="utf-8")
        tree = build_corpus_tree([_record("a", 1921, "a.txt")], corpus_root=tmp_path)
        assert [l.period for l in tree.leaves()] == [TimePeriod(1920, 1929)]

    def test_documents_outside_buckets_are_reported(self, tmp_path):
        for name in ("a.txt", "b.txt"):
            (tmp_path / name).write_text("bir", encoding="utf-8")
        tree = build_corpus_tree(
            [_record("a", 1935, "a.txt"), _record("b", 1999, "b.txt")],
            bucketing=[PERIOD_1930],
            corpus_root=tmp_path,
        )
        assert [d.doc_id for d in tree.unbucketed_documents] == ["b"]
        assert len(tree.leaves()) == 1

    def test_fixture_document_counts_sum_to_manifest_size(self, fixture_tree):
        manifest = json.loads(
            (FIXTURES / "mini_corpus" / "manifest.json").read_text(encoding="utf-8")
        )
        total = sum(l.stats.document_count for l in fixture_tree.leaves())
        assert total == len(manifest) == 100


class TestIngestErrors:
    def test_empty_manifest(self):
        with pytest.raises(IngestError):
            parse_manifest("[]")

    def test_bad_date(self):
        with pytest.raises(IngestError, match="cannot parse date"):
            parse_manifest('[{"id": "a", "date": "not-a-date", "path": "x"}]')

    @pytest.mark.parametrize("text", ["20200101", "2020-W01-1", "2020-W01"])
    def test_date_other_than_yyyy_mm_dd_rejected(self, text):
        # fromisoformat reads these on Python 3.11+ but not on 3.10
        with pytest.raises(IngestError, match=f"document 'x': cannot parse date '{text}'"):
            parse_manifest(f'[{{"id": "x", "date": "{text}", "path": "x"}}]')

    def test_yyyy_mm_dd_date_parses(self):
        (record,) = parse_manifest('[{"id": "x", "date": "1930-01-01", "path": "x"}]')
        assert record.date == dt.date(1930, 1, 1)

    def test_duplicate_id(self):
        with pytest.raises(IngestError, match="duplicate"):
            parse_manifest(
                '[{"id": "a", "date": "1930-01-01", "path": "x"},'
                ' {"id": "a", "date": "1931-01-01", "path": "y"}]'
            )

    def test_unreadable_document_names_id(self, tmp_path):
        with pytest.raises(IngestError, match="'gone'"):
            build_corpus_tree([_record("gone", 1935, "missing.txt")], corpus_root=tmp_path)

    def test_no_records_is_ingest_error(self):
        with pytest.raises(IngestError, match="no document fell into any bucket"):
            build_corpus_tree([])

    def test_missing_manifest_file(self, tmp_path):
        with pytest.raises(IngestError):
            load_manifest(tmp_path)


def unique_word_count(leaf):
    return len(leaf.vocabulary.entries)


# each per-period query of the library, as a function of a tree and a period range
PER_PERIOD_RESULTS = {
    "exists": lambda tree, periods: exists(tree, "kanun", periods),
    "frequency": lambda tree, periods: frequency(tree, "kanun", periods),
    "words_matching": lambda tree, periods: words_matching(tree, "prefix", "ka", periods),
    "morpheme_frequency": lambda tree, periods: morpheme_frequency(tree, "ler", periods),
    "cofrequency": lambda tree, periods: cofrequency(tree, "kanun", "madde", periods),
    **{
        f"vocab_metrics.{key}": lambda tree, periods, key=key: vocab_metrics(tree, periods)[key]
        for key in ("unique_word_count", "average_word_length", "ngram_count")
    },
    "survived_words": lambda tree, periods: survived_words(tree, min(periods), periods),
    "ending_ratio": lambda tree, periods: ending_ratio(tree, "b-p", periods),
    "ending_ratio_rows": lambda tree, periods: ending_ratio_rows(tree, "b-p", periods),
    "circumflex_frequency": lambda tree, periods: circumflex_frequency(tree, periods),
}
# the results of several columns: (period, ...) rows, not (period, value) pairs
ROW_RESULTS = {"ending_ratio_rows", "circumflex_frequency"}


class TestPerPeriod:
    def test_series_equals_per_leaf_values(self, fixture_tree):
        series = per_period(fixture_tree, None, unique_word_count)
        assert isinstance(series, list)
        assert series == [(l.period, unique_word_count(l)) for l in fixture_tree.leaves()]

    def test_reversed_periods_give_period_order(self, fixture_tree):
        series = per_period(fixture_tree, [PERIOD_1980, PERIOD_1930], unique_word_count)
        assert [period for period, _ in series] == [PERIOD_1930, PERIOD_1980]

    @pytest.mark.parametrize("name", sorted(PER_PERIOD_RESULTS))
    def test_every_per_period_result_is_a_list_in_period_order(self, fixture_tree, name):
        periods = [leaf.period for leaf in reversed(fixture_tree.leaves())]
        result = PER_PERIOD_RESULTS[name](fixture_tree, periods)
        assert isinstance(result, list)
        assert [entry[0] for entry in result] == [
            leaf.period for leaf in select_leaves(fixture_tree, periods)
        ]
        if name not in ROW_RESULTS:
            assert all(len(entry) == 2 for entry in result)
            for period, value in result:
                assert dict(result)[period] == value

    @pytest.mark.parametrize(
        "periods,message",
        [
            ([PERIOD_1930, TimePeriod(1950, 1959)], "no corpus leaf for period 1950-1959"),
            ([PERIOD_1930, PERIOD_1980, PERIOD_1930], "period 1930-1939 is listed twice"),
            ([], "no periods selected"),
        ],
    )
    def test_bad_range_raises_before_fn_runs(self, fixture_tree, periods, message):
        calls = []
        with pytest.raises(ParameterError, match=message):
            per_period(fixture_tree, periods, calls.append)
        assert calls == []


class TestDeterminismAndStats:
    def test_rebuild_is_bit_identical_in_stats(self, fixture_config):
        from diacorpus.cli import _ingest_tree

        first = _ingest_tree(fixture_config)
        second = _ingest_tree(fixture_config)
        for a, b in zip(first.leaves(), second.leaves()):
            assert a.stats == b.stats
            assert a.vocabulary.entries == b.vocabulary.entries

    def test_raw_token_count_equals_sum_of_document_counts(self, fixture_config, fixture_tree):
        for leaf in fixture_tree.leaves():
            per_doc = sum(len(seq) for seq in fixture_sequences(fixture_config, leaf, "surface"))
            assert leaf.stats.token_count_raw == per_doc

    def test_stats_consistency(self, fixture_tree):
        for leaf in fixture_tree.leaves():
            stats = leaf.stats
            assert stats.token_count_filtered <= stats.token_count_raw
            assert stats.avg_tokens_per_document == pytest.approx(
                stats.token_count_raw / stats.document_count
            )


# short runs of letters (with Turkish İ/I), of punctuation and symbols that split
# off a chunk's edges and of the soft hyphen normalization drops, between runs of
# any whitespace characters, so that chunks repeat and differ only in case
_INGEST_TEXTS = st.lists(
    st.text(st.sampled_from("açİIiı.,'-()«$+\u00ad"), min_size=1, max_size=3)
    | st.text(
        st.sampled_from([chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]),
        min_size=1,
        max_size=2,
    ),
    max_size=16,
).map("".join)


class TestIngestLeafAgainstWholeDocuments:
    """Ingest tokenizes each distinct chunk once; its ids and type order equal a
    reference that tokenizes every whole document."""

    @settings(max_examples=150, deadline=None)
    @example(texts=["«İI» I i\u00a0ı.", "i\u00adI ı\u2029İ"], divisor=10_000_000, alphabetic_only=False)
    @given(
        texts=st.lists(_INGEST_TEXTS, max_size=4),
        divisor=st.sampled_from([10, 10_000_000]),
        alphabetic_only=st.booleans(),
    )
    def test_token_ids_and_type_order(self, texts, divisor, alphabetic_only):
        config = FilterConfig(threshold_divisor=divisor, alphabetic_only=alphabetic_only)
        leaf = PeriodCorpus.from_texts(PERIOD_1930, dict(enumerate(texts)), config)
        documents = [token_surfaces(normalize_text(text)) for text in texts]
        surfaces = [s for document in documents for s in document]
        assert leaf.doc_offsets.tolist() == np.cumsum([0, *map(len, documents)]).tolist()
        assert leaf.stats.unique_surface_count == len(set(surfaces))
        levels = {"surface": map(turkish_lower, surfaces), "lemma": lemma_surfaces(surfaces)}
        for level, words in levels.items():
            words = list(words)
            entries = filter_vocabulary(Counter(words), len(words), config)
            vocabulary = leaf.vocabulary if level == "lemma" else leaf.surface_vocabulary
            assert vocabulary.entries == entries
            rows = row_order(entries)
            assert list(vocabulary.entries) == rows
            row = {w: i for i, w in enumerate(rows)}
            assert leaf.token_ids[level].tolist() == [row.get(w, -1) for w in words]


class TestCsvTable:
    @pytest.mark.parametrize(
        "value,cell",
        [
            (None, ""),
            (True, "true"),
            (0.1 + 0.2, "0.30000000000000004"),
            (np.float64(0.1), "0.1"),
            (7, "7"),
            ("kitap", "kitap"),
        ],
    )
    def test_cell_rule(self, value, cell):
        assert csv_table(["period", "value"], [("1930-1939", value)]) == (
            f"period,value\n1930-1939,{cell}\n"
        )


class TestReadArtifactLines:
    @pytest.mark.parametrize(
        "read",
        [
            read_vocabulary,
            lambda path: read_ngrams(path, 1),
            lambda path: read_ppmi(path, Vocabulary(PERIOD_1930, {"aa": 1})),
        ],
        ids=["vocabulary", "ngrams", "ppmi"],
    )
    def test_non_utf8_artifact_is_parameter_error_naming_the_file(self, tmp_path, read):
        path = tmp_path / "artifact.txt"
        path.write_bytes(b"#period=1930-1939 #tokens=1\naa\xff\t1\n")
        with pytest.raises(ParameterError, match=r"artifact\.txt: not a UTF-8 text file"):
            read(path)

    def test_non_utf8_byte_past_the_first_read_is_parameter_error(self, tmp_path):
        path = tmp_path / "artifact.txt"
        body = b"".join(b"w%d\t1\n" % i for i in range(20_000))
        path.write_bytes(b"#period=1930-1939 #tokens=20001\n" + body + b"aa\xff\t1\n")
        with pytest.raises(ParameterError, match=r"artifact\.txt: not a UTF-8 text file"):
            read_vocabulary(path)

    def test_records_are_numbered_non_blank_lines_in_universal_newlines(self, tmp_path):
        path = tmp_path / "artifact.txt"
        path.write_bytes(b"#period=1930-1939 #tokens=3\r\n\r\naa\t2\rbb\t1\n\n")
        header, records = read_artifact(path, "vocabulary", period=TimePeriod.parse, tokens=int)
        assert header == {"period": PERIOD_1930, "tokens": 3}
        assert not isinstance(records, (list, tuple))  # streamed, not a line list
        assert list(records) == [(3, "aa\t2"), (4, "bb\t1")]


# A clean file of each text format: the header line, then the records.
_PAIR_VOCABULARY = Vocabulary(PERIOD_1930, {"aa": 2, "bb": 1})
_CLEAN_ARTIFACTS = {
    "vocabulary": (read_vocabulary, ["#period=1930-1939 #tokens=3", "aa\t2", "bb\t1"]),
    "ngrams": (
        lambda path: read_ngrams(path, 1),
        ["#period=1930-1939 #tokens=3", "aa\t2", "bb\t1"],
    ),
    "ppmi": (
        lambda path: read_ppmi(path, _PAIR_VOCABULARY),
        ["#period=1930-1939 #window=2 #alpha=0.75", "aa\tbb\t0.5", "bb\taa\t0.5"],
    ),
}
_BAD_HEADER = r"artifact\.txt: line 1: bad [a-z-]+ header"
# not a word: empty, or holding a whitespace character that str.splitlines() breaks at
_NOT_WORDS = ["", "a\x0cb", "a\x85b", "a\u2028b"]
_CORRUPTIONS = [
    *(
        (kind, name, corrupt, _BAD_HEADER)
        for kind in _CLEAN_ARTIFACTS
        for name, corrupt in [
            ("repeated-key", lambda lines: [lines[0] + " " + lines[0].split(" ")[-1], *lines[1:]]),
            ("missing-key", lambda lines: [lines[0].rsplit(" ", 1)[0], *lines[1:]]),
            ("unknown-key", lambda lines: [lines[0] + " #extra=1", *lines[1:]]),
            # one header syntax: every field is #key=value
            ("unprefixed-field", lambda lines: [lines[0].removeprefix("#"), *lines[1:]]),
        ]
    ),
    *(
        (kind, "duplicate-record", lambda lines: [*lines[:2], lines[1], *lines[3:]], match)
        for kind, match in [
            ("vocabulary", r"artifact\.txt: line 3: word 'aa' listed twice"),
            ("ngrams", r"artifact\.txt: line 3: gram 'aa' listed twice"),
            ("ppmi", r"artifact\.txt: 1 word pair\(s\) listed twice"),
        ]
    ),
    *(
        (
            kind,
            "count-sum",
            lambda lines: [lines[0].replace("#tokens=3", "#tokens=4"), *lines[1:]],
            r"artifact\.txt: counts sum to 3, not #tokens=4",
        )
        for kind in ("vocabulary", "ngrams")
    ),
    # The word rule: a vocabulary or n-gram key is non-empty and holds no
    # whitespace, not even a character that str.splitlines() would take for a
    # line break.
    *(
        (
            kind,
            f"word-{word!r}",
            lambda lines, word=word: [lines[0], f"{word}\t2", lines[2]],
            rf"artifact\.txt: line 2: {noun} {re.escape(repr(word))} is not 1 word",
        )
        for kind, noun in [("vocabulary", "word"), ("ngrams", "gram")]
        for word in [*_NOT_WORDS, "a b"]
    ),
]


class TestArtifactRecordRules:
    @pytest.mark.parametrize("kind", _CLEAN_ARTIFACTS)
    def test_clean_artifact_loads(self, tmp_path, kind):
        read, lines = _CLEAN_ARTIFACTS[kind]
        path = tmp_path / "artifact.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        read(path)

    @pytest.mark.parametrize(
        "kind,name,corrupt,match",
        _CORRUPTIONS,
        ids=[f"{kind}-{name}" for kind, name, _, _ in _CORRUPTIONS],
    )
    def test_corruption_is_parameter_error_naming_the_file(
        self, tmp_path, kind, name, corrupt, match
    ):
        read, lines = _CLEAN_ARTIFACTS[kind]
        path = tmp_path / "artifact.txt"
        path.write_text("\n".join(corrupt(lines)) + "\n", encoding="utf-8")
        with pytest.raises(ParameterError, match=match):
            read(path)

    @pytest.mark.parametrize("token", EDGE_TOKENS)
    def test_value_not_an_ascii_finite_float_names_the_line(self, tmp_path, token):
        read, lines = _CLEAN_ARTIFACTS["ppmi"]
        path = tmp_path / "artifact.txt"
        path.write_text("\n".join(with_edge_token(lines, token)) + "\n", encoding="utf-8")
        with pytest.raises(ParameterError, match=r"artifact\.txt: line 3: "):
            read(path)

    @pytest.mark.parametrize(
        "kind,token",
        [
            *((kind, count) for kind in ("vocabulary", "ngrams") for count in BAD_COUNTS),
            *(("ppmi", value) for value in BAD_ASSOCIATIONS),
        ],
    )
    def test_count_or_association_out_of_rule_names_the_line(self, tmp_path, kind, token):
        read, lines = _CLEAN_ARTIFACTS[kind]
        path = tmp_path / "artifact.txt"
        path.write_text("\n".join(with_edge_token(lines, token)) + "\n", encoding="utf-8")
        with pytest.raises(ParameterError, match=r"artifact\.txt: line 3: "):
            read(path)

    @pytest.mark.parametrize("kind", _CLEAN_ARTIFACTS)
    def test_blank_lines_are_skipped_and_counted(self, tmp_path, kind):
        """Blank lines anywhere after the header are ignored, and a later line's error
        still names its line in the file."""
        read, lines = _CLEAN_ARTIFACTS[kind]
        path = tmp_path / "artifact.txt"
        path.write_text("\n\n".join(lines) + "\n\n\n", encoding="utf-8")
        read(path)
        path.write_text("\n\n".join(with_edge_token(lines, "nan")) + "\n", encoding="utf-8")
        with pytest.raises(ParameterError, match=r"artifact\.txt: line 5: "):
            read(path)

    @pytest.mark.parametrize("kind", _CLEAN_ARTIFACTS)
    def test_empty_file_is_parameter_error_naming_the_file(self, tmp_path, kind):
        path = tmp_path / "artifact.txt"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ParameterError, match=r"artifact\.txt: empty [a-z-]+ file"):
            _CLEAN_ARTIFACTS[kind][0](path)


class TestParseNumbers:
    @pytest.mark.parametrize("char", ["\x85", "\t", "\x0c"], ids=["nel", "tab", "form-feed"])
    @pytest.mark.parametrize("kind", [float, int], ids=["float64", "int64"])
    @pytest.mark.parametrize("template", ["{c}5", "5{c}", "5 {c}7", "5{c} 7"])
    def test_whitespace_beside_a_literal_is_rejected(self, char, kind, template):
        text = template.format(c=char)
        rows = {2: "3", 3: text}
        with pytest.raises(ParameterError, match=rf"^p: line 3: {re.escape(repr(text))} is not"):
            parse_numbers("p", rows, kind)

    @pytest.mark.parametrize(
        "bad", ["x", "1.0 x", "1.0 2.0", "", "1.0 2.0 3.0", "\u0661", "1.0 \u0661"]
    )
    @pytest.mark.parametrize("line", [2, 1036, 2000], ids=["first", "middle", "last"])
    def test_a_bad_row_is_named_wherever_it_is(self, bad, line):
        rows = {n: f"{n}.5" for n in range(2, 2001, 2)}  # blank lines between rows
        rows[line] = bad
        text = re.escape(repr(bad))
        with pytest.raises(
            ParameterError, match=rf"^p: line {line}: {text} is not 1 ASCII float64 literal\(s\)$"
        ):
            parse_numbers("p", rows, float)

    def test_the_first_of_two_bad_rows_is_named(self):
        rows = {n: "1.0" for n in range(2, 1002)}
        rows[700], rows[300] = "x", "y"
        with pytest.raises(ParameterError, match=r"^p: line 300: 'y' is not"):
            parse_numbers("p", rows, float)

    @pytest.mark.parametrize("value", ["0", "-5", "nan", "inf", "1e999"])
    def test_a_value_not_finite_and_above_0_is_named(self, value):
        rows = {2: "1.5", 4: value, 5: "0"}
        with pytest.raises(ParameterError, match=r"^p: line 4: a value is not finite and above 0$"):
            parse_numbers("p", rows, float)

    def test_one_literal_per_row_gives_one_value_per_row(self):
        values = parse_numbers("p", {2: "3", 5: "10"}, int)
        assert values == [3, 10] and all(type(v) is int for v in values)
        assert parse_numbers("p", {}, float) == []

    # one literal, its kind, and its verdict: the value it reads as, or the message
    # after "line N: " that rejects it (a format error, or a value error)
    @pytest.mark.parametrize(
        "literal, kind, verdict",
        [
            ("+5", int, 5),
            ("-0", int, "a value is not finite and above 0"),
            ("5.0", int, "'5.0' is not 1 ASCII int64 literal(s)"),
            ("1e3", int, "'1e3' is not 1 ASCII int64 literal(s)"),
            ("0x10", int, "'0x10' is not 1 ASCII int64 literal(s)"),
            ("9223372036854775807", int, 2**63 - 1),
            ("9223372036854775808", int, "'9223372036854775808' is not 1 ASCII int64 literal(s)"),
            ("+1.5", float, 1.5),
            (".5", float, 0.5),
            ("5.", float, 5.0),
            ("1e-400", float, "a value is not finite and above 0"),
            ("1e999", float, "a value is not finite and above 0"),
            ("-0.0", float, "a value is not finite and above 0"),
        ],
    )
    def test_literal_verdicts(self, literal, kind, verdict):
        if isinstance(verdict, str):
            with pytest.raises(ParameterError, match=rf"^p: line 7: {re.escape(verdict)}$"):
                parse_numbers("p", {7: literal}, kind)
        else:
            assert parse_numbers("p", {7: literal}, kind) == [verdict]

    def test_a_format_error_is_named_before_an_earlier_value_error(self):
        rows = {2: "-5", 3: "7", 4: "9223372036854775808"}
        with pytest.raises(ParameterError, match=r"^p: line 4: '9223372036854775808' is not"):
            parse_numbers("p", rows, int)


_TURKISH_WORDS = st.text("abcçdefgğhıijklmnoöprsştuüvyzâîû", min_size=1, max_size=8)
_PERIODS = st.integers(1000, 2990).map(lambda year: TimePeriod(year, year + 9))
_REALS = st.floats(allow_nan=False, allow_infinity=False)
_ROUNDTRIP = settings(max_examples=60, deadline=None)
# a word of a vector store: Turkish and circumflexed letters, perhaps a trailing NUL
_STORE_WORDS = st.builds(
    str.__add__,
    st.text("abcçdefgğhıİijklmnoöprsştuüvyzâîû", min_size=1, max_size=8),
    st.sampled_from(["", "\x00"]),
)
_SHA256 = st.binary(min_size=32, max_size=32).map(bytes.hex)


_STORE_SCHEMA = {"matrix": (2, "float64"), "words": WORDS, "label": LABEL}
_STORE_VALUES = {"matrix": np.eye(2), "words": ["kâğıt", "kitab\x00"], "label": "1930-1939"}


class TestStoreBytes:
    @pytest.mark.parametrize("order", list(itertools.permutations(_STORE_SCHEMA)))
    def test_arrays_come_in_the_schema_order_whatever_the_keyword_order(self, tmp_path, order):
        data = store_bytes(_STORE_SCHEMA, **{key: _STORE_VALUES[key] for key in order})
        path = tmp_path / "s.npz"
        path.write_bytes(data)
        with np.load(path) as store:
            assert store.files == list(_STORE_SCHEMA)
        arrays, held = read_store(path, "test store", _STORE_SCHEMA)
        assert held == data
        assert arrays["matrix"].tobytes() == np.eye(2).tobytes()
        assert arrays["words"] == {"kâğıt": 0, "kitab\x00": 1}
        assert arrays["label"] == "1930-1939"


class TestArtifactRoundTrip:
    """Write then read each format on drawn contents; the reader returns them exactly."""

    @_ROUNDTRIP
    @given(period=_PERIODS, entries=st.dictionaries(_TURKISH_WORDS, st.integers(1, 10**9)))
    def test_vocabulary(self, tmp_path_factory, period, entries):
        path = tmp_path_factory.mktemp("vocab") / "v.tsv"
        vocab = Vocabulary(period, entries)
        write_vocabulary(vocab, path)
        assert read_vocabulary(path) == vocab

    @_ROUNDTRIP
    @given(period=_PERIODS, order=st.integers(1, 3), data=st.data())
    def test_ngrams(self, tmp_path_factory, period, order, data):
        grams = st.tuples(*[_TURKISH_WORDS] * order)
        entries = data.draw(st.dictionaries(grams, st.integers(1, 10**9)))
        path = tmp_path_factory.mktemp("ngrams") / "n.tsv"
        table = NgramTable.from_entries(period, order, entries)
        write_ngrams(table, path)
        loaded = read_ngrams(path, order)
        assert (loaded.period, list(loaded.entries.items())) == (period, list(entries.items()))

    @_ROUNDTRIP
    @given(
        period=_PERIODS,
        entries=st.dictionaries(_TURKISH_WORDS, st.integers(1, 100), min_size=1),
        window=st.integers(1, 10),
        alpha=st.floats(0.1, 1.0),
        data=st.data(),
    )
    def test_ppmi(self, tmp_path_factory, period, entries, window, alpha, data):
        vocab = Vocabulary(period, entries)
        size = len(entries)
        cells = data.draw(
            st.dictionaries(
                st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)),
                st.floats(1e-9, 1e3),
            )
        )
        values = sp.csr_matrix(
            (list(cells.values()), ([i for i, _ in cells], [j for _, j in cells])),
            shape=(size, size),
        )
        index = {w: i for i, w in enumerate(row_order(entries))}
        path = tmp_path_factory.mktemp("ppmi") / "p.tsv"
        write_ppmi(PPMIMatrix(period, index, values, alpha, window), path)
        loaded = read_ppmi(path, vocab)
        assert (loaded.period, loaded.window, loaded.alpha) == (period, window, alpha)
        assert loaded.vocab_index == index
        assert np.array_equal(loaded.values.toarray(), values.toarray())

    @_ROUNDTRIP
    @given(
        period=_PERIODS,
        words=st.lists(_STORE_WORDS, min_size=1, max_size=8, unique=True),
        dim=st.integers(1, 4),
        provenance=st.sampled_from(["svd", "cbow"]),
        data=st.data(),
    )
    def test_embeddings(self, tmp_path_factory, period, words, dim, provenance, data):
        """The binary store, on words with Turkish and circumflexed letters and a trailing
        NUL (which a NumPy string array would drop)."""
        row = st.lists(_REALS, min_size=dim, max_size=dim)
        rows = data.draw(st.lists(row, min_size=len(words), max_size=len(words)))
        original = EmbeddingSet(
            period, {w: i for i, w in enumerate(words)}, np.array(rows), provenance
        )
        path = tmp_path_factory.mktemp("store") / "e.npz"
        write_embeddings(original, path)
        loaded = read_embeddings(path)
        assert (loaded.period, loaded.provenance, loaded.dim) == (period, provenance, dim)
        assert loaded.vocab_index == original.vocab_index
        assert loaded.matrix.dtype == np.float64
        assert loaded.matrix.tobytes() == original.matrix.tobytes()
        assert loaded.digest() == original.digest()

    @_ROUNDTRIP
    @given(
        periods=st.tuples(_PERIODS, _PERIODS),
        shared=st.lists(_STORE_WORDS, min_size=1, max_size=8, unique=True),
        dim=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
        fitted_on=st.tuples(_SHA256, _SHA256),
    )
    def test_transform(self, tmp_path_factory, periods, shared, dim, seed, fitted_on):
        """The binary store, on shared words with Turkish and circumflexed letters and a
        trailing NUL."""
        rotation, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(dim, dim)))
        original = AlignmentTransform(*periods, rotation, shared, fitted_on)
        path = tmp_path_factory.mktemp("transform") / "t.npz"
        write_transform(original, path)
        loaded = read_transform(path)
        assert (loaded.source_period, loaded.target_period) == periods
        assert loaded.shared_vocab == shared
        assert loaded.fitted_on == fitted_on
        assert loaded.matrix.tobytes() == rotation.tobytes()


class TestWriteArtifact:
    @pytest.mark.parametrize(
        "content", ["new text\n" * 100, b"new bytes\n" * 100], ids=["text", "bytes"]
    )
    def test_write_failing_partway_keeps_previous_artifact(self, tmp_path, monkeypatch, content):
        path = tmp_path / "reports" / "artifact.csv"
        write_artifact(path, "previous\n")

        class FullDisk(io.BufferedWriter):
            def write(self, data):
                super().write(data[: len(data) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")

        with monkeypatch.context() as patch, pytest.raises(OSError, match="No space left"):
            patch.setattr(Path, "open", lambda self, mode: FullDisk(io.FileIO(self, "w")))
            write_artifact(path, content)
        assert path.read_bytes() == b"previous\n"
        assert [p.name for p in path.parent.iterdir()] == ["artifact.csv"]

    def test_chunk_raising_midway_keeps_previous_artifact(self, tmp_path):
        path = tmp_path / "reports" / "artifact.csv"
        write_artifact(path, "previous\n")

        def chunks():
            yield "new line\n" * 1000
            raise RuntimeError("render failed")

        with pytest.raises(RuntimeError, match="render failed"):
            write_artifact(path, chunks())
        assert path.read_bytes() == b"previous\n"
        assert [p.name for p in path.parent.iterdir()] == ["artifact.csv"]

    def test_chunks_write_the_bytes_of_their_joined_text(self, tmp_path):
        chunks = ["#head\n", "", "çay\tşey\n", "ğ" * 5000, "\n"]
        write_artifact(tmp_path / "chunked.tsv", iter(chunks))
        write_artifact(tmp_path / "whole.tsv", "".join(chunks))
        expected = "".join(chunks).encode("utf-8")
        assert (tmp_path / "chunked.tsv").read_bytes() == expected
        assert (tmp_path / "whole.tsv").read_bytes() == expected

    NEW_CHUNKS = ["#head\n", "", "çay\tşey\n" * 300, "ğ" * 5000, "\n"]

    @staticmethod
    def _identity(path: Path) -> tuple[int, int, int]:
        info = path.lstat()
        return info.st_ino, info.st_mtime_ns, info.st_mode

    @pytest.mark.parametrize(
        "content",
        [
            lambda: "same text\n" * 100,
            lambda: b"same bytes\n" * 100,
            lambda: iter(TestWriteArtifact.NEW_CHUNKS),
        ],
        ids=["text", "bytes", "chunks"],
    )
    def test_identical_content_leaves_the_target_in_place(self, tmp_path, content):
        path = tmp_path / "reports" / "artifact.csv"
        write_artifact(path, content())
        expected = path.read_bytes()
        os.utime(path, ns=(10**18, 10**18))  # a rewrite could not keep this mtime
        path.chmod(0o444)  # nor this mode
        before = self._identity(path)
        write_artifact(path, content())
        assert self._identity(path) == before
        assert path.read_bytes() == expected
        assert [p.name for p in path.parent.iterdir()] == ["artifact.csv"]

    @pytest.mark.parametrize(
        "old",
        [
            lambda new: new + b"\n",
            lambda new: new[:-1],
            lambda new: new[:-1] + b"!",
            lambda new: b"",
            lambda new: b"!" + new[1:],
        ],
        ids=["longer", "shorter", "last-byte", "empty", "first-byte"],
    )
    def test_different_old_bytes_are_replaced(self, tmp_path, old):
        expected = "".join(self.NEW_CHUNKS).encode("utf-8")
        path = tmp_path / "artifact.tsv"
        path.write_bytes(old(expected))
        inode = path.stat().st_ino
        write_artifact(path, iter(self.NEW_CHUNKS))
        assert path.read_bytes() == expected
        assert path.stat().st_ino != inode
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.tsv"]

    def test_symlink_target_becomes_a_regular_file(self, tmp_path):
        pointed = tmp_path / "pointed.csv"
        pointed.write_bytes(b"same\n")  # the new bytes: a followed link would compare equal
        before = self._identity(pointed)
        path = tmp_path / "artifact.csv"
        path.symlink_to(pointed)
        write_artifact(path, "same\n")
        assert not path.is_symlink()
        assert path.read_bytes() == b"same\n"
        assert self._identity(pointed) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact.csv", "pointed.csv"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
    def test_fifo_target_is_replaced_without_waiting_for_a_writer(self, tmp_path):
        path = tmp_path / "artifact.csv"
        os.mkfifo(path)
        write_artifact(path, "")
        assert path.is_file()
        assert path.read_bytes() == b""

    def test_directory_target_raises_and_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "artifact.csv"
        (path / "inside").mkdir(parents=True)
        with pytest.raises(OSError):
            write_artifact(path, "new\n")
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.csv"]
        assert [p.name for p in path.iterdir()] == ["inside"]

    def test_chunk_raising_after_an_identical_prefix_keeps_the_target(self, tmp_path):
        path = tmp_path / "artifact.csv"
        write_artifact(path, "line\n" * 2000)
        before = self._identity(path)

        def chunks():
            yield "line\n" * 1000
            raise RuntimeError("render failed")

        with pytest.raises(RuntimeError, match="render failed"):
            write_artifact(path, chunks())
        assert self._identity(path) == before
        assert path.read_bytes() == b"line\n" * 2000
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.csv"]
