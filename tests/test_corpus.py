import datetime as dt
import errno
import json
from pathlib import Path

import numpy as np
import pytest

from diacorpus.corpus import (
    DiachronicCorpus,
    DocumentRecord,
    PeriodCorpus,
    PerPeriodOperation,
    TimePeriod,
    TimeSeriesResult,
    build_corpus_tree,
    csv_table,
    decade_bucket,
    load_manifest,
    parse_manifest,
    write_artifact,
)
from diacorpus.errors import IngestError, ParameterError
from diacorpus.alignment import read_transform
from diacorpus.embeddings import read_embeddings, read_ppmi
from diacorpus.lexicon import UniqueWordCount, Vocabulary, read_ngrams, read_vocabulary

from conftest import FIXTURES, PERIOD_1930, PERIOD_1980


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


class TestTreeConstruction:
    def test_overlapping_children_rejected(self):
        with pytest.raises(ParameterError):
            DiachronicCorpus(
                [PeriodCorpus(TimePeriod(1930, 1949)), PeriodCorpus(TimePeriod(1940, 1959))]
            )

    def test_composite_period_spans_children(self):
        tree = DiachronicCorpus([PeriodCorpus(PERIOD_1980), PeriodCorpus(PERIOD_1930)])
        assert tree.period == TimePeriod(1930, 1989)
        assert [c.period for c in tree.children] == [PERIOD_1930, PERIOD_1980]

    def test_nested_composites_flatten_in_period_order(self):
        inner = DiachronicCorpus([PeriodCorpus(TimePeriod(1940, 1949)), PeriodCorpus(PERIOD_1980)])
        outer = DiachronicCorpus([inner, PeriodCorpus(PERIOD_1930)])
        assert [l.period.start_year for l in outer.leaves()] == [1930, 1940, 1980]


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

    def test_duplicate_id(self):
        with pytest.raises(IngestError, match="duplicate"):
            parse_manifest(
                '[{"id": "a", "date": "1930-01-01", "path": "x"},'
                ' {"id": "a", "date": "1931-01-01", "path": "y"}]'
            )

    def test_unreadable_document_names_id(self, tmp_path):
        with pytest.raises(IngestError, match="'gone'"):
            build_corpus_tree([_record("gone", 1935, "missing.txt")], corpus_root=tmp_path)

    def test_missing_manifest_file(self, tmp_path):
        with pytest.raises(IngestError):
            load_manifest(tmp_path)


class TestPerform:
    def test_on_leaf_returns_scalar(self, fixture_tree):
        leaf = fixture_tree.leaves()[0]
        count = leaf.perform(UniqueWordCount())
        assert count == len(leaf.vocabulary.entries)

    def test_on_composite_returns_series(self, fixture_tree):
        result = fixture_tree.perform(UniqueWordCount())
        assert isinstance(result, TimeSeriesResult)
        assert result.periods() == [PERIOD_1930, PERIOD_1980]

    def test_composite_equals_per_leaf_concatenation(self, fixture_tree):
        series = fixture_tree.perform(UniqueWordCount())
        manual = [(l.period, l.perform(UniqueWordCount())) for l in fixture_tree.leaves()]
        assert series.entries == manual

    def test_aggregation_matches_sequential_sum(self, fixture_tree):
        class TotalDocuments(PerPeriodOperation):
            def on_period(self, corpus):
                return corpus.stats.document_count

            def on_diachronic(self, corpus):
                return sum(child.perform(self) for child in corpus.children)

        total = fixture_tree.perform(TotalDocuments())
        expected = sum(l.stats.document_count for l in fixture_tree.leaves())
        assert total == expected == 100


class TestDeterminismAndStats:
    def test_rebuild_is_bit_identical_in_stats(self, fixture_config):
        from diacorpus.cli import _ingest_tree

        first = _ingest_tree(fixture_config)
        second = _ingest_tree(fixture_config)
        for a, b in zip(first.leaves(), second.leaves()):
            assert a.stats == b.stats
            assert a.vocabulary.entries == b.vocabulary.entries

    def test_raw_token_count_equals_sum_of_document_counts(self, fixture_tree):
        for leaf in fixture_tree.leaves():
            per_doc = sum(len(seq) for seq in leaf.surface_sequences)
            assert leaf.stats.token_count_raw == per_doc

    def test_stats_consistency(self, fixture_tree):
        for leaf in fixture_tree.leaves():
            stats = leaf.stats
            assert stats.token_count_filtered <= stats.token_count_raw
            assert stats.avg_tokens_per_document == pytest.approx(
                stats.token_count_raw / stats.document_count
            )


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
            lambda path: read_ppmi(path, Vocabulary(PERIOD_1930, {"aa": 1}, 1)),
            read_embeddings,
            read_transform,
        ],
        ids=["vocabulary", "ngrams", "ppmi", "embeddings", "transform"],
    )
    def test_non_utf8_artifact_is_parameter_error_naming_the_file(self, tmp_path, read):
        path = tmp_path / "artifact.txt"
        path.write_bytes(b"#period=1930-1939 #tokens=1\naa\xff\t1\n")
        with pytest.raises(ParameterError, match=r"artifact\.txt: not a UTF-8 text file"):
            read(path)


class TestWriteArtifact:
    @pytest.mark.parametrize(
        "content", ["new text\n" * 100, b"new bytes\n" * 100], ids=["text", "bytes"]
    )
    def test_write_failing_partway_keeps_previous_artifact(self, tmp_path, monkeypatch, content):
        path = tmp_path / "reports" / "artifact.csv"
        write_artifact(path, "previous\n")

        def fail_partway(self, data, *args, **kwargs):
            raw = data.encode("utf-8") if isinstance(data, str) else data
            with open(self, "wb") as fh:
                fh.write(raw[: len(raw) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(Path, "write_text", fail_partway)
        monkeypatch.setattr(Path, "write_bytes", fail_partway)
        with pytest.raises(OSError, match="No space left"):
            write_artifact(path, content)
        assert path.read_bytes() == b"previous\n"
        assert [p.name for p in path.parent.iterdir()] == ["artifact.csv"]
