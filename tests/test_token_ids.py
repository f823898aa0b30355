"""The token-id path against the string-sequence references it replaced.

Ingest turns each document into int32 ids (rows of the vocabulary TSV, -1
for a filtered-out token), and n-grams, co-occurrences and CBOW count from
those arrays. The references below count from per-document string sequences
rebuilt from the raw texts, so the two paths stay independent.
"""

from __future__ import annotations

import io
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diacorpus.corpus import PeriodCorpus
from diacorpus.embeddings import count_cooccurrences
from diacorpus.errors import ParameterError
from diacorpus.lexicon import (
    NGRAM_ORDERS,
    NgramTable,
    Vocabulary,
    create_ngrams,
    read_token_ids,
    read_vocabulary,
    write_ngrams,
    write_token_ids,
)
from diacorpus.preprocess import FilterConfig

from conftest import (
    PERIOD_1930,
    assert_canonical,
    document_sequences,
    fixture_sequences,
    row_order,
    stored_cells,
)

LEVELS = ("lemma", "surface")


def _vocabulary(leaf, level):
    return leaf.vocabulary if level == "lemma" else leaf.surface_vocabulary


def reference_ngrams(vocab, sequences, order):
    """The string-loop n-gram count: windows inside a document, every member kept.

    Entries are sorted into written order: count descending, then gram.
    """
    counts: Counter[tuple[str, ...]] = Counter()
    for seq in sequences:
        for i in range(len(seq) - order + 1):
            gram = tuple(seq[i : i + order])
            if all(w in vocab.entries for w in gram):
                counts[gram] += 1
    return dict(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))


def reference_cooccurrences(vocab, sequences, window):
    """Directed in-window pair counts over the lemma strings of each document."""
    counts: Counter[tuple[str, str]] = Counter()
    for seq in sequences:
        for i, u in enumerate(seq):
            for v in seq[i + 1 : i + 1 + window]:
                if u in vocab.entries and v in vocab.entries:
                    counts[u, v] += 1
                    counts[v, u] += 1
    return dict(counts)


def cooccurrence_entries(matrix):
    assert_canonical(matrix.counts)
    words = {i: w for w, i in matrix.vocab_index.items()}
    return {(words[i], words[j]): int(c) for i, j, c in zip(*stored_cells(matrix.counts))}


def ngram_bytes(table, path):
    write_ngrams(table, path)
    return path.read_bytes()


class TestFixtureAgainstReference:
    @pytest.mark.parametrize("order", NGRAM_ORDERS)
    @pytest.mark.parametrize("level", LEVELS)
    def test_ngram_file_bytes(self, fixture_config, fixture_tree, tmp_path, order, level):
        for leaf in fixture_tree.leaves():
            table = create_ngrams(leaf, order, level)
            sequences = fixture_sequences(fixture_config, leaf, level)
            entries = reference_ngrams(_vocabulary(leaf, level), sequences, order)
            reference = NgramTable.from_entries(leaf.period, order, entries)
            assert list(table.entries.items()) == list(reference.entries.items())
            assert ngram_bytes(table, tmp_path / "id.tsv") == ngram_bytes(
                reference, tmp_path / "reference.tsv"
            )

    @pytest.mark.parametrize("window", [1, 2, 5])
    def test_cooccurrence_counts(self, fixture_config, fixture_tree, window):
        for leaf in fixture_tree.leaves():
            matrix = count_cooccurrences(leaf, window)
            sequences = fixture_sequences(fixture_config, leaf)
            assert cooccurrence_entries(matrix) == reference_cooccurrences(
                leaf.vocabulary, sequences, window
            )


# Words with a digit fail the alphabetic filter, so they are filtered-out
# tokens wherever they fall; divisor 1 filters every word short of all tokens.
_WORDS = ["aa", "bb", "cc", "dd", "x1", "y2"]
_documents = st.lists(st.lists(st.sampled_from(_WORDS), max_size=7), min_size=1, max_size=6)
_divisors = st.sampled_from([1, 3, 10_000_000])


def _texts(documents):
    return [" ".join(doc) for doc in documents]


def _leaf(documents, divisor):
    texts = {f"d{i}": text for i, text in enumerate(_texts(documents))}
    return PeriodCorpus.from_texts(PERIOD_1930, texts, FilterConfig(threshold_divisor=divisor))


_EDGE_CASES = [
    ([["aa", "bb"], ["cc"], ["aa", "bb", "cc"]], 10_000_000),  # documents shorter than the order
    ([["x1", "aa", "bb", "y2"], ["y2", "aa", "cc", "x1"]], 10_000_000),  # filtered at the edges
    ([["aa"], ["bb"], ["aa"], ["cc"]], 10_000_000),  # one-token documents
    ([["x1", "y2", "x1"], []], 10_000_000),  # empty vocabulary
    ([["aa", "bb", "cc", "dd"]], 1),  # empty vocabulary through the threshold
]


def _with_edge_cases(**extra):
    def decorate(test):
        for documents, divisor in _EDGE_CASES:
            test = example(documents=documents, divisor=divisor, **extra)(test)
        return test

    return decorate


class TestGeneratedLeaves:
    @settings(max_examples=80, deadline=None)
    @given(documents=_documents, divisor=_divisors)
    @_with_edge_cases()
    def test_token_ids_index_the_vocabulary_rows(self, documents, divisor):
        leaf = _leaf(documents, divisor)
        assert leaf.doc_offsets.tolist() == np.cumsum([0] + [len(d) for d in documents]).tolist()
        for level in LEVELS:
            ids = leaf.token_ids[level]
            assert ids.dtype == np.int32
            vocab = _vocabulary(leaf, level)
            rows = row_order(vocab.entries)
            sequences = document_sequences(_texts(documents), level)
            expected = [w if w in vocab else None for seq in sequences for w in seq]
            assert [rows[i] if i >= 0 else None for i in ids.tolist()] == expected

    @settings(max_examples=80, deadline=None)
    @given(documents=_documents, divisor=_divisors)
    @_with_edge_cases()
    def test_ngrams_match_reference(self, documents, divisor):
        leaf = _leaf(documents, divisor)
        for level in LEVELS:
            sequences = document_sequences(_texts(documents), level)
            for order in NGRAM_ORDERS:
                entries = create_ngrams(leaf, order, level).entries
                reference = reference_ngrams(_vocabulary(leaf, level), sequences, order)
                assert list(entries.items()) == list(reference.items())

    @settings(max_examples=80, deadline=None)
    @given(documents=_documents, divisor=_divisors, window=st.integers(1, 4))
    @_with_edge_cases(window=2)
    def test_cooccurrences_match_reference(self, documents, divisor, window):
        leaf = _leaf(documents, divisor)
        matrix = count_cooccurrences(leaf, window)
        sequences = document_sequences(_texts(documents))
        assert cooccurrence_entries(matrix) == reference_cooccurrences(
            leaf.vocabulary, sequences, window
        )


def _npy_bytes(array):
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


class TestTokenStore:
    @pytest.fixture()
    def leaf(self):
        return PeriodCorpus.from_texts(
            PERIOD_1930, {"d1": "aa bb x1 aa", "d2": "", "d3": "cc aa"}
        )

    def _reader_leaf(self, leaf):
        fresh = PeriodCorpus(leaf.period)
        fresh.vocabulary = leaf.vocabulary
        return fresh

    def _store(self, path, **arrays):
        buffer = io.BytesIO()
        np.savez(buffer, **arrays)
        path.write_bytes(buffer.getvalue())
        return path

    def test_roundtrip(self, leaf, tmp_path):
        path = tmp_path / "tokens" / "1930-1939.npz"
        write_token_ids(leaf, path)
        loaded = self._reader_leaf(leaf)
        read_token_ids(path, loaded)
        assert loaded.token_ids["lemma"].dtype == np.int32
        assert np.array_equal(loaded.token_ids["lemma"], leaf.token_ids["lemma"])
        assert np.array_equal(loaded.doc_offsets, leaf.doc_offsets)
        assert create_ngrams(loaded, 2).entries == create_ngrams(leaf, 2).entries

    def test_bytes_are_deterministic(self, leaf, tmp_path):
        write_token_ids(leaf, tmp_path / "a.npz")
        write_token_ids(leaf, tmp_path / "b.npz")
        assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()

    def test_missing_store_names_the_file(self, leaf, tmp_path):
        # the CLI checks presence first (``cli._existing``: exit 3, run ingest);
        # the library reader treats an absent file as an unreadable one
        path = tmp_path / "absent.npz"
        with pytest.raises(ParameterError, match=re.escape(f"{path}: unreadable token store")):
            read_token_ids(path, self._reader_leaf(leaf))

    @pytest.mark.parametrize(
        "arrays",
        [
            {"lemma": np.array([0, 1, -1, 0, 2, 0], dtype=np.int64),
             "offsets": np.array([0, 4, 4, 6])},
            {"lemma": np.array([[0, 1, -1], [0, 2, 0]], dtype=np.int32),
             "offsets": np.array([0, 6])},
            {"lemma": np.array([0, 1, -1, 0, 2, 0], dtype=">i4"),
             "offsets": np.array([0, 4, 4, 6])},
            {"lemma": np.array([0, 1, -1, 0, 2, 0], dtype=np.int32),
             "offsets": np.array([0, 4, 3, 6])},
            {"lemma": np.array([0, 1, -1, 0, 2, 0], dtype=np.int32),
             "offsets": np.array([0, 4, 3, 6], dtype=np.uint64)},
            {"lemma": np.array([0, 1, -1, 0, 2, 0], dtype=np.int32),
             "offsets": np.array([1, 4, 4, 6])},
            {"lemma": np.array([0, 1, -1, 0, 2, 0], dtype=np.int32),
             "offsets": np.array([0, 4, 4, 5])},
            {"lemma": np.array([0, 1, -1, 0, 2, 0], dtype=np.int32),
             "offsets": np.array([0.0, 4.0, 4.0, 6.0])},
            {"lemma": np.array([0, 1, -2, 0, 2, 0], dtype=np.int32),
             "offsets": np.array([0, 4, 4, 6])},
            {"lemma": np.array([0, 1, -1, 0, 3, 0], dtype=np.int32),
             "offsets": np.array([0, 4, 4, 6])},
            # valid shape and range, but not this vocabulary's counts
            {"lemma": np.array([0, 1, -1, 1, 2, 0], dtype=np.int32),
             "offsets": np.array([0, 4, 4, 6])},
            {"lemma": np.array([0, 1, -1, 0, 2, 0], dtype=np.int32)},
        ],
        ids=["int64-ids", "2d-ids", "byte-swapped-ids", "falling-offsets",
             "falling-unsigned-offsets", "offsets-not-from-0", "offsets-short-of-end",
             "float-offsets", "id-below-minus-1", "id-past-vocabulary", "counts-differ",
             "no-offsets"],
    )
    def test_malformed_store_is_parameter_error(self, leaf, tmp_path, arrays):
        path = self._store(tmp_path / "bad.npz", **arrays)
        with pytest.raises(ParameterError, match="bad.npz"):
            read_token_ids(path, self._reader_leaf(leaf))

    @pytest.mark.parametrize(
        "content",
        [b"", b"not an archive", b"PK\x03\x04truncated", _npy_bytes(np.zeros(3, np.int32))],
        ids=["empty", "text", "truncated-zip", "npy-not-npz"],
    )
    def test_unreadable_store_is_parameter_error(self, leaf, tmp_path, content):
        path = tmp_path / "bad.npz"
        path.write_bytes(content)
        with pytest.raises(ParameterError, match="bad.npz"):
            read_token_ids(path, self._reader_leaf(leaf))

    def test_truncated_store_is_parameter_error(self, leaf, tmp_path):
        path = tmp_path / "cut.npz"
        write_token_ids(leaf, path)
        path.write_bytes(path.read_bytes()[:-40])
        with pytest.raises(ParameterError, match="cut.npz"):
            read_token_ids(path, self._reader_leaf(leaf))


class TestVocabularyFileErrors:
    @pytest.mark.parametrize(
        "body,line",
        [
            ("aa\t2\nbb 1\n", 3),
            ("aa\ttwo\n", 2),
            ("aa\t2\t3\n", 2),
            ("aa\t3\nbb\t\n", 3),
            ("aa\t1 2\n", 2),
            ("\t2\nbb\t1\n", 2),
            ("a b\t2\nbb\t1\n", 2),
            ("aa\t2\nb\x85b\t1\n", 3),
            ("aa\t2\nb\u2028b\t1\n", 3),
            ("a\x0cb\t2\nbb\t1\n", 2),
        ],
        ids=[
            "no-tab", "non-integer-count", "extra-column", "empty-count", "two-counts",
            "empty-word", "spaced-word", "word-with-nel", "word-with-line-separator",
            "word-with-form-feed",
        ],
    )
    def test_bad_line_names_file_and_line(self, tmp_path, body, line):
        path = tmp_path / "v.tsv"
        path.write_text("#period=1930-1939 #tokens=3\n" + body, encoding="utf-8")
        with pytest.raises(ParameterError, match=rf"v\.tsv: line {line}\b") as raised:
            read_vocabulary(path)
        assert "at row" not in str(raised.value)  # no row or column of numpy's own

    @pytest.mark.parametrize(
        "header", ["#period=1930-1939", "#period=1930-1939 #tokens=many", "#period=1930-1939 #x"]
    )
    def test_bad_header(self, tmp_path, header):
        path = tmp_path / "v.tsv"
        path.write_text(header + "\naa\t3\n", encoding="utf-8")
        with pytest.raises(ParameterError, match=r"v\.tsv: line 1"):
            read_vocabulary(path)

    def test_well_formed_file_still_loads(self, tmp_path):
        path = tmp_path / "v.tsv"
        path.write_text("#period=1930-1939 #tokens=3\naa\t2\n\nbb\t1\n", encoding="utf-8")
        assert read_vocabulary(path) == Vocabulary(PERIOD_1930, {"aa": 2, "bb": 1})
