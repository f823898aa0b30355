import json
import math
import unicodedata
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diacorpus import lexicon
from diacorpus.corpus import CHUNK_VALUES, PeriodCorpus, TimePeriod
from diacorpus.errors import MissingArtifactError, ParameterError
from diacorpus.lexicon import (
    NgramTable,
    Vocabulary,
    _gram_keys,
    cofrequency,
    common_words,
    create_ngrams,
    create_vocabulary,
    exists,
    frequency,
    merge_vocabulary,
    morpheme_frequency,
    read_ngrams,
    read_vocabulary,
    vocab_metrics,
    words_matching,
    write_ngrams,
    write_vocabulary,
)
from diacorpus.preprocess import FilterConfig

from conftest import FIXTURES, PERIOD_1930, PERIOD_1980, series_values


# ---------------------------------------------------------------------------
# Independent recount oracle for the bundled fixture: its own tokenizer,
# case folding, stemming and filtering, written without reusing the library.
# ---------------------------------------------------------------------------


def _oracle_fold(text):
    return "".join("i" if c == "İ" else "ı" if c == "I" else c.lower() for c in text)


def _oracle_tokens(text):
    tokens = []
    for chunk in text.replace("­", "").split():
        kinds = [unicodedata.category(c)[0] in ("P", "S") for c in chunk]
        if all(kinds):
            tokens.append(chunk)
            continue
        first = kinds.index(False)
        last = len(kinds) - 1 - kinds[::-1].index(False)
        if first > 0:
            tokens.append(chunk[:first])
        tokens.append(chunk[first : last + 1])
        if last < len(chunk) - 1:
            tokens.append(chunk[last + 1 :])
    return tokens


def _oracle_analyzer_table():
    table = {}
    for line in (FIXTURES / "analyzer_stub.tsv").read_text(encoding="utf-8").splitlines():
        if line:
            surface, stem = line.split("\t")
            table[surface] = stem
    return table


def oracle_vocabulary(period_tag):
    """Recount one fixture period's filtered lemma vocabulary from the raw docs."""
    manifest = json.loads(
        (FIXTURES / "mini_corpus" / "manifest.json").read_text(encoding="utf-8")
    )
    table = _oracle_analyzer_table()
    counts = Counter()
    n_raw = 0
    for entry in manifest:
        if not entry["id"].startswith(f"doc-{period_tag}"):
            continue
        text = (FIXTURES / "mini_corpus" / entry["path"]).read_text(encoding="utf-8")
        for token in _oracle_tokens(text):
            n_raw += 1
            stem = table.get(token) or table.get(_oracle_fold(token))
            if stem is None:
                stem = _oracle_fold(token)[:5]
            counts[stem] += 1
    cut = math.ceil(n_raw / 2500)
    filtered = {
        w: c for w, c in counts.items() if c >= cut and w.isalpha()
    }
    return filtered, sum(filtered.values())


class TestCreateVocabulary:
    def test_counts_by_hand(self):
        leaf = PeriodCorpus.from_texts(PERIOD_1930, {"d1": "yıl yıl sene"})
        vocab = create_vocabulary(leaf)
        assert vocab.entries == {"yıl": 2, "sene": 1}
        assert vocab.token_total == 3

    def test_empty_leaf(self):
        leaf = PeriodCorpus.from_texts(PERIOD_1930, {"d1": ""})
        vocab = create_vocabulary(leaf)
        assert vocab.entries == {}
        assert vocab.token_total == 0

    def test_not_preprocessed_raises(self):
        leaf = PeriodCorpus(PERIOD_1930)
        for level in ("lemma", "surface"):
            message = f"no {level} vocabulary for period 1930-1939"
            with pytest.raises(MissingArtifactError, match=message) as info:
                create_vocabulary(leaf, level)
            assert info.value.needed_command == "ingest"

    def test_unknown_level_raises(self):
        leaf = PeriodCorpus(PERIOD_1930)
        with pytest.raises(ParameterError, match="unknown level 'stem'"):
            create_vocabulary(leaf, "stem")

    def test_vocabulary_only_leaf(self):
        # the shape of a leaf rebuilt from ingest's vocabulary artifact
        from diacorpus.cbow import train_cbow
        from diacorpus.embeddings import count_cooccurrences

        leaf = PeriodCorpus(PERIOD_1930)
        leaf.vocabulary = Vocabulary(PERIOD_1930, {"yıl": 2, "sene": 1})
        assert create_vocabulary(leaf) is leaf.vocabulary
        for build in (
            lambda: create_ngrams(leaf, 1),
            lambda: count_cooccurrences(leaf),
            lambda: train_cbow(leaf, dim=4),
            lambda: cofrequency(_tree_of(leaf), "yıl", "sene"),
            lambda: vocab_metrics(_tree_of(leaf)),
        ):
            with pytest.raises(MissingArtifactError) as info:
                build()
            assert info.value.needed_command == "ingest"

    @pytest.mark.parametrize("tag,period", [("1930s", PERIOD_1930), ("1980s", PERIOD_1980)])
    def test_fixture_matches_independent_recount(self, fixture_tree, tag, period):
        expected_entries, expected_total = oracle_vocabulary(tag)
        leaf = next(l for l in fixture_tree.leaves() if l.period == period)
        assert leaf.vocabulary.entries == expected_entries
        assert leaf.vocabulary.token_total == expected_total


class TestGramKeys:
    """The int64 gram key orders rows of rank columns as ``np.lexsort`` does."""

    @pytest.mark.parametrize("size", [3, 2**21 - 1, 2**21, 2**31])
    def test_keys_sort_as_lexsort(self, size):
        rng = np.random.default_rng(size)
        columns = [rng.integers(0, size, 3000) for _ in range(3)]
        # repeated rows and the extreme ranks, so runs and the top of the range occur
        columns = [np.concatenate([c, c[:50], [0, size - 1, size - 1]]) for c in columns]
        keys = _gram_keys(columns, size)
        assert keys.dtype == np.int64 and keys.min() >= 0
        assert np.array_equal(np.argsort(keys, kind="stable"), np.lexsort(columns[::-1]))
        assert len(np.unique(keys)) == len(np.unique(np.stack(columns, axis=1), axis=0))
        if size < 2**21:  # no fold can overflow, so the keys are the plain fold
            assert np.array_equal(keys, (columns[0] * size + columns[1]) * size + columns[2])

    @pytest.mark.parametrize("rows", [0, 1])
    def test_zero_and_one_window(self, rows):
        columns = [np.full(rows, 2**21 - 1, dtype=np.int64) for _ in range(3)]
        keys = _gram_keys(columns, 2**21)
        assert keys.dtype == np.int64 and len(keys) == rows and np.all(keys >= 0)


class TestNgrams:
    def test_sliding_window(self):
        leaf = PeriodCorpus.from_texts(PERIOD_1930, {"d1": "aa bb cc"})
        table = create_ngrams(leaf, 2)
        assert table.entries == {("aa", "bb"): 1, ("bb", "cc"): 1}

    def test_too_short_document(self):
        leaf = PeriodCorpus.from_texts(PERIOD_1930, {"d1": "aa"})
        assert create_ngrams(leaf, 3).entries == {}

    def test_windows_do_not_cross_documents(self):
        leaf = PeriodCorpus.from_texts(PERIOD_1930, {"d1": "aa bb", "d2": "cc dd"})
        table = create_ngrams(leaf, 2)
        assert ("bb", "cc") not in table.entries

    def test_invalid_order(self):
        leaf = PeriodCorpus.from_texts(PERIOD_1930, {"d1": "aa bb"})
        with pytest.raises(ParameterError):
            create_ngrams(leaf, 4)

    def test_unigram_totals_equal_token_total(self, fixture_tree):
        for leaf in fixture_tree.leaves():
            for level in ("lemma", "surface"):
                table = create_ngrams(leaf, 1, level)
                vocab = leaf.vocabulary if level == "lemma" else leaf.surface_vocabulary
                assert table.total() == vocab.token_total


class TestExistsAndFrequency:
    def test_exists_over_fixture(self, fixture_tree):
        series = exists(fixture_tree, "televizyon")
        assert series_values(series) == [False, True]

    def test_absent_everywhere(self, fixture_tree):
        series = exists(fixture_tree, "yok")
        assert series_values(series) == [False, False]

    def test_absent_word_has_zero_frequency(self, fixture_tree):
        series = frequency(fixture_tree, "yok")
        assert series_values(series) == [0, 0]

    def test_unknown_period_rejected(self, fixture_tree):
        with pytest.raises(ParameterError, match="1800-1809"):
            exists(fixture_tree, "kanun", [TimePeriod(1800, 1809)])

    def test_normalized_by_hand(self):
        leaf = PeriodCorpus.from_texts(PERIOD_1930, {"d1": "yıl yıl kış güz"})
        series = frequency(_tree_of(leaf), "yıl", normalize=True)
        assert series_values(series) == [0.5]

    def test_fixture_replacement_pair_crosses_over(self, fixture_tree):
        gerek = series_values(frequency(fixture_tree, "gerek", normalize=True))
        mucip = series_values(frequency(fixture_tree, "mucip", normalize=True))
        assert mucip[0] > gerek[0]
        assert gerek[1] > mucip[1]
        assert mucip[1] == 0.0

    def test_exists_iff_positive_frequency(self, fixture_tree):
        for word in ("gerek", "mucip", "televizyon", "yok", "kanun"):
            e = series_values(exists(fixture_tree, word))
            f = series_values(frequency(fixture_tree, word))
            assert e == [v > 0 for v in f]

    def test_normalized_frequencies_sum_to_one(self, fixture_tree):
        for leaf in fixture_tree.leaves():
            total = sum(
                series_values(frequency(_tree_of(leaf), w, normalize=True))[0]
                for w in leaf.vocabulary.entries
            )
            assert total == pytest.approx(1.0, abs=1e-12)


class TestTokenTotal:
    def test_total_is_the_sum_of_the_entries(self):
        assert Vocabulary(PERIOD_1930, {"a": 2, "b": 1}).token_total == 3
        assert Vocabulary(PERIOD_1930, {}).token_total == 0

    def test_merged_total_is_the_sum_of_the_merged_entries(self):
        merged = Vocabulary(PERIOD_1930, {"a": 2, "b": 1}).merged_with(
            Vocabulary(PERIOD_1980, {"b": 4, "c": 5})
        )
        assert merged.token_total == sum(merged.entries.values()) == 12


class TestMergeVocabulary:
    def test_entrywise_sum(self):
        a = Vocabulary(PERIOD_1930, {"a": 1})
        b = Vocabulary(PERIOD_1980, {"a": 2, "b": 1})
        merged = a.merged_with(b)
        assert merged.entries == {"a": 3, "b": 1}
        assert merged.token_total == 4
        assert merged.period == TimePeriod(1930, 1989)

    def test_single_period_is_identity(self, fixture_tree):
        leaf = fixture_tree.leaves()[0]
        assert merge_vocabulary(fixture_tree, [leaf.period]) is leaf.vocabulary

    def test_order_independent(self, fixture_tree):
        p = [l.period for l in fixture_tree.leaves()]
        forward = merge_vocabulary(fixture_tree, p)
        backward = merge_vocabulary(fixture_tree, list(reversed(p)))
        assert forward.entries == backward.entries
        assert forward.token_total == backward.token_total
        assert forward.period == backward.period == TimePeriod(1930, 1989)

    def test_associative(self):
        a = Vocabulary(TimePeriod(1920, 1929), {"aa": 1, "bb": 2})
        b = Vocabulary(PERIOD_1930, {"bb": 5, "cc": 1})
        c = Vocabulary(PERIOD_1980, {"aa": 4, "cc": 9})
        left = a.merged_with(b).merged_with(c)
        right = a.merged_with(b.merged_with(c))
        assert left.entries == right.entries
        assert left.token_total == right.token_total
        assert left.period == right.period


class TestVocabMetrics:
    def test_average_word_length_by_hand(self):
        leaf = PeriodCorpus.from_texts(PERIOD_1930, {"d1": "ab abc abc"})
        metrics = vocab_metrics(_tree_of(leaf))
        assert series_values(metrics["average_word_length"]) == [2.5]

    def test_leaf_whose_filter_keeps_no_word_has_zero_average_length(self):
        # a threshold divisor of 1 puts the frequency floor at the token count itself
        leaf = PeriodCorpus.from_texts(
            PERIOD_1930, {"d": "a b c"}, FilterConfig(threshold_divisor=1)
        )
        assert leaf.vocabulary.entries == {}
        metrics = vocab_metrics(_tree_of(leaf))
        assert series_values(metrics["unique_word_count"]) == [0]
        assert series_values(metrics["average_word_length"]) == [0.0]

    def test_one_period_gives_one_entry_series(self):
        leaf = PeriodCorpus.from_texts(PERIOD_1930, {"d1": "ab abc abc"})
        metrics = vocab_metrics(_tree_of(leaf))
        assert metrics["unique_word_count"] == [(PERIOD_1930, 2)]
        assert metrics["average_word_length"] == [(PERIOD_1930, 2.5)]
        assert metrics["ngram_count"] == [(PERIOD_1930, 3)]
        assert metrics["common_words"] == {"ab", "abc"}

    def test_common_words_disjoint(self):
        tree = _tree_of(
            PeriodCorpus.from_texts(PERIOD_1930, {"d": "aa bb"}),
            PeriodCorpus.from_texts(PERIOD_1980, {"d": "cc dd"}),
        )
        assert common_words(tree) == set()

    def test_fixture_metrics_against_recount(self, fixture_tree):
        metrics = vocab_metrics(fixture_tree)
        for leaf, count in zip(fixture_tree.leaves(), series_values(metrics["unique_word_count"])):
            assert count == len(leaf.vocabulary.entries)
        for leaf, avg in zip(fixture_tree.leaves(), series_values(metrics["average_word_length"])):
            expected = sum(map(len, leaf.vocabulary.entries)) / len(leaf.vocabulary.entries)
            assert avg == pytest.approx(expected)
        expected_common = set(fixture_tree.leaves()[0].vocabulary.entries) & set(
            fixture_tree.leaves()[1].vocabulary.entries
        )
        assert metrics["common_words"] == expected_common


class TestWordsMatchingAndMorphemes:
    def test_suffix_match(self):
        leaf = PeriodCorpus.from_texts(PERIOD_1930, {"d1": "kitab kitap kitap"})
        series = words_matching(_tree_of(leaf), "suffix", "b")
        assert series_values(series) == [{"kitab"}]

    def test_prefix_tele_on_fixture(self, fixture_tree):
        series = words_matching(fixture_tree, "prefix", "tele")
        assert series_values(series) == [set(), {"televizyon"}]

    def test_empty_pattern_rejected(self, fixture_tree):
        with pytest.raises(ParameterError):
            words_matching(fixture_tree, "prefix", "")

    def test_morpheme_rate_by_hand(self):
        # one circumflex per lemma occurrence, frequency 2, in a 4-token corpus
        leaf = PeriodCorpus.from_texts(PERIOD_1930, {"d1": "kâğıt kâğıt kalem uç"})
        series = morpheme_frequency(_tree_of(leaf), "â")
        assert series_values(series) == [pytest.approx(2 / 4 * 1_000_000)]


class TestCoFrequency:
    def test_single_pair(self):
        leaf = PeriodCorpus.from_texts(PERIOD_1930, {"d1": "aa bb"})
        series = cofrequency(_tree_of(leaf), "aa", "bb")
        assert series_values(series) == [1]

    def test_symmetric(self, fixture_tree):
        uv = series_values(cofrequency(fixture_tree, "kanun", "madde"))
        vu = series_values(cofrequency(fixture_tree, "madde", "kanun"))
        assert uv == vu
        assert uv[0] > 0

    @pytest.mark.parametrize("window", [1, 2, 3])
    def test_equals_the_matrix_cell_for_every_pair(self, fixture_tree, window):
        from diacorpus.embeddings import count_cooccurrences

        matrices = [count_cooccurrences(leaf, window) for leaf in fixture_tree.leaves()]
        words = sorted({w for leaf in fixture_tree.leaves() for w in leaf.vocabulary.entries})
        words += ["yokkelime"]  # in no period's vocabulary
        assert words[-1] not in words[:-1]
        for u in words:
            for v in words:
                expected = [matrix.pair_count(u, v) for matrix in matrices]
                series = cofrequency(fixture_tree, u, v, window=window)
                assert series_values(series) == expected, (u, v)

    def test_a_word_with_itself_counts_twice(self):
        leaf = PeriodCorpus.from_texts(PERIOD_1930, {"d1": "aa aa bb", "d2": "aa"})
        assert series_values(cofrequency(_tree_of(leaf), "aa", "aa", window=1)) == [2]
        assert series_values(cofrequency(_tree_of(leaf), "aa", "bb", window=1)) == [1]
        assert series_values(cofrequency(_tree_of(leaf), "aa", "aa", window=5)) == [2]

    @pytest.mark.filterwarnings("error")
    def test_leaf_with_every_token_filtered_out(self):
        leaf = PeriodCorpus.from_texts(PERIOD_1930, {"d1": "12 34 56 78"})
        assert leaf.vocabulary.entries == {}
        assert series_values(cofrequency(_tree_of(leaf), "aa", "bb")) == [0]

    @pytest.mark.parametrize("word", ["aa", "yokkelime"])
    def test_window_below_one_is_an_error(self, word):
        leaf = PeriodCorpus.from_texts(PERIOD_1930, {"d1": "aa bb"})
        with pytest.raises(ParameterError, match="window must be at least 1"):
            cofrequency(_tree_of(leaf), word, "bb", window=0)


def test_queries_store_nothing_on_the_leaf():
    from diacorpus.embeddings import build_ppmi, count_cooccurrences

    leaf = PeriodCorpus.from_texts(PERIOD_1930, {"d1": "aa bb cc aa bb", "d2": "bb cc aa"})

    def state():
        # containers are copied, so a cache filled in place shows as a change
        return {k: dict(v) if isinstance(v, dict) else v for k, v in vars(leaf).items()}

    before = state()
    create_ngrams(leaf, 2)
    build_ppmi(count_cooccurrences(leaf))
    cofrequency(_tree_of(leaf), "aa", "bb")
    morpheme_frequency(_tree_of(leaf), "a")
    vocab_metrics(_tree_of(leaf), ngram_order=2)
    assert state() == before


# short words over 'a' and Turkish letters of two UTF-8 bytes, so equal counts are common
_REFERENCE_WORDS = st.text("aıİğâ", min_size=1, max_size=3)


class TestFileFormats:
    def test_vocabulary_roundtrip(self, tmp_path, fixture_tree):
        leaf = fixture_tree.leaves()[0]
        path = tmp_path / "vocab.tsv"
        write_vocabulary(leaf.vocabulary, path)
        loaded = read_vocabulary(path)
        assert loaded.entries == leaf.vocabulary.entries
        assert loaded.token_total == leaf.vocabulary.token_total
        assert loaded.period == leaf.period

    def test_vocabulary_file_sorted_by_frequency_then_word(self, tmp_path):
        vocab = Vocabulary(PERIOD_1930, {"bb": 2, "aa": 2, "cc": 5})
        path = tmp_path / "vocab.tsv"
        write_vocabulary(vocab, path)
        body = path.read_text(encoding="utf-8").splitlines()[1:]
        assert body == ["cc\t5", "aa\t2", "bb\t2"]

    def test_vocabulary_entries_in_row_order(self):
        vocab = Vocabulary(PERIOD_1930, {"bb": 2, "dd": 1, "aa": 2, "cc": 5})
        assert list(vocab.entries.items()) == [("cc", 5), ("aa", 2), ("bb", 2), ("dd", 1)]

    def test_shuffled_vocabulary_file_reads_in_row_order(self, tmp_path):
        canonical = "#period=1930-1939 #tokens=10\ncc\t5\naa\t2\nbb\t2\ndd\t1\n"
        shuffled = tmp_path / "shuffled.tsv"
        shuffled.write_text("#period=1930-1939 #tokens=10\nbb\t2\ndd\t1\ncc\t5\naa\t2\n",
                            encoding="utf-8")
        vocab = read_vocabulary(shuffled)
        assert list(vocab.entries) == ["cc", "aa", "bb", "dd"]
        write_vocabulary(vocab, tmp_path / "written.tsv")
        assert (tmp_path / "written.tsv").read_bytes() == canonical.encode("utf-8")

    def test_ngram_roundtrip(self, tmp_path):
        leaf = PeriodCorpus.from_texts(PERIOD_1930, {"d1": "aa bb aa bb"})
        table = create_ngrams(leaf, 2)
        path = tmp_path / "grams.tsv"
        write_ngrams(table, path)
        loaded = read_ngrams(path, 2)
        assert loaded.entries == table.entries

    @pytest.mark.parametrize("count", [0, CHUNK_VALUES, CHUNK_VALUES + 1])
    def test_streamed_ngrams_equal_the_one_string_render(self, tmp_path, count):
        words = [f"w{i}" for i in range(200)]
        grams = [(words[i % 200], words[i // 200], "çay") for i in range(count)]
        table = NgramTable.from_entries(PERIOD_1930, 3, dict(zip(grams, range(count + 7, 7, -1))))
        path = tmp_path / "grams.tsv"
        write_ngrams(table, path)
        lines = [f"#period=1930-1939 #tokens={table.total()}"]
        for gram, freq in table.entries.items():
            lines.append(f"{' '.join(gram)}\t{freq}")
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")

    @settings(max_examples=150, deadline=None)
    @example(order=2, rows=[], chunk=2)  # an empty table
    @example(  # one run of equal counts, across a chunk edge
        order=3, rows=[(("ı", "İ", "ğ"), 4), (("â", "a", "ı"), 4), (("ğ", "â", "â"), 4)], chunk=2
    )
    @given(
        order=st.integers(1, 3),
        rows=st.lists(st.tuples(st.tuples(*[_REFERENCE_WORDS] * 3), st.integers(1, 3)), max_size=12),
        chunk=st.sampled_from([2, CHUNK_VALUES]),
    )
    def test_writers_match_the_one_row_reference(self, tmp_path_factory, order, rows, chunk):
        entries: dict = {}
        for gram, count in rows:
            entries.setdefault(gram[:order], count)
        written = dict(sorted(entries.items(), key=lambda kv: (-kv[1], kv[0])))
        header = f"#period=1930-1939 #tokens={sum(written.values())}"
        lines = [header] + [f"{' '.join(gram)}\t{count}" for gram, count in written.items()]
        expected = ("\n".join(lines) + "\n").encode("utf-8")
        folder = tmp_path_factory.mktemp("counts")
        with mock.patch.object(lexicon, "CHUNK_VALUES", chunk):
            write_ngrams(NgramTable.from_entries(PERIOD_1930, order, written), folder / "n.tsv")
            if order == 1:
                words = {gram[0]: count for gram, count in written.items()}
                vocab = Vocabulary(PERIOD_1930, words)
                write_vocabulary(vocab, folder / "v.tsv")
        assert (folder / "n.tsv").read_bytes() == expected
        assert read_ngrams(folder / "n.tsv", order).entries == written
        if order == 1:
            assert (folder / "v.tsv").read_bytes() == expected
            assert read_vocabulary(folder / "v.tsv").entries == words

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda line: line.replace("\t", "\tnotanumber"),  # non-numeric count
            lambda line: line.replace("\t", " "),  # the count field missing
            lambda line: line + "\t1",  # a field too many
            lambda line: "aa\t" + line.split("\t")[1],  # a gram of the wrong order
            lambda line: " " + line.split(" ", 1)[1],  # an empty member
            lambda line: line.replace(" ", " a\x85"),  # a member holding whitespace
        ],
    )
    def test_corrupt_ngram_line_names_file_and_line(self, tmp_path, corrupt):
        leaf = PeriodCorpus.from_texts(PERIOD_1930, {"d1": "aa bb aa bb"})
        path = tmp_path / "grams.tsv"
        write_ngrams(create_ngrams(leaf, 2), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[1] = corrupt(lines[1])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ParameterError, match=r"grams\.tsv: line 2\b"):
            read_ngrams(path, 2)


def _tree_of(*leaves):
    from diacorpus.corpus import DiachronicCorpus

    return DiachronicCorpus(list(leaves))
