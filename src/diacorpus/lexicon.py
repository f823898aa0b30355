"""Per-period vocabularies, n-gram tables, and count/frequency/pattern queries.

The range queries read lemma-level vocabularies; a case-folded surface-level
table is kept alongside for n-grams and the writing-convention analyses. A
vocabulary's ``entries`` are in row order, which token ids, n-gram ranks and
every matrix share. Each range query computes its per-period values from the
leaves and stores nothing on them. An n-gram table is arrays (``NgramTable``);
its ``entries`` dict is built on demand, never by ingest, and
``NgramTable.from_entries`` inverts it.

numpy is imported inside the functions that build or read arrays, so reading
a vocabulary and its range queries need only the standard library.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from .corpus import (
    CHUNK_VALUES,
    DiachronicCorpus,
    PeriodCorpus,
    TimePeriod,
    header_line,
    parse_numbers,
    per_period,
    read_artifact,
    read_store,
    select_leaves,
    store_bytes,
    write_artifact,
)
from .errors import MissingArtifactError, ParameterError
from .preprocess import is_word

if TYPE_CHECKING:  # pragma: no cover - annotations only
    import numpy as np

NGRAM_ORDERS = (1, 2, 3)
LEVELS = ("surface", "lemma")


@dataclass(frozen=True)
class Vocabulary:
    """Filtered word-frequency table of one period.

    ``entries`` are in row order: count descending, then word. It is the row
    order of the vocabulary TSV, of token ids and of every matrix artifact;
    ``__post_init__`` puts any entries given into it and sets ``token_total``,
    the sum of their counts: the number of corpus tokens whose word survived
    filtering, so normalized frequencies over the entries sum to one.
    """

    period: TimePeriod
    entries: dict[str, int]
    token_total: int = field(init=False)

    def __post_init__(self) -> None:
        rows = sorted(self.entries.items(), key=lambda kv: (-kv[1], kv[0]))
        object.__setattr__(self, "entries", dict(rows))
        object.__setattr__(self, "token_total", sum(self.entries.values()))

    def __contains__(self, word: str) -> bool:
        return word in self.entries

    def frequency(self, word: str) -> int:
        return self.entries.get(word, 0)

    def normalized_frequency(self, word: str) -> float:
        if self.token_total == 0:
            return 0.0
        return self.entries.get(word, 0) / self.token_total

    def merged_with(self, other: "Vocabulary") -> "Vocabulary":
        merged = Counter(self.entries)
        merged.update(other.entries)
        period = TimePeriod(
            min(self.period.start_year, other.period.start_year),
            max(self.period.end_year, other.period.end_year),
        )
        return Vocabulary(period=period, entries=dict(merged))


@dataclass(eq=False)
class NgramTable:
    """Exact n-gram counts of one period at one level (surface or lemma).

    ``words`` is lexicographic, ``columns`` holds one array of ``words`` indices per
    gram position, and rows are in written order: count descending, then gram.
    ``create_ngrams`` and ``read_ngrams`` order rows so; ``write_ngrams`` keeps it.
    """

    period: TimePeriod
    order: int
    words: np.ndarray
    columns: list[np.ndarray]
    counts: np.ndarray

    @classmethod
    def from_entries(cls, period: TimePeriod, order: int, entries: dict):
        """The table of ``gram -> count`` entries, its rows in the entries' order."""
        import numpy as np

        grams = np.array(list(entries), dtype=object).reshape(len(entries), order)
        words, ranks = np.unique(grams, return_inverse=True)  # sorted as ``sorted`` sorts
        counts = np.array(list(entries.values()), dtype=np.int64)
        return cls(period, order, words, list(ranks.reshape(grams.shape).T), counts)

    @property
    def entries(self) -> dict[tuple[str, ...], int]:
        """The rows as a ``gram -> count`` dict in written order, built on each access."""
        return dict(zip(zip(*(self.words[c].tolist() for c in self.columns)), self.counts.tolist()))

    def total(self) -> int:
        return int(self.counts.sum())


def same_document(doc_offsets: np.ndarray, shift: int) -> np.ndarray:
    """Mask over token positions i < n - shift: tokens i and i + shift share a document."""
    import numpy as np

    document = np.repeat(np.arange(len(doc_offsets) - 1), np.diff(doc_offsets))
    return document[: max(len(document) - shift, 0)] == document[shift:]


def create_vocabulary(leaf: PeriodCorpus, level: str = "lemma") -> Vocabulary:
    """Return the leaf's filtered vocabulary, built by ingest or read from its artifact."""
    if level not in LEVELS:
        raise ParameterError(f"unknown level {level!r} (expected surface or lemma)")
    vocab = leaf.vocabulary if level == "lemma" else leaf.surface_vocabulary
    if vocab is None:
        raise MissingArtifactError(
            f"no {level} vocabulary for period {leaf.period.label}", needed_command="ingest"
        )
    return vocab


def _check_ngram_order(order: int) -> None:
    if order not in NGRAM_ORDERS:
        raise ParameterError(f"n-gram order must be one of {NGRAM_ORDERS}, got {order}")


def _gram_keys(columns: Sequence[np.ndarray], size: int) -> np.ndarray:
    """Per row of rank ``columns`` (ranks below ``size``), an int64 key that sorts as
    ``np.lexsort(columns[::-1])``: ``key * size + rank``, folded left to right. Before
    a fold that could pass int64 (at order 3, ``size >= 2**21``) keys become dense ranks."""
    import numpy as np

    keys, span = np.zeros(len(columns[0]), dtype=np.int64), 1  # every key is below span
    for column in columns:
        if span > np.iinfo(np.int64).max // max(size, 1):  # dense ranks are below len(keys)
            keys, span = np.unique(keys, return_inverse=True)[1], len(keys)
        keys, span = keys * size + column, span * size
    return keys


def create_ngrams(leaf: PeriodCorpus, order: int, level: str = "lemma") -> NgramTable:
    """Build the sliding-window n-gram table of one leaf.

    Windows never cross document boundaries, and an n-gram is counted only if
    every member survived vocabulary filtering. Rows are in written order:
    frequency-descending, then by gram; one argsort of ``_gram_keys`` groups them.
    """
    import numpy as np

    _check_ngram_order(order)
    words = list(create_vocabulary(leaf, level).entries)
    ids = leaf.require_token_ids(level)
    # ranks follow the words' lexicographic order, so sorting rank columns
    # sorts the grams as tuples of strings
    lexicographic = sorted(range(len(words)), key=words.__getitem__)
    rank = np.empty(len(words), dtype=np.int64)
    rank[lexicographic] = np.arange(len(words))
    by_rank = np.array([words[i] for i in lexicographic], dtype=object)

    windows = max(len(ids) - order + 1, 0)
    keep = same_document(leaf.doc_offsets, order - 1)
    for k in range(order):
        keep &= ids[k : k + windows] >= 0
    starts = np.flatnonzero(keep)
    columns = [rank[ids[starts + k]] for k in range(order)]
    keys = _gram_keys(columns, len(words))
    sort = np.argsort(keys)
    # a run of equal keys is one gram; keys are >= 0, so the first row starts a run
    firsts = np.flatnonzero(np.diff(keys[sort], prepend=-1))
    counts = np.diff(firsts, append=len(keys))
    by_count = np.argsort(-counts, kind="stable")
    columns = [c[sort[firsts[by_count]]] for c in columns]
    return NgramTable(leaf.period, order, by_rank, columns, counts[by_count])


# ---------------------------------------------------------------------------
# Range queries (one value per leaf of ``select_leaves``)
# ---------------------------------------------------------------------------


def exists(
    node: DiachronicCorpus, word: str, periods: Sequence[TimePeriod] | None = None
) -> list[tuple[TimePeriod, bool]]:
    """Per-period membership of a word in the filtered vocabulary."""
    return per_period(node, periods, lambda leaf: word in create_vocabulary(leaf))


def frequency(
    node: DiachronicCorpus,
    word: str,
    periods: Sequence[TimePeriod] | None = None,
    normalize: bool = False,
) -> list[tuple[TimePeriod, int | float]]:
    """Per-period frequency of a word, raw or normalized by the token total."""

    def count(leaf: PeriodCorpus) -> int | float:
        vocab = create_vocabulary(leaf)
        return vocab.normalized_frequency(word) if normalize else vocab.frequency(word)

    return per_period(node, periods, count)


def merge_vocabulary(
    node: DiachronicCorpus, periods: Sequence[TimePeriod] | None = None, level: str = "lemma"
) -> Vocabulary:
    """Entry-wise merge of the range's vocabularies, folded in period order."""
    leaves = select_leaves(node, periods)
    merged = create_vocabulary(leaves[0], level)
    for leaf in leaves[1:]:
        merged = merged.merged_with(create_vocabulary(leaf, level))
    return merged


def common_words(node: DiachronicCorpus, periods: Sequence[TimePeriod] | None = None) -> set[str]:
    """Words present in every period of the range (set intersection)."""
    leaves = select_leaves(node, periods)
    sets = [set(create_vocabulary(leaf).entries) for leaf in leaves]
    out = sets[0].copy()
    for s in sets[1:]:
        out &= s
    return out


def _average_word_length(vocab: Vocabulary) -> float:
    """Mean character length over the unique words of a vocabulary (type-level)."""
    if not vocab.entries:
        return 0.0
    return sum(len(w) for w in vocab.entries) / len(vocab.entries)


def vocab_metrics(
    node: DiachronicCorpus,
    periods: Sequence[TimePeriod] | None = None,
    ngram_order: int = 1,
) -> dict:
    """Bundle of per-period vocabulary metrics plus range-wide common words.

    ``ngram_count`` is the total n-gram occurrences of each period, counted
    from the leaf's token ids, so it needs leaves that hold them.
    """
    _check_ngram_order(ngram_order)
    return {
        "unique_word_count": per_period(
            node, periods, lambda leaf: len(create_vocabulary(leaf).entries)
        ),
        "average_word_length": per_period(
            node, periods, lambda leaf: _average_word_length(create_vocabulary(leaf))
        ),
        "ngram_count": per_period(
            node, periods, lambda leaf: create_ngrams(leaf, ngram_order).total()
        ),
        "common_words": common_words(node, periods),
    }


def words_matching(
    node: DiachronicCorpus,
    kind: str,
    pattern: str,
    periods: Sequence[TimePeriod] | None = None,
) -> list[tuple[TimePeriod, set[str]]]:
    """Per-period sets of vocabulary words matching a prefix/suffix/substring pattern."""
    matches = {"prefix": str.startswith, "suffix": str.endswith, "substring": str.__contains__}
    if kind not in matches:
        raise ParameterError(f"unknown match kind {kind!r}")
    if not pattern:
        raise ParameterError("match pattern must be non-empty")
    match = matches[kind]

    def matching(leaf: PeriodCorpus) -> set[str]:
        return {w for w in create_vocabulary(leaf).entries if match(w, pattern)}

    return per_period(node, periods, matching)


def occurrence_rate(
    vocab: Vocabulary, count: Callable[[str], int]
) -> tuple[int, float | None]:
    """Token-weighted occurrences over a vocabulary: (raw, per million filtered tokens).

    Each vocabulary word contributes ``count(word)`` times its token
    frequency. The rate is None for a vocabulary with no tokens.
    """
    raw = sum(count(word) * freq for word, freq in vocab.entries.items())
    return raw, (raw / vocab.token_total * 1_000_000 if vocab.token_total else None)


def morpheme_frequency(
    node: DiachronicCorpus,
    pattern: str,
    periods: Sequence[TimePeriod] | None = None,
) -> list[tuple[TimePeriod, float | None]]:
    """Per-period usage rate of a character pattern, per million filtered tokens.

    Occurrences are counted inside each vocabulary word (non-overlapping) and
    weighted by the word's token frequency.
    """
    if not pattern:
        raise ParameterError("morpheme pattern must be non-empty")

    def rate(leaf: PeriodCorpus) -> float | None:
        return occurrence_rate(create_vocabulary(leaf), lambda word: word.count(pattern))[1]

    return per_period(node, periods, rate)


def cofrequency(
    node: DiachronicCorpus,
    word_u: str,
    word_v: str,
    periods: Sequence[TimePeriod] | None = None,
    window: int = 2,
) -> list[tuple[TimePeriod, int]]:
    """Per-period co-occurrence count of a word pair under the window rule.

    Each value is ``count_cooccurrences(leaf, window).pair_count(word_u, word_v)``,
    so it needs leaves that hold token ids, and a word paired with itself counts twice.
    """
    from .embeddings import count_cooccurrences  # deferred: embeddings imports lexicon

    return per_period(
        node, periods, lambda leaf: count_cooccurrences(leaf, window).pair_count(word_u, word_v)
    )


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def _write_counts(
    path: str | Path, header: str, counts: np.ndarray, keys: Callable[[slice], list[bytes]]
) -> None:
    """Write a count TSV: ``header``, then one ``key<TAB>count`` line per row.

    ``keys(part)`` gives the UTF-8 keys of a slice of rows. Rows are rendered
    ``CHUNK_VALUES`` at a time as bytes, each run of equal counts with one
    join, so a count-descending table costs about one join per distinct count.
    """
    import numpy as np

    def chunks() -> Iterator[bytes]:
        yield f"{header}\n".encode("utf-8")
        for start in range(0, len(counts), CHUNK_VALUES):
            part = slice(start, start + CHUNK_VALUES)
            rows, values = keys(part), counts[part]
            # counts are >= 0, so a chunk's first row starts a run
            starts = np.flatnonzero(np.diff(values, prepend=-1)).tolist()
            tails = [b"\t%d\n" % count for count in values[starts].tolist()]
            ends = starts[1:] + [len(rows)]
            yield b"".join(tail.join(rows[a:b]) + tail for a, b, tail in zip(starts, ends, tails))

    write_artifact(path, chunks())


def write_vocabulary(vocab: Vocabulary, path: str | Path) -> None:
    """TSV export: header line, then word<TAB>count in row order."""
    import numpy as np

    counts = np.array(list(vocab.entries.values()), dtype=np.int64)
    keys = [w.encode("utf-8") for w in vocab.entries]
    header = header_line(period=vocab.period, tokens=vocab.token_total)
    _write_counts(path, header, counts, keys.__getitem__)


def _read_counts(path: str | Path, kind: str, order: int | None = None) -> tuple[dict, dict]:
    """The header and the ``key<TAB>count`` entries of a vocabulary or (with ``order``)
    n-gram TSV, in file order.

    Each key is listed once and is one ``is_word`` word (an n-gram key:
    ``order`` of them, space-separated), each count is a positive ASCII integer
    literal, and the counts sum to the ``#tokens`` header. A malformed file
    raises ParameterError naming it and, for a record, the line.
    """
    head, records = read_artifact(path, kind, period=TimePeriod.parse, tokens=int)
    noun = "word" if order is None else "gram"
    keys: dict = {}
    counts: dict[int, str] = {}
    for lineno, line in records:
        fields = line.split("\t")
        if len(fields) != 2:
            raise ParameterError(f"{path}: line {lineno} is not '{noun}<TAB>count': {line!r}")
        text, counts[lineno] = fields
        words = text.split(" ")
        if len(words) != (order or 1) or not all(map(is_word, words)):
            raise ParameterError(f"{path}: line {lineno}: {noun} {text!r} is not {order or 1} word(s)")
        key = text if order is None else tuple(words)
        if key in keys:
            raise ParameterError(f"{path}: line {lineno}: {noun} {text!r} listed twice")
        keys[key] = None
    values = parse_numbers(path, counts, int)
    if sum(values) != head["tokens"]:
        raise ParameterError(f"{path}: counts sum to {sum(values)}, not #tokens={head['tokens']}")
    return head, dict(zip(keys, values))


def read_vocabulary(path: str | Path) -> Vocabulary:
    """Load a vocabulary TSV; ``_read_counts`` states its rules and errors."""
    head, entries = _read_counts(path, "vocabulary")
    return Vocabulary(head["period"], entries)


_TOKEN_STORE = {"lemma": (1, "int32"), "offsets": (1, "integer")}  # ``read_store`` schema


def write_token_ids(leaf: PeriodCorpus, path: str | Path) -> None:
    """Store the leaf's lemma ids and document offsets as an ``.npz`` archive.

    The archive holds two arrays: ``lemma`` (int32, one id per raw token,
    -1 for a filtered-out token) and ``offsets`` (int64, document starts plus
    the token count).
    """
    ids = leaf.require_token_ids("lemma")
    write_artifact(path, store_bytes(_TOKEN_STORE, lemma=ids, offsets=leaf.doc_offsets))


def read_token_ids(path: str | Path, leaf: PeriodCorpus) -> None:
    """Load a stored lemma id array into a leaf that holds its lemma vocabulary.

    The archive holds exactly the arrays of ``_TOKEN_STORE``, offsets rising from 0
    to the token count and ids that index that vocabulary's rows and reproduce its
    counts; a missing file or any other content raises ParameterError naming it.
    """
    import numpy as np

    vocab = create_vocabulary(leaf)
    arrays, _ = read_store(path, "token store", _TOKEN_STORE)
    ids, offsets = arrays["lemma"], arrays["offsets"]
    rising = len(offsets) and offsets[0] == 0 and not np.any(offsets[1:] < offsets[:-1])
    if not rising or offsets[-1] != len(ids):
        raise ParameterError(f"{path}: document offsets must rise from 0 to {len(ids)}")
    size = len(vocab.entries)
    if len(ids) and (ids.min() < -1 or ids.max() >= size):
        raise ParameterError(f"{path}: lemma ids outside [-1, {size})")
    if np.bincount(ids[ids >= 0], minlength=size).tolist() != list(vocab.entries.values()):
        raise ParameterError(
            f"{path}: lemma ids do not reproduce the counts of the {leaf.period.label} vocabulary"
        )
    leaf.token_ids["lemma"] = ids
    leaf.doc_offsets = offsets.astype(np.int64)


def write_ngrams(table: NgramTable, path: str | Path) -> None:
    """TSV export: header line, then space-joined gram<TAB>frequency in row order."""
    import numpy as np

    words = np.array([w.encode("utf-8") for w in table.words.tolist()], dtype=object)
    spaced = words + b" "
    *heads, last = table.columns

    def keys(part: slice) -> list[bytes]:
        grams = words[last[part]]
        for column in reversed(heads):
            grams = spaced[column[part]] + grams
        return grams.tolist()

    _write_counts(path, header_line(period=table.period, tokens=table.total()), table.counts, keys)


def read_ngrams(path: str | Path, order: int) -> NgramTable:
    """Load an n-gram TSV; ``_read_counts`` states its rules and errors."""
    head, entries = _read_counts(path, "n-gram", order)
    return NgramTable.from_entries(head["period"], order, entries)
