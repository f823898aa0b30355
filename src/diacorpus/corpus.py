"""Period-bucketed corpus and the one walk over its periods.

A corpus (``DiachronicCorpus``) is its ``PeriodCorpus`` leaves, one per time
period, sorted by period and never overlapping; ``leaves()`` returns them in
that order. ``select_leaves(node, periods)`` is the one place a range of
periods is picked; every per-period analysis walks its result, and
``per_period(node, periods, fn)`` turns a function of a leaf into a list of
``(period, value)`` pairs, in period order.

The corpus is immutable after ``build_corpus_tree`` (or after the CLI loads
a leaf's vocabularies and token ids from ingest's artifacts). A leaf holds
its documents, stats, token ids and vocabularies and caches nothing else:
each call that needs an n-gram table or a co-occurrence or association
matrix computes it.

numpy is imported inside the functions that build or read arrays, so a
command that only reads vocabularies starts without it.
"""

from __future__ import annotations

import datetime as dt
import io
import json
import math
import os
import re
import stat
import threading
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Collection, Iterable, Iterator, Sequence

from .errors import IngestError, MissingArtifactError, ParameterError
from .preprocess import (
    FilterConfig,
    MorphAnalyzer,
    filter_vocabulary,
    is_word,
    lemma_surfaces,
    normalize_text,
    read_input_text,
    token_surfaces,
    turkish_lower,
)

if TYPE_CHECKING:  # pragma: no cover - annotations only
    import numpy as np

    from .lexicon import Vocabulary

# the one spelling ``TimePeriod.label`` writes: ASCII digits, no leading zero
_PERIOD_LABEL = re.compile(r"(0|[1-9][0-9]{0,3})-(0|[1-9][0-9]{0,3})")
# fromisoformat alone reads 20200101 and week dates on Python 3.11+, not on 3.10
_MANIFEST_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


@dataclass(frozen=True, order=True)
class TimePeriod:
    """An inclusive span of Gregorian years, e.g. 1930-1939."""

    start_year: int
    end_year: int

    def __post_init__(self) -> None:
        for year in (self.start_year, self.end_year):
            if not 0 <= year <= 9999:  # the years a label holds and ``parse`` reads
                raise ParameterError(f"period year {year} is outside 0-9999")
        if self.start_year > self.end_year:
            raise ParameterError(f"period start {self.start_year} is after end {self.end_year}")

    @property
    def label(self) -> str:
        return f"{self.start_year}-{self.end_year}"

    def __str__(self) -> str:  # artifact path templates format a period as its label
        return self.label

    def contains(self, year: int) -> bool:
        return self.start_year <= year <= self.end_year

    def overlaps(self, other: "TimePeriod") -> bool:
        return self.start_year <= other.end_year and other.start_year <= self.end_year

    @classmethod
    def parse(cls, label: str) -> "TimePeriod":
        m = _PERIOD_LABEL.fullmatch(label)
        if not m:
            raise ParameterError(f"cannot parse period label {label!r} (expected START-END)")
        return cls(int(m.group(1)), int(m.group(2)))


@dataclass(frozen=True)
class DocumentRecord:
    """Manifest entry for one plain-text document."""

    doc_id: str
    date: dt.date
    source: str
    path: str


@dataclass
class CorpusStats:
    """Descriptive statistics of one period leaf, filled during ingestion."""

    document_count: int = 0
    token_count_raw: int = 0
    token_count_filtered: int = 0
    unique_surface_count: int = 0
    unique_lemma_count: int = 0
    unique_lemma_count_filtered: int = 0
    avg_tokens_per_document: float = 0.0


class PeriodCorpus:
    """Leaf corpus: the documents of one time period, their token ids and vocabularies."""

    def __init__(self, period: TimePeriod, documents: Sequence[DocumentRecord] = ()):
        self.period = period
        self.documents: list[DocumentRecord] = list(documents)
        self.stats: CorpusStats | None = None
        # Per level ("lemma", "surface"): one int32 id per raw token, the row
        # of its word in that level's ``Vocabulary.entries``, or
        # -1 for a token filtered out. Document d holds the tokens
        # ``doc_offsets[d]:doc_offsets[d + 1]``.
        self.token_ids: dict[str, np.ndarray] = {}
        self.doc_offsets: np.ndarray | None = None
        self.vocabulary: "Vocabulary | None" = None
        self.surface_vocabulary: "Vocabulary | None" = None

    def require_token_ids(self, level: str = "lemma") -> np.ndarray:
        """The leaf's token ids at ``level``; raise unless ingest built or stored them."""
        ids = self.token_ids.get(level)
        if ids is None or self.doc_offsets is None:
            raise MissingArtifactError(
                f"period {self.period.label} has no {level} token ids", needed_command="ingest"
            )
        return ids

    @classmethod
    def from_texts(
        cls,
        period: TimePeriod,
        texts: dict[str, str],
        filter_config: FilterConfig = FilterConfig(),
        analyzer: MorphAnalyzer | None = None,
    ) -> "PeriodCorpus":
        """Build and ingest a leaf directly from in-memory document texts."""
        docs = [
            DocumentRecord(doc_id=doc_id, date=dt.date(period.start_year, 1, 1), source="inline", path="")
            for doc_id in texts
        ]
        leaf = cls(period, docs)
        _ingest_leaf(leaf, [texts[d.doc_id] for d in docs], filter_config, analyzer)
        return leaf


class DiachronicCorpus:
    """A corpus: its period leaves, sorted by period, no two of which overlap."""

    def __init__(self, leaves: Sequence[PeriodCorpus]):
        if not leaves:
            raise ParameterError("a diachronic corpus needs at least one child")
        self._leaves = sorted(leaves, key=lambda leaf: leaf.period)
        for left, right in zip(self._leaves, self._leaves[1:]):
            if left.period.overlaps(right.period):
                raise ParameterError(
                    f"child periods overlap: {left.period.label} and {right.period.label}"
                )
        self.unbucketed_documents: list[DocumentRecord] = []

    def leaves(self) -> list[PeriodCorpus]:
        return list(self._leaves)


def require_distinct(items: Sequence, kind: str = "period") -> None:
    """Raise ParameterError naming the first of ``items`` listed twice (a period by its label)."""
    repeated = [x for i, x in enumerate(items) if x in items[:i]]
    if repeated:
        raise ParameterError(f"{kind} {getattr(repeated[0], 'label', repeated[0])} is listed twice")


def select_leaves(
    node: DiachronicCorpus, periods: Sequence[TimePeriod] | None = None
) -> list[PeriodCorpus]:
    """Leaves of ``node`` restricted to ``periods`` (all leaves when None), in period order.

    Raises ParameterError if ``periods`` is empty, or a requested period is
    listed twice or has no leaf.
    """
    leaves = node.leaves()
    if periods is None:
        return leaves
    if not periods:
        raise ParameterError("no periods selected")
    require_distinct(periods)
    held = {leaf.period for leaf in leaves}
    for period in periods:
        if period not in held:
            raise ParameterError(f"no corpus leaf for period {period.label}")
    return [leaf for leaf in leaves if leaf.period in periods]


def per_period(
    node: DiachronicCorpus,
    periods: Sequence[TimePeriod] | None,
    fn: Callable[[PeriodCorpus], Any],
) -> list[tuple[TimePeriod, Any]]:
    """``(leaf.period, fn(leaf))`` for each leaf of ``select_leaves(node, periods)``, in order."""
    return [(leaf.period, fn(leaf)) for leaf in select_leaves(node, periods)]


def decade_bucket(year: int) -> TimePeriod:
    """The calendar decade containing ``year``: floor(year/10)*10 .. +9."""
    start = (year // 10) * 10
    return TimePeriod(start, start + 9)


def parse_manifest(content: str) -> list[DocumentRecord]:
    """Parse manifest JSON text into document records; each date is ``YYYY-MM-DD``."""
    try:
        raw = json.loads(content)
    except json.JSONDecodeError as exc:
        raise IngestError(f"manifest is not valid JSON: {exc}") from exc
    if not isinstance(raw, list):
        raise IngestError("manifest must be a JSON array of document entries")
    records: list[DocumentRecord] = []
    seen: set[str] = set()
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise IngestError(f"manifest entry {i} is not an object")
        try:
            doc_id = entry["id"]
            date_text = entry["date"]
            source = entry.get("source", "")
            path = entry["path"]
        except KeyError as exc:
            raise IngestError(f"manifest entry {i} misses required key {exc}") from exc
        if not all(isinstance(value, str) for value in (doc_id, date_text, path)):
            raise IngestError(f"manifest entry {i}: id, date and path must be strings")
        if doc_id in seen:
            raise IngestError(f"duplicate document id {doc_id!r} in manifest")
        seen.add(doc_id)
        try:
            if not _MANIFEST_DATE.fullmatch(date_text):
                raise ValueError("not YYYY-MM-DD")
            date = dt.date.fromisoformat(date_text)
        except ValueError as exc:
            raise IngestError(f"document {doc_id!r}: cannot parse date {date_text!r}") from exc
        records.append(DocumentRecord(doc_id=doc_id, date=date, source=source, path=path))
    if not records:
        raise IngestError("manifest lists no documents")
    return records


def load_manifest(corpus_root: str | Path) -> list[DocumentRecord]:
    """Read ``manifest.json`` from a corpus root directory."""
    root = Path(corpus_root)
    manifest_path = root / "manifest.json"
    if not manifest_path.is_file():
        raise IngestError(f"no manifest.json under {root}")
    return parse_manifest(read_input_text(manifest_path, "manifest"))


def _ingest_leaf(
    leaf: PeriodCorpus,
    raw_texts: Sequence[str],
    filter_config: FilterConfig,
    analyzer: MorphAnalyzer | None,
) -> None:
    """Preprocess a leaf's documents and populate stats, token ids and vocabularies.

    Normalization runs per document, tokenization once per distinct whitespace
    chunk, and case folding and lemmatization once per distinct surface of the
    leaf, which relies on the analyzer being pure (see ``MorphAnalyzer``).
    """
    import numpy as np

    from .lexicon import Vocabulary  # deferred: lexicon imports corpus types

    # surface type -> type number in order of first occurrence; whitespace chunk -> its types
    type_numbers: dict[str, int] = {}
    chunk_types: dict[str, list[int]] = {}
    token_types: list[int] = []
    offsets = [0]
    for text in raw_texts:
        for chunk in normalize_text(text).split():
            if chunk not in chunk_types:
                surfaces = token_surfaces(chunk)
                chunk_types[chunk] = [type_numbers.setdefault(s, len(type_numbers)) for s in surfaces]
            token_types += chunk_types[chunk]
        offsets.append(len(token_types))
    types = list(type_numbers)
    unique = sorted(types)
    folded_of = dict(zip(unique, (turkish_lower(s) for s in unique)))
    lemma_of = dict(zip(unique, lemma_surfaces(unique, analyzer)))
    type_words = {
        "surface": [folded_of[s] for s in types],
        "lemma": [lemma_of[s] for s in types],
    }
    token_types_arr = np.array(token_types, dtype=np.int64)
    type_counts = np.bincount(token_types_arr, minlength=len(types)).tolist()
    doc_offsets = np.array(offsets, dtype=np.int64)
    n_raw = len(token_types)

    vocabularies: dict[str, Vocabulary] = {}
    unique_words: dict[str, int] = {}
    for level, words in type_words.items():
        counts: dict[str, int] = {}
        for word, count in zip(words, type_counts):
            counts[word] = counts.get(word, 0) + count
        filtered = filter_vocabulary(counts, n_raw, filter_config)
        vocab = Vocabulary(period=leaf.period, entries=filtered)
        row = {w: i for i, w in enumerate(vocab.entries)}
        type_ids = np.array([row.get(w, -1) for w in words], dtype=np.int32)
        leaf.token_ids[level] = type_ids[token_types_arr]
        vocabularies[level] = vocab
        unique_words[level] = len(counts)

    leaf.doc_offsets = doc_offsets
    leaf.vocabulary = vocabularies["lemma"]
    leaf.surface_vocabulary = vocabularies["surface"]
    docs = len(raw_texts)
    leaf.stats = CorpusStats(
        document_count=docs,
        token_count_raw=n_raw,
        token_count_filtered=leaf.vocabulary.token_total,
        unique_surface_count=len(types),
        unique_lemma_count=unique_words["lemma"],
        unique_lemma_count_filtered=len(leaf.vocabulary.entries),
        avg_tokens_per_document=(n_raw / docs) if docs else 0.0,
    )


def build_corpus_tree(
    records: Sequence[DocumentRecord],
    bucketing: Sequence[TimePeriod] | None = None,
    *,
    corpus_root: str | Path | None = None,
    filter_config: FilterConfig = FilterConfig(),
    analyzer: MorphAnalyzer | None = None,
) -> DiachronicCorpus:
    """Ingest documents into a preprocessed corpus of period leaves.

    Documents are assigned to buckets by publication year, in ``doc_id`` order
    whatever the order of ``records``. With the default bucketing, each year
    falls into its calendar decade; an explicit bucket list may leave documents
    unassigned, which are collected on ``unbucketed_documents`` rather than
    silently dropped. Leaves carry populated stats and filtered vocabularies. No
    document in any bucket, as with no records at all, is an IngestError.
    """
    records = sorted(records, key=lambda record: record.doc_id)

    if bucketing is None:
        buckets = sorted({decade_bucket(r.date.year) for r in records})
    else:
        buckets = sorted(bucketing)
        for left, right in zip(buckets, buckets[1:]):
            if left.overlaps(right):
                raise ParameterError(
                    f"bucketing periods overlap: {left.label} and {right.label}"
                )

    assigned: dict[TimePeriod, list[DocumentRecord]] = {b: [] for b in buckets}
    unbucketed: list[DocumentRecord] = []
    for record in records:
        for bucket in buckets:
            if bucket.contains(record.date.year):
                assigned[bucket].append(record)
                break
        else:
            unbucketed.append(record)

    root_dir = Path(corpus_root if corpus_root is not None else "")
    leaves: list[PeriodCorpus] = []
    for bucket in buckets:
        docs = assigned[bucket]
        if not docs:
            continue
        leaf = PeriodCorpus(bucket, docs)
        texts = [read_input_text(root_dir / doc.path, f"document {doc.doc_id!r}") for doc in docs]
        _ingest_leaf(leaf, texts, filter_config, analyzer)
        leaves.append(leaf)

    if not leaves:
        raise IngestError("no document fell into any bucket")
    tree = DiachronicCorpus(leaves)
    tree.unbucketed_documents = unbucketed
    return tree


def _csv_cell(value: Any) -> str:
    """One CSV cell: None is empty, booleans are true/false, reals round-trip."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))  # float() drops the numpy scalar repr
    return str(value)


def csv_table(header: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """Render a header and rows as unquoted comma-separated lines."""
    lines = [",".join(header)]
    lines.extend(",".join(_csv_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def header_line(**fields: Any) -> str:
    """The line 1 that ``read_artifact`` reads: one ``#key=value`` per field, in order,
    space-separated, without a line end."""
    return " ".join(f"#{key}={value}" for key, value in fields.items())


def read_artifact(
    path: str | Path, kind: str, **parsers: Callable[[str], Any]
) -> tuple[dict[str, Any], Iterator[tuple[int, str]]]:
    """Open a UTF-8 text artifact: its typed header, then each later non-blank line, streamed.

    Line 1 is space-separated ``#key=value`` fields. Every key of ``parsers``
    must appear exactly once, and no other; each value is converted by its
    parser. A file that is not UTF-8, is empty or breaks these rules raises
    ParameterError naming it. The lines come as ``(line number, line)``,
    without line ends, while they are read.
    """
    lines = _numbered_lines(path)
    _, first = next(lines, (1, None))
    if first is None:
        raise ParameterError(f"{path}: empty {kind} file")
    header: dict[str, Any] = {}
    try:
        for field in first.split(" "):
            if not field.startswith("#"):
                raise ValueError(f"field {field!r} is not #key=value")
            key, value = field[1:].split("=", 1)
            if key in header or key not in parsers:
                raise ValueError(f"{'repeated' if key in header else 'unknown'} key {key!r}")
            header[key] = parsers[key](value)
        if len(header) != len(parsers):
            raise ValueError(f"keys missing: {sorted(parsers.keys() - header.keys())}")
    except (ValueError, ParameterError) as exc:
        raise ParameterError(f"{path}: line 1: bad {kind} header {first!r}: {exc}") from exc
    return header, lines


# A store schema maps each array of an ``.npz`` store, in file order, to a rule
# ``(rank, dtype)``. The dtype must match exactly (a byte-swapped one fails),
# except ``"integer"``, any integer dtype, and ``"string"``, any string dtype.
# ``store_bytes`` encodes and ``read_store`` decodes two rules: ``WORDS`` and ``LABEL``.
WORDS = (1, "uint8")
LABEL = (0, "string")


def store_bytes(schema: dict[str, tuple], **values: Any) -> bytes:
    """The ``np.savez`` archive of ``values``, one array per key of ``schema``, in the
    schema's order. A ``WORDS`` value is a sequence of words, stored as their UTF-8
    bytes joined by ``\\n`` in one uint8 array (a NumPy string array would drop a
    trailing NUL); a ``LABEL`` value is a ``str``; any other value is an array. It
    stamps no time, so the bytes depend only on the values."""
    import numpy as np

    encoders = {WORDS: lambda words: np.frombuffer("\n".join(words).encode("utf-8"), np.uint8),
                LABEL: np.array}
    arrays = {key: encoders.get(rule, np.asarray)(values[key]) for key, rule in schema.items()}
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return buffer.getvalue()


def _decode_words(path: str | Path, key: str, encoded: np.ndarray) -> dict[str, int]:
    """The row of each word ``store_bytes`` stored as ``key``; ParameterError naming the
    file unless ``encoded`` is UTF-8 text of ``is_word`` words, each listed once."""
    try:
        text = encoded.tobytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParameterError(f"{path}: {key} are not UTF-8: {exc}") from exc
    words = text.split("\n") if text else []
    if text.split() != words:  # each word non-empty and free of whitespace
        word = next(w for w in words if not is_word(w))
        raise ParameterError(f"{path}: word {word!r} is empty or has whitespace")
    rows = dict(zip(words, range(len(words))))
    if len(rows) != len(words):  # a repeated word keeps the row of its last listing
        word = next(w for i, w in enumerate(words) if rows[w] != i)
        raise ParameterError(f"{path}: word {word!r} listed twice")
    return rows


def read_store(path: str | Path, kind: str, schema: dict[str, tuple]) -> tuple[dict, bytes]:
    """Load an ``np.savez`` archive holding exactly the arrays of ``schema``: those
    arrays by name, a ``WORDS`` one as ``{word: row}`` and a ``LABEL`` one as
    ``str``, and the file's bytes, read once, for a caller that hashes them.

    Nothing is unpickled. A file that cannot be read, is no ``.npz`` archive,
    holds another set of names, or holds a pickled (object) array, a member
    that is no ``.npy`` array or an array that breaks its rule, raises
    ParameterError naming it.
    """
    import numpy as np

    try:
        data = Path(path).read_bytes()
        store = np.load(io.BytesIO(data), allow_pickle=False)
        if not isinstance(store, np.lib.npyio.NpzFile):  # a bare .npy array
            raise ValueError("not an .npz archive")
        with store:
            if sorted(store.files) != sorted(schema):
                raise ValueError(f"it holds {sorted(store.files)}, not {sorted(schema)}")
            arrays = {key: store[key] for key in schema}
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise ParameterError(f"{path}: unreadable {kind}: {exc}") from exc
    for key, (rank, dtype) in schema.items():
        array = arrays[key]
        if not isinstance(array, np.ndarray):  # a member without the .npy magic loads as bytes
            raise ParameterError(f"{path}: unreadable {kind}: {key} is not an .npy array")
        kinds = {"string": "U", "integer": "iu"}.get(dtype)
        if array.ndim != rank or not (array.dtype.kind in kinds if kinds else array.dtype == dtype):
            raise ParameterError(
                f"{path}: {key} must be a {f'{rank}-D' if rank else '0-d'} {dtype} array, "
                f"not {array.dtype} of shape {array.shape}"
            )
        if (rank, dtype) == WORDS:
            array = _decode_words(path, key, array)
        arrays[key] = str(array) if (rank, dtype) == LABEL else array
    return arrays, data


def _numbered_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Line 1 and each later non-blank line of a UTF-8 file, numbered, in universal newlines."""
    try:
        with open(path, encoding="utf-8") as file:
            for lineno, line in enumerate(file, start=1):
                if line != "\n" or lineno == 1:
                    yield lineno, line.removesuffix("\n")
    except UnicodeDecodeError as exc:
        raise ParameterError(f"{path}: not a UTF-8 text file: {exc}") from exc


# Every character a number literal may hold; the letters of nan and inf
# pass, so those rows fail the finiteness rule instead.
_LITERAL_ALPHABET = b"0123456789+-.eEnafi"
_INT64 = range(-(1 << 63), 1 << 63)


def _parse_rows(texts: Collection[str], kind: type) -> list:
    """``texts`` as values of ``kind``; ValueError unless each is one literal."""
    joined = "".join(texts)
    if not joined.isascii() or joined.encode("ascii").translate(None, _LITERAL_ALPHABET):
        raise ValueError("a character outside the number literal alphabet")
    values = list(map(kind, texts))  # int() and float() reject an empty row
    if kind is int and values and (min(values) not in _INT64 or max(values) not in _INT64):
        raise ValueError("a count outside int64")
    return values


def parse_numbers(path: str | Path, rows: dict[int, str], kind: type) -> list:
    """Rows of one ASCII literal of ``kind`` each, keyed by line number, as a list of
    values above 0: ``float`` reals as ``repr`` writes finite numbers, ``int`` decimal
    counts that fit in int64. The first row that is no such literal (one holding a
    space, a tab or U+0085 too), else the first value not finite and above 0, is a
    ParameterError naming the file and the line.
    """
    try:
        values = _parse_rows(rows.values(), kind)
    except ValueError as bulk:
        for lineno, text in rows.items():  # name the first bad row
            try:
                _parse_rows([text], kind)
            except ValueError:
                literals = f"1 ASCII {kind.__name__}64 literal(s)"  # int64 or float64
                raise ParameterError(f"{path}: line {lineno}: {text!r} is not {literals}") from bulk
    bad = next((n for n, value in zip(rows, values) if not 0 < value < math.inf), None)
    if bad is not None:
        raise ParameterError(f"{path}: line {bad}: a value is not finite and above 0")
    return values


# How many values (table entries, or vector components) a streamed writer
# renders into one chunk for ``write_artifact``: enough that the per-chunk
# cost vanishes, few enough that a chunk's strings stay a few MB.
CHUNK_VALUES = 1 << 14
# how write_artifact opens an old target: no symlink followed, no wait for a FIFO writer
_OLD_FLAGS = sum(getattr(os, flag, 0) for flag in ("O_NOFOLLOW", "O_NONBLOCK"))


def write_artifact(path: str | Path, content: str | bytes | Iterable[str | bytes]) -> None:
    """Write an artifact, text as UTF-8 or bytes as is, creating its parent directories.

    ``content`` is one ``str`` or ``bytes``, or an iterable of ``str`` or
    ``bytes`` chunks that a writer renders one at a time; each chunk goes
    straight into the temp file (a ``str`` as UTF-8), so a text artifact is
    streamed with the bytes of the joined text and never held whole. The
    temp file sits in the target's directory and then replaces the target in
    one step, so a write that fails (a chunk that raises included), or a
    process killed mid-write, leaves the previous artifact intact. A write
    that raises removes its temp file. A regular file at the target that
    already holds exactly the new bytes stays in place (same inode, mtime and
    mode): each chunk is compared with the old file's next bytes, one more
    chunk-sized buffer, and the temp file is removed.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    # a fixed-length name, so a target name at the file-system limit still
    # fits; pid and thread keep concurrent writers into one directory apart
    temp = target.with_name(f".{os.getpid()}-{threading.get_ident()}.tmp")
    chunks = [content] if isinstance(content, (str, bytes)) else content
    try:
        old = open(target, "rb", opener=lambda name, flags: os.open(name, flags | _OLD_FLAGS))
        same = stat.S_ISREG(os.fstat(old.fileno()).st_mode)
    except OSError:  # missing, a symlink, a directory or unreadable: replaced
        old, same = io.BytesIO(), False
    try:
        with old, temp.open("wb") as out:
            for chunk in chunks:
                data = chunk.encode("utf-8") if isinstance(chunk, str) else chunk
                out.write(data)
                same = same and old.read(len(data)) == data  # no read past a difference
            same = same and not old.read(1)
        if same:
            temp.unlink()
        else:
            os.replace(temp, target)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def sweep_temp_files(directory: Path) -> None:
    """Remove the temp files, ``.<pid>-<thread>.tmp``, that killed writers left in ``directory``."""
    for path in directory.glob(".*.tmp"):
        if re.fullmatch(r"\.\d+-\d+\.tmp", path.name):
            path.unlink()
