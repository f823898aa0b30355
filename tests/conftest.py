from __future__ import annotations

import io
from pathlib import Path

import numpy as np
import pytest

from diacorpus.cli import RunConfig, _ingest_tree
from diacorpus.corpus import DiachronicCorpus, PeriodCorpus, TimePeriod
from diacorpus.preprocess import lemma_surfaces, normalize_text, token_surfaces, turkish_lower

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"

PERIOD_1930 = TimePeriod(1930, 1939)
PERIOD_1980 = TimePeriod(1980, 1989)


@pytest.fixture(scope="session")
def fixture_config() -> RunConfig:
    return RunConfig.from_file(FIXTURES / "fixture_config.json")


@pytest.fixture(scope="session")
def fixture_tree(fixture_config) -> DiachronicCorpus:
    """The bundled mini corpus, ingested once per test session."""
    return _ingest_tree(fixture_config)


@pytest.fixture()
def fresh_tree(fixture_config) -> DiachronicCorpus:
    """A freshly ingested tree, sharing no object with the session's ``fixture_tree``."""
    return _ingest_tree(fixture_config)


def series_values(series) -> list:
    """The values of a per-period result of ``(period, value)`` pairs, in order."""
    return [value for _, value in series]


def stored_cells(matrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The row ids, column ids and values of a compressed-row matrix's stored
    cells, in storage order, read from ``indptr``, ``indices`` and ``data`` alone."""
    rows = np.repeat(np.arange(len(matrix.indptr) - 1), np.diff(matrix.indptr))
    return rows, matrix.indices, matrix.data


def assert_canonical(matrix) -> None:
    """Each row's columns strictly ascending: stored cells in row-major order, none twice."""
    rows, cols, _ = stored_cells(matrix)
    keys = rows * matrix.shape[1] + cols
    assert np.all(keys[1:] > keys[:-1])


def row_order(entries: dict[str, int]) -> list[str]:
    """A vocabulary's words in row order: count descending, then word.

    The rule is written out here, not read from ``Vocabulary``, so the
    oracles that index rows stay independent of the code they check.
    """
    return sorted(entries, key=lambda w: (-entries[w], w))


def document_sequences(texts, level="lemma", analyzer=None) -> list[list[str]]:
    """Each document's words at ``level``, rebuilt from its raw text.

    Surfaces are case-folded; lemmas are analyzer stems or F5 stems. Every raw
    token is kept. No token id is read, so these strings are an independent
    oracle for the id-based paths.
    """
    surfaces = [token_surfaces(normalize_text(text)) for text in texts]
    if level == "surface":
        return [[turkish_lower(s) for s in doc] for doc in surfaces]
    return [lemma_surfaces(doc, analyzer) for doc in surfaces]


def fixture_sequences(config: RunConfig, leaf: PeriodCorpus, level="lemma") -> list[list[str]]:
    """``document_sequences`` of a leaf ingested from the fixture corpus."""
    texts = [(config.corpus_root / doc.path).read_text(encoding="utf-8") for doc in leaf.documents]
    return document_sequences(texts, level, config.analyzer())


# Values that are not the ASCII literal of a finite float, which the PPMI reader
# rejects, and the vocabulary reader as counts: a digit separator, an
# Arabic-Indic digit and a literal padded with spaces (all accepted by
# ``float()``), hex, nan, a literal that overflows to infinity, and literals
# beside a whitespace character other than the space (accepted by ``np.loadtxt``).
EDGE_TOKENS = ["1_0", "\u0661", " 5 ", "0x10", "nan", "1e999", "5\x85", "\x0c5"]


# Counts that are not a positive ASCII integer literal, which the vocabulary
# and n-gram readers reject (``int()`` accepts the first two, ``np.loadtxt``
# the last two), and PPMI values that are not finite and above 0.
BAD_COUNTS = ["1_0", "\u0661", "5.0", "0", "-5", "5\x85", "\x0c5"]
BAD_ASSOCIATIONS = ["nan", "inf", "0.0", "-2.5"]


def with_edge_token(lines: list[str], token: str) -> list[str]:
    """The artifact ``lines`` with the last value on line 3, after its last space
    or tab, replaced by ``token``."""
    cut = max(lines[2].rfind(" "), lines[2].rfind("\t")) + 1
    return [*lines[:2], lines[2][:cut] + token, *lines[3:]]


def store_arrays(path) -> dict[str, np.ndarray]:
    """Every array of an ``.npz`` store, by name."""
    with np.load(path) as store:
        return {name: store[name] for name in store.files}


def savez_bytes(arrays: dict[str, np.ndarray]) -> bytes:
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return buffer.getvalue()


UNPICKLED: list[bool] = []  # one entry per unpickled ``Tripwire``


def _trip() -> None:
    UNPICKLED.append(True)


class Tripwire:
    """An object whose unpickling appends to ``UNPICKLED``."""

    def __reduce__(self):
        return (_trip, ())


def _npy(array: np.ndarray) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


def _with_word(arrays: dict, key: str, index: int, word: bytes | None) -> dict:
    """The store's arrays with word ``index`` of ``key`` replaced by ``word`` (None: the
    first word)."""
    words = arrays[key].tobytes().split(b"\n")
    words[index] = words[0] if word is None else word
    return {**arrays, key: np.frombuffer(b"\n".join(words), dtype=np.uint8)}


def _with_value(matrix: np.ndarray, value: float) -> np.ndarray:
    matrix = matrix.copy()
    matrix[-1, -1] = value
    return matrix


def _store_corruptions(kind: str, matrix: str, words: str, period: str, dropped: str) -> dict:
    """The corruptions every store can suffer: ``matrix`` names its float64 array,
    ``words`` its encoded words, ``period`` a 0-d period label and ``dropped`` the
    key that goes missing."""
    return {
        "not-a-zip": (lambda a: b"not an archive", f"unreadable {kind}"),
        "empty-file": (lambda a: b"", f"unreadable {kind}"),
        "npy-not-npz": (lambda a: _npy(a[matrix]), "not an .npz archive"),
        "truncated": (lambda a: savez_bytes(a)[:-40], f"unreadable {kind}"),
        "key-missing": (lambda a: {k: v for k, v in a.items() if k != dropped}, "it holds"),
        "extra-key": (lambda a: {**a, "extra": np.zeros(1)}, "it holds"),
        f"pickled-{matrix}": (
            lambda a: {**a, matrix: np.array([Tripwire() for _ in a[matrix]], dtype=object)},
            "Object arrays cannot be loaded",
        ),
        f"int64-{matrix}": (lambda a: {**a, matrix: a[matrix].astype(np.int64)}, "2-D float64"),
        f"1-d-{matrix}": (lambda a: {**a, matrix: a[matrix][:, 0]}, "2-D float64"),
        # float64 too, but big-endian: the dtype must match exactly, not by kind
        f"byte-swapped-{matrix}": (lambda a: {**a, matrix: a[matrix].astype(">f8")}, "2-D float64"),
        "duplicate-word": (lambda a: _with_word(a, words, -1, None), "listed twice"),
        "empty-word": (lambda a: _with_word(a, words, 1, b""), "is empty or has whitespace"),
        f"non-utf8-{words}": (lambda a: _with_word(a, words, 1, b"\xff"), f"{words} are not UTF-8"),
        f"{period}-unparsable": (
            lambda a: {**a, period: np.array("thirties")}, "cannot parse period"
        ),
        f"{period}-1-d": (
            lambda a: {**a, period: np.array([a[period][()]])}, f"{period} must be a 0-d string"
        ),
    }


# name -> (a corruption of a clean vector store's arrays, giving arrays or file
# bytes, and a fragment of the reader's error message)
STORE_CORRUPTIONS = {
    **_store_corruptions("embedding store", "vectors", "words", "period", "provenance"),
    "float32-vectors": (lambda a: {**a, "vectors": a["vectors"].astype(np.float32)}, "2-D float64"),
    "no-columns": (lambda a: {**a, "vectors": a["vectors"][:, :0]}, "at least one column"),
    "rows-not-words": (lambda a: {**a, "vectors": a["vectors"][:-1]}, "does not match"),
    "nan-value": (lambda a: {**a, "vectors": _with_value(a["vectors"], np.nan)}, "non-finite"),
    "inf-value": (lambda a: {**a, "vectors": _with_value(a["vectors"], -np.inf)}, "non-finite"),
    **{
        f"word-{word!r}": (
            lambda a, word=word: _with_word(a, "words", 1, word.encode()),
            "is empty or has whitespace",
        )
        for word in ["a b", "a\tb", "a\x0cb", "a\x85b", "a\u2028b", "a\r"]
    },
    "string-words": (
        lambda a: {**a, "words": np.array(a["words"].tobytes().decode().split("\n"))},
        "words must be a 1-D uint8 array",
    ),
    "provenance-bytes": (
        lambda a: {**a, "provenance": np.array(b"svd")}, "provenance must be a 0-d string"
    ),
}

# the same for a clean transform store
TRANSFORM_CORRUPTIONS = {
    **_store_corruptions("transform store", "matrix", "shared", "source", "target_sha256"),
    "non-square-matrix": (lambda a: {**a, "matrix": a["matrix"][:-1]}, "square 2-D float64"),
    "empty-matrix": (lambda a: {**a, "matrix": np.zeros((0, 0))}, "at least one row"),
    "not-orthogonal": (lambda a: {**a, "matrix": 2 * a["matrix"]}, "is not orthogonal"),
    "nan-value": (lambda a: {**a, "matrix": _with_value(a["matrix"], np.nan)}, "is not orthogonal"),
    "no-shared-words": (
        lambda a: {**a, "shared": np.zeros(0, dtype=np.uint8)}, "non-empty shared vocabulary"
    ),
    "word-'a b'": (lambda a: _with_word(a, "shared", 1, b"a b"), "is empty or has whitespace"),
    "target-unparsable": (lambda a: {**a, "target": np.array("1930s")}, "cannot parse period"),
    **{
        f"digest-{name}": (
            lambda a, key=key, digest=digest: {**a, key: np.array(digest)},
            "is not 64 lowercase hex digits",
        )
        for name, key, digest in [
            ("not-hex", "source_sha256", "0" * 63 + "g"),
            ("upper-case", "target_sha256", "F" * 64),
            ("too-short", "target_sha256", "f" * 63),
        ]
    },
    "digest-bytes": (
        lambda a: {**a, "source_sha256": np.array(b"0" * 64)}, "source_sha256 must be a 0-d string"
    ),
}


def write_corrupt_store(path, corrupt) -> None:
    """Rewrite the store at ``path`` with ``corrupt``, a function of a corruption table."""
    content = corrupt(store_arrays(path))
    path.write_bytes(content if isinstance(content, bytes) else savez_bytes(content))
