"""Co-occurrence counts, smoothed PPMI association, and SVD word vectors.

The association score between words u and v is
``max(log(p(u,v) / (p(u) * p_alpha(v))), 0)`` with natural logarithms, where
p(u,v) and p(u) come from symmetric window counts and p_alpha smooths the
context (column) marginal by raising counts to ``alpha`` before normalizing.
SVD vectors use the square root of the singular values: ``W = U S^(1/2)``
for word vectors and ``C = V S^(1/2)`` for the context side, so the full-rank
product ``W @ C.T`` reconstructs the association matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from .corpus import (
    CHUNK_VALUES,
    LABEL,
    WORDS,
    PeriodCorpus,
    TimePeriod,
    header_line,
    parse_numbers,
    read_artifact,
    read_store,
    store_bytes,
    write_artifact,
)
from .errors import ComputationUndefinedError, OutOfVocabularyError, ParameterError
from .lexicon import Vocabulary, create_vocabulary, same_document

# Both dense solvers below are exact and repeat their bytes at a fixed BLAS
# thread count (not necessarily across thread counts); only fall back to sparse
# iterative SVD for vocabularies too large to densify comfortably.
_DENSE_SVD_LIMIT = 1024
# A dense problem of at least this many words that keeps at most 3/5 of the
# spectrum goes through the Gram matrix (eigh of A.T @ A, then a Rayleigh-Ritz
# step); the rest takes the full SVD. Both cutoffs were set where the Gram
# route's peak memory crossed the full SVD's while the route still held A
# through eigh. Measured since it stopped, from the compressed rows both
# solvers receive (random 8%-dense symmetric matrices, one BLAS thread), the
# Gram route's peak is the lower one from 128 words at every share up to 0.70
# (192 words at dim 115: 3.64 against 4.30 MB; 944 at dim 566: 40.9 against
# 63.7); the crossover share lies at 0.70-0.80 from 144 to 300 words and at
# 0.80-0.90 at 128 words and from 400, and at 64 words the full SVD's peak is
# lower at every share. So memory alone would move both cutoffs down and the
# share up; they stay until a workload runs the full-SVD side of them. In time
# the Gram route wins up to share 0.45 from 128 words (944 words at dim 100: 200
# against 432 ms) and up to 3/5 from 512 words; below 512 words at shares
# 0.5-0.6 it is up to 12% slower (192 words at dim 115: 7.7 against 6.9 ms).
# The golden outputs were made with the full SVD at 50 words.
_GRAM_MIN_SIZE = 192


@dataclass(frozen=True)
class CSRArrays:
    """A sparse matrix as plain compressed-row arrays: row ``i`` stores ``data[k]``
    in column ``indices[k]`` for ``indptr[i] <= k < indptr[i + 1]``. The code here
    reads only these four attributes, so any compressed-row matrix will do."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    @classmethod
    def from_sorted(cls, rows: np.ndarray, cols: np.ndarray, data: np.ndarray, size: int) -> CSRArrays:
        """The ``size`` x ``size`` matrix of entries sorted by row, each cell listed once."""
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=size))))
        return cls(indptr, cols, data, (size, size))

    @property
    def nnz(self) -> int:
        return len(self.data)

    def toarray(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=self.data.dtype)
        dense[_row_ids(self), self.indices] = self.data
        return dense


def _row_ids(matrix: CSRArrays) -> np.ndarray:
    """The row of each stored entry of a compressed-row matrix, in storage order."""
    return np.repeat(np.arange(len(matrix.indptr) - 1), np.diff(matrix.indptr))


def _row_slice(matrix: CSRArrays, i: int) -> tuple[np.ndarray, np.ndarray]:
    """The column ids and values stored in row ``i``, in storage order."""
    start, end = matrix.indptr[i], matrix.indptr[i + 1]
    return matrix.indices[start:end], matrix.data[start:end]


@dataclass
class CooccurrenceMatrix:
    """Symmetric within-window co-occurrence counts over a period's vocabulary."""

    period: TimePeriod
    vocab_index: dict[str, int]
    counts: CSRArrays
    window: int
    row_totals: np.ndarray = field(init=False)
    grand_total: int = field(init=False)

    def __post_init__(self) -> None:
        counts, rows = self.counts, self.counts.shape[0]
        # a weighted bincount sums in float64, exact for integer counts below 2**53
        self.row_totals = np.bincount(_row_ids(counts), counts.data, rows).astype(np.int64)
        self.grand_total = int(self.row_totals.sum())

    def pair_count(self, word_u: str, word_v: str) -> int:
        i = self.vocab_index.get(word_u)
        j = self.vocab_index.get(word_v)
        if i is None or j is None:
            return 0
        columns, counts = _row_slice(self.counts, i)
        return int(counts[columns == j].sum())


@dataclass
class PPMIMatrix:
    """Nonnegative, sparse association matrix; zero wherever counts are zero.

    Readers of ``values`` do not assume a row's columns are sorted.
    """

    period: TimePeriod
    vocab_index: dict[str, int]
    values: CSRArrays
    alpha: float
    window: int = 2

    def row(self, word: str) -> tuple[np.ndarray, np.ndarray]:
        """The column ids and values stored in ``word``'s row."""
        i = self.vocab_index.get(word)
        if i is None:
            raise OutOfVocabularyError(word, self.period.label)
        return _row_slice(self.values, i)

    def association(self, word_u: str, word_v: str) -> float:
        columns, values = self.row(word_u)
        j = self.vocab_index.get(word_v)
        if j is None:
            raise OutOfVocabularyError(word_v, self.period.label)
        return float(values[columns == j].sum())  # a cell not stored sums to 0.0


@dataclass
class EmbeddingSet:
    """Dense vocabulary-indexed vector matrix for one period: ``vocab_index`` maps its
    words onto the rows 0..n-1 of ``matrix``, each row once, so ``words()`` is row order.
    The vectors' width ``dim`` is the matrix's column count."""

    period: TimePeriod
    vocab_index: dict[str, int]
    matrix: np.ndarray
    provenance: str  # "svd" | "cbow"
    training_loss: list[float] | None = None
    store: bytes | None = field(default=None, repr=False)  # the store file the set was read from

    def __post_init__(self) -> None:
        if self.matrix.ndim != 2 or len(self.matrix) != len(self.vocab_index):
            raise ParameterError(
                f"embedding matrix shape {self.matrix.shape} does not match "
                f"{len(self.vocab_index)} words: it must be 2-D, one row per word"
            )
        if set(self.vocab_index.values()) != set(range(len(self.vocab_index))):
            raise ParameterError("vocab_index must map its words onto rows 0..n-1, each row once")
        if not np.all(np.isfinite(self.matrix)):
            raise ParameterError("embedding matrix contains non-finite values")

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def words(self) -> list[str]:
        return sorted(self.vocab_index, key=self.vocab_index.__getitem__)

    def digest(self) -> str:
        """The sha256 of the set's store: the file it was read from, else the bytes
        ``write_embeddings`` writes for it. Computed on each call, so only a command
        that compares digests (align and the aligned queries) pays for hashing."""
        return _sha256(self.store if self.store is not None else _store_bytes(self))

    def vector(self, word: str) -> np.ndarray:
        i = self.vocab_index.get(word)
        if i is None:
            raise OutOfVocabularyError(word, self.period.label)
        return self.matrix[i]


def count_cooccurrences(leaf: PeriodCorpus, window: int = 2) -> CooccurrenceMatrix:
    """Count symmetric in-window co-occurrences over the filtered vocabulary.

    For token positions i and j in the same document with 1 <= |i - j| <=
    window, both directed cells are incremented, so the matrix is exactly
    symmetric and the grand total is twice the number of in-window unordered
    pairs. Pairs touching a filtered-out token are skipped; positions are
    counted over the full token sequence. An offset past the longest document
    pairs nothing, so counting stops there; ``window`` keeps the value given.
    """
    if window < 1:
        raise ParameterError("window must be at least 1")
    ids = leaf.require_token_ids()
    longest = int(np.diff(leaf.doc_offsets).max(initial=0))
    pairs = []  # per offset, the (left, right) ids of positions i and i + offset
    for offset in range(1, min(window, longest - 1) + 1):
        left, right = ids[:-offset], ids[offset:]
        mask = (left >= 0) & (right >= 0) & same_document(leaf.doc_offsets, offset)
        pairs.append((left[mask], right[mask]))
    index = {w: i for i, w in enumerate(create_vocabulary(leaf).entries)}
    size = len(index)
    # one int64 key row * size + column per directed pair, sorted in place:
    # each run of equal keys is one cell and its length the cell's count
    keys = np.concatenate(
        [np.empty(0, dtype=np.int64)]  # a leaf of one token has no pairs
        + [left.astype(np.int64) * size + right for left, right in pairs]
        + [right.astype(np.int64) * size + left for left, right in pairs]
    )
    del pairs  # half a key array's bytes, freed before the sort and the run pass
    keys.sort()
    run_start = np.ones(len(keys), dtype=bool)
    run_start[1:] = keys[1:] != keys[:-1]
    firsts = np.flatnonzero(run_start)
    key_counts = np.diff(firsts, append=len(keys))
    keys = keys[firsts]  # one key per stored cell
    counts = CSRArrays.from_sorted(keys // size, keys % size, key_counts, size)
    return CooccurrenceMatrix(period=leaf.period, vocab_index=index, counts=counts, window=window)


def smoothed_distribution(counts: np.ndarray, alpha: float, period: TimePeriod) -> np.ndarray:
    """``counts ** alpha``, normalized to sum to 1: the smoothed context distribution of
    PPMI and of CBOW's negative draws. ComputationUndefinedError naming alpha and the
    period unless every share is finite and each count above 0 keeps a share above 0
    (an alpha far from 0 overflows or underflows the powers)."""
    with np.errstate(all="ignore"):  # reported as the error below, not as warnings
        smoothed = counts.astype(np.float64) ** alpha
        shares = smoothed / smoothed.sum()
    if not (np.all(np.isfinite(shares)) and np.all(shares[counts > 0] > 0)):
        raise ComputationUndefinedError(
            f"alpha {alpha!r} gives no finite context distribution in period {period.label}"
        )
    return shares


def build_ppmi(cooc: CooccurrenceMatrix, alpha: float = 0.75) -> PPMIMatrix:
    """Turn co-occurrence counts into the smoothed positive association matrix.

    Entries with zero count are never materialized; entries whose log ratio
    is not positive are dropped from the sparse structure.
    """
    if cooc.grand_total == 0:
        raise ComputationUndefinedError(
            f"no co-occurrence mass in period {cooc.period.label}; association undefined"
        )
    counts = cooc.counts
    rows, cols = _row_ids(counts), counts.indices
    grand = float(cooc.grand_total)
    p_joint = counts.data.astype(np.float64) / grand
    p_row = cooc.row_totals.astype(np.float64) / grand
    # the counts are symmetric, so the context (column) marginal is the row marginal
    p_col_smoothed = smoothed_distribution(cooc.row_totals, alpha, cooc.period)
    log_ratio = np.log(p_joint / (p_row[rows] * p_col_smoothed[cols]))
    keep = log_ratio > 0
    values = CSRArrays.from_sorted(rows[keep], cols[keep], log_ratio[keep], counts.shape[0])
    return PPMIMatrix(cooc.period, dict(cooc.vocab_index), values, alpha, cooc.window)


def _canonical_signs(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Fix each singular vector pair's sign so the largest-magnitude entry of
    # the left vector is positive; makes the factorization reproducible.
    flip = u[np.abs(u).argmax(axis=0), np.arange(u.shape[1])] < 0
    u[:, flip] = -u[:, flip]
    v[:, flip] = -v[:, flip]
    return u, v


def svd_embeddings(ppmi: PPMIMatrix, dim: int = 300) -> tuple[EmbeddingSet, np.ndarray]:
    """Rank-``dim`` factorization of the association matrix into word and context vectors.

    Returns the word-vector EmbeddingSet alongside the context matrix. Output
    is deterministic for a fixed input: singular values are ordered
    descending and singular-vector signs are canonicalized.
    """
    size = len(ppmi.vocab_index)
    if dim > size:
        raise ParameterError(f"embedding dim {dim} exceeds vocabulary size {size}")
    if dim < 1:
        raise ParameterError("embedding dim must be at least 1")
    arrays = ppmi.values
    if size <= _DENSE_SVD_LIMIT or dim >= size:
        if size < _GRAM_MIN_SIZE or 5 * dim > 3 * size:
            u, s, vt = np.linalg.svd(arrays.toarray(), full_matrices=False)
            u, s, v = u[:, :dim], s[:dim], vt.T[:, :dim]
        else:
            # the dim leading right singular vectors span the top eigenspace of
            # A.T @ A; a Rayleigh-Ritz step on it recovers the exact triplets.
            # A is densified twice, so that no more than two n x n arrays are
            # held at once (eigh's workspace aside)
            dense = arrays.toarray()
            gram = dense.T @ dense
            del dense
            _, eigenvectors = np.linalg.eigh(gram)
            del gram
            # the dim leading columns (eigh sorts ascending), copied so that the
            # n x n eigenvectors can go; the reversed view keeps the layout, and
            # so the arithmetic, of the products below
            top = eigenvectors[:, -dim:].copy()[:, ::-1]
            del eigenvectors
            q, r = np.linalg.qr(arrays.toarray() @ top)
            ur, s, vrt = np.linalg.svd(r)
            u, v = q @ ur, top @ vrt.T
    else:
        # here, not at module level: scipy slows start-up more than numpy
        import scipy.sparse as sp
        from scipy.sparse.linalg import svds

        # float64 already, so this shares the data array instead of copying it
        values = sp.csr_matrix(
            (arrays.data, arrays.indices, arrays.indptr), shape=arrays.shape, dtype=np.float64
        )
        # svds returns ascending singular values; v0 pins the start vector so
        # repeated runs agree.
        u, s, vt = svds(values, k=dim, v0=np.ones(min(values.shape)))
        order = np.argsort(-s)
        u, s, v = u[:, order], s[order], vt.T[:, order]
    u, v = _canonical_signs(u, v)
    scale = np.sqrt(s)
    words = EmbeddingSet(
        period=ppmi.period,
        vocab_index=dict(ppmi.vocab_index),
        matrix=u * scale,
        provenance="svd",
    )
    return words, v * scale


def cosine(vec_a: np.ndarray, vec_b: np.ndarray) -> float:
    """Cosine similarity; defined as 0.0 when either vector has zero norm."""
    norm = float(np.linalg.norm(vec_a) * np.linalg.norm(vec_b))
    if norm == 0.0:
        return 0.0
    return float(np.dot(vec_a, vec_b) / norm)


def rank_by_cosine(
    query_vector: np.ndarray, embedding_set: EmbeddingSet, top_k: int, exclude: str | None = None
) -> list[tuple[str, float]]:
    """Top-k vocabulary words by cosine against a query vector."""
    if top_k < 1:
        raise ParameterError("top_k must be at least 1")
    matrix = embedding_set.matrix
    norms = np.linalg.norm(matrix, axis=1)
    query_norm = float(np.linalg.norm(query_vector))
    scores = np.zeros(len(norms))
    valid = norms > 0
    if query_norm > 0:
        scores[valid] = matrix[valid] @ query_vector / (norms[valid] * query_norm)
    words = embedding_set.words()
    ranked = sorted(
        ((w, float(scores[i])) for i, w in enumerate(words) if w != exclude),
        key=lambda kv: (-kv[1], kv[0]),
    )
    return ranked[:top_k]


def most_similar(word: str, top_k: int, embedding_set: EmbeddingSet) -> list[tuple[str, float]]:
    """Top-k nearest vocabulary words by cosine, excluding the query word itself."""
    return rank_by_cosine(embedding_set.vector(word), embedding_set, top_k, exclude=word)


def collocations(word: str, top_k: int, ppmi: PPMIMatrix) -> list[tuple[str, float]]:
    """Top-k positively associated words of ``word`` by association value."""
    if top_k < 1:
        raise ParameterError("top_k must be at least 1")
    columns, values = ppmi.row(word)
    keep = (values > 0) & (columns != ppmi.vocab_index[word])
    inverse = {idx: w for w, idx in ppmi.vocab_index.items()}
    ranked = sorted(
        ((inverse[j], v) for j, v in zip(columns[keep].tolist(), values[keep].tolist())),
        key=lambda kv: (-kv[1], kv[0]),
    )
    return ranked[:top_k]


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


_EMBEDDING_STORE = {"vectors": (2, "float64"), "words": WORDS, "period": LABEL,
                    "provenance": LABEL}  # ``read_store`` schema


def _sha256(data: bytes) -> str:
    # here, not at module level: hashlib loads OpenSSL, a few MB of resident
    # memory that a command hashing nothing (embed) would carry at its peak
    import hashlib

    return hashlib.sha256(data).hexdigest()


def _store_bytes(embedding_set: EmbeddingSet) -> bytes:
    return store_bytes(
        _EMBEDDING_STORE,
        # C order: np.save would store the svds route's Fortran-ordered matrix column-wise
        vectors=np.ascontiguousarray(embedding_set.matrix, dtype=np.float64),
        words=embedding_set.words(),
        period=embedding_set.period.label,
        provenance=embedding_set.provenance,
    )


def write_embeddings(embedding_set: EmbeddingSet, path: str | Path) -> None:
    """Write the set's store to ``path`` (``.npz``) and its text export beside it, at
    ``path`` with the suffix ``.vec``; every reader loads the store.

    The store holds ``vectors`` (float64, one row per word in ``words()``
    order), ``words`` (those words, a ``WORDS`` array) and the 0-d strings
    ``period`` and ``provenance``. The export is a header line, then one
    'word v1 .. vd' line per word, reals in shortest round-trip form,
    rendered about ``CHUNK_VALUES`` values at a time.
    """
    header = (
        f"dim={embedding_set.dim} vocab={len(embedding_set.vocab_index)} "
        f"provenance={embedding_set.provenance} period={embedding_set.period.label}"
    )
    words = embedding_set.words()
    step = max(CHUNK_VALUES // max(embedding_set.dim, 1), 1)

    def chunks() -> Iterator[str]:
        yield f"{header}\n"
        for start in range(0, len(words), step):
            columns = embedding_set.matrix[start : start + step].T.tolist()
            lines = zip(words[start : start + step], *(map(repr, c) for c in columns))
            yield "\n".join(map(" ".join, lines)) + "\n"

    write_artifact(Path(path).with_suffix(".vec"), chunks())
    write_artifact(path, _store_bytes(embedding_set))  # last: what the commands read


def read_embeddings(path: str | Path) -> EmbeddingSet:
    """Load an embedding store; a malformed one raises ParameterError naming it.

    The archive holds exactly the arrays of ``_EMBEDDING_STORE``: ``vectors``
    of finite values, with at least one column and one row per word, and a
    ``period`` that parses. The set keeps the file's bytes as ``store``.
    """
    arrays, data = read_store(path, "embedding store", _EMBEDDING_STORE)
    vectors = arrays["vectors"]
    if vectors.shape[1] < 1:
        raise ParameterError(f"{path}: vectors must be a 2-D float64 array of at least one column, "
                             f"not of shape {vectors.shape}")
    try:
        return EmbeddingSet(
            TimePeriod.parse(arrays["period"]), arrays["words"], vectors, arrays["provenance"],
            store=data,
        )
    except ParameterError as exc:
        raise ParameterError(f"{path}: {exc}") from exc


def write_ppmi(ppmi: PPMIMatrix, path: str | Path) -> None:
    """Coordinate-format TSV in row-major order: row word, column word, association value.

    Entries are rendered ``CHUNK_VALUES`` at a time.
    """
    words = np.array(sorted(ppmi.vocab_index, key=ppmi.vocab_index.get), dtype=object)
    values = ppmi.values
    rows = _row_ids(values)
    # a compressed-row matrix may store a row's columns in any order; one int64 key sorts both
    order = np.argsort(rows * len(words) + values.indices, kind="stable")
    header = header_line(period=ppmi.period, window=ppmi.window, alpha=repr(ppmi.alpha))

    def chunks() -> Iterator[str]:
        yield f"{header}\n"
        for start in range(0, len(order), CHUNK_VALUES):
            part = order[start : start + CHUNK_VALUES]
            row_words, col_words = words[rows[part]].tolist(), words[values.indices[part]].tolist()
            entries = zip(row_words, col_words, map(repr, values.data[part].tolist()))
            yield "\n".join(map("\t".join, entries)) + "\n"

    write_artifact(path, chunks())


def read_ppmi(path: str | Path, vocabulary: Vocabulary) -> PPMIMatrix:
    """Load a coordinate TSV back against the vocabulary that defines row order.

    Each word pair is listed once, with a value above 0 (``build_ppmi`` drops
    zeros) that ``parse_numbers`` reads. A malformed file raises ParameterError
    naming it, and the line where it can. The matrix comes back as canonical
    ``CSRArrays``: each row's columns ascending.
    """
    head, records = read_artifact(
        path, "association", period=TimePeriod.parse, window=int, alpha=float
    )
    index = {w: i for i, w in enumerate(vocabulary.entries)}
    rows, cols, numbers = [], [], {}
    for lineno, line in records:
        fields = line.split("\t")
        if len(fields) != 3:
            raise ParameterError(f"{path}: line {lineno} is not 'word<TAB>word<TAB>value': {line!r}")
        row_word, col_word, numbers[lineno] = fields
        if row_word not in index or col_word not in index:
            raise ParameterError(f"{path}: line {lineno}: word not in vocabulary: {line!r}")
        rows.append(index[row_word])
        cols.append(index[col_word])
    data = np.array(parse_numbers(path, numbers, float), dtype=np.float64)
    size = len(index)
    keys = np.array(rows, dtype=np.int64) * size + np.array(cols, dtype=np.int64)
    sort = np.argsort(keys, kind="stable")  # one pass over a file written in row-major order
    keys, data = keys[sort], data[sort]
    repeats = np.count_nonzero(keys[1:] == keys[:-1])
    if repeats:
        raise ParameterError(f"{path}: {repeats} word pair(s) listed twice")
    values = CSRArrays.from_sorted(*np.divmod(keys, size), data, size)
    return PPMIMatrix(head["period"], index, values, head["alpha"], head["window"])
