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
from typing import TYPE_CHECKING

import numpy as np

from .corpus import PeriodCorpus, TimePeriod, parse_numbers, read_artifact, write_artifact
from .errors import ComputationUndefinedError, OutOfVocabularyError, ParameterError
from .lexicon import Vocabulary, create_vocabulary, same_document, vocabulary_order
from .preprocess import is_word

# scipy is imported inside the functions that build or factor sparse
# matrices: it costs more start-up time than the rest of the package, and most
# commands (ingest, analyze, align, the embedding queries) never need it.
if TYPE_CHECKING:
    import scipy.sparse as sp

# Dense factorization is exact and repeats its bytes at a fixed BLAS thread
# count (not necessarily across thread counts); only fall back to sparse
# iterative SVD for vocabularies too large to densify comfortably.
_DENSE_SVD_LIMIT = 1024


@dataclass
class CooccurrenceMatrix:
    """Symmetric within-window co-occurrence counts over a period's vocabulary."""

    period: TimePeriod
    vocab_index: dict[str, int]
    counts: sp.csr_matrix
    window: int
    row_totals: np.ndarray = field(init=False)
    col_totals: np.ndarray = field(init=False)
    grand_total: int = field(init=False)

    def __post_init__(self) -> None:
        self.row_totals = np.asarray(self.counts.sum(axis=1)).ravel()
        self.col_totals = np.asarray(self.counts.sum(axis=0)).ravel()
        self.grand_total = int(self.counts.sum())

    def pair_count(self, word_u: str, word_v: str) -> int:
        i = self.vocab_index.get(word_u)
        j = self.vocab_index.get(word_v)
        if i is None or j is None:
            return 0
        return int(self.counts[i, j])


@dataclass
class PPMIMatrix:
    """Nonnegative, sparse association matrix; zero wherever counts are zero."""

    period: TimePeriod
    vocab_index: dict[str, int]
    values: sp.csr_matrix
    alpha: float
    window: int = 2

    def association(self, word_u: str, word_v: str) -> float:
        i = self.vocab_index.get(word_u)
        if i is None:
            raise OutOfVocabularyError(word_u, self.period.label)
        j = self.vocab_index.get(word_v)
        if j is None:
            raise OutOfVocabularyError(word_v, self.period.label)
        return float(self.values[i, j])


@dataclass
class EmbeddingSet:
    """Dense vocabulary-indexed vector matrix for one period."""

    period: TimePeriod
    vocab_index: dict[str, int]
    matrix: np.ndarray
    dim: int
    provenance: str  # "svd" | "cbow"
    seed: int | None = None
    training_loss: list[float] | None = None

    def __post_init__(self) -> None:
        if self.matrix.shape != (len(self.vocab_index), self.dim):
            raise ParameterError(
                f"embedding matrix shape {self.matrix.shape} does not match "
                f"{len(self.vocab_index)} words x {self.dim} dims"
            )
        if not np.all(np.isfinite(self.matrix)):
            raise ParameterError("embedding matrix contains non-finite values")

    def words(self) -> list[str]:
        return sorted(self.vocab_index, key=self.vocab_index.__getitem__)

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
    counted over the full token sequence.
    """
    import scipy.sparse as sp

    if window < 1:
        raise ParameterError("window must be at least 1")
    vocab = create_vocabulary(leaf)
    ids = leaf.require_token_ids().astype(np.int64)
    order = vocabulary_order(vocab)
    index = {w: i for i, w in enumerate(order)}
    size = len(order)
    # vectorized pair extraction: for each offset, align the id array with a
    # shifted copy of itself and keep pairs inside one document where both
    # sides are in-vocabulary
    forward: list[np.ndarray] = []
    for offset in range(1, min(window, len(ids) - 1) + 1):
        left, right = ids[:-offset], ids[offset:]
        mask = (left >= 0) & (right >= 0) & same_document(leaf.doc_offsets, offset)
        forward.append(np.stack((left[mask], right[mask]), axis=1))
    pairs = np.concatenate(forward) if forward else np.empty((0, 2), dtype=np.int64)
    if len(pairs):
        directed = np.concatenate((pairs, pairs[:, ::-1]))
        keys = directed[:, 0] * size + directed[:, 1]
        unique_keys, key_counts = np.unique(keys, return_counts=True)
        rows, cols = np.divmod(unique_keys, size)
        counts = sp.csr_matrix((key_counts, (rows, cols)), shape=(size, size))
    else:
        counts = sp.csr_matrix((size, size), dtype=np.int64)
    return CooccurrenceMatrix(period=leaf.period, vocab_index=index, counts=counts, window=window)


def build_ppmi(cooc: CooccurrenceMatrix, alpha: float = 0.75) -> PPMIMatrix:
    """Turn co-occurrence counts into the smoothed positive association matrix.

    Entries with zero count are never materialized; entries whose log ratio
    is negative are clamped to zero and dropped from the sparse structure.
    """
    import scipy.sparse as sp

    if cooc.grand_total == 0:
        raise ComputationUndefinedError(
            f"no co-occurrence mass in period {cooc.period.label}; association undefined"
        )
    coo = cooc.counts.tocoo()
    grand = float(cooc.grand_total)
    p_joint = coo.data.astype(np.float64) / grand
    p_row = cooc.row_totals.astype(np.float64) / grand
    smoothed = cooc.col_totals.astype(np.float64) ** alpha
    p_col_smoothed = smoothed / smoothed.sum()
    ratio = p_joint / (p_row[coo.row] * p_col_smoothed[coo.col])
    values = np.log(ratio)
    np.maximum(values, 0.0, out=values)
    result = sp.csr_matrix((values, (coo.row, coo.col)), shape=cooc.counts.shape)
    result.eliminate_zeros()
    return PPMIMatrix(
        period=cooc.period,
        vocab_index=dict(cooc.vocab_index),
        values=result,
        alpha=alpha,
        window=cooc.window,
    )


def ensure_ppmi(leaf: PeriodCorpus, window: int = 2, alpha: float = 0.75) -> PPMIMatrix:
    """The leaf's PPMI matrix, built from its co-occurrence counts."""
    return build_ppmi(count_cooccurrences(leaf, window), alpha)


def _canonical_signs(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Fix each singular vector pair's sign so the largest-magnitude entry of
    # the left vector is positive; makes the factorization reproducible.
    for k in range(u.shape[1]):
        pivot = np.argmax(np.abs(u[:, k]))
        if u[pivot, k] < 0:
            u[:, k] = -u[:, k]
            v[:, k] = -v[:, k]
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
    if size <= _DENSE_SVD_LIMIT or dim >= size:
        dense = ppmi.values.toarray()
        u, s, vt = np.linalg.svd(dense, full_matrices=False)
        u, s, v = u[:, :dim], s[:dim], vt.T[:, :dim]
    else:
        from scipy.sparse.linalg import svds

        # svds returns ascending singular values; v0 pins the start vector so
        # repeated runs agree.
        u, s, vt = svds(ppmi.values.astype(np.float64), k=dim, v0=np.ones(min(ppmi.values.shape)))
        order = np.argsort(-s)
        u, s, v = u[:, order], s[order], vt.T[:, order]
    u, v = _canonical_signs(u, v)
    scale = np.sqrt(s)
    words = EmbeddingSet(
        period=ppmi.period,
        vocab_index=dict(ppmi.vocab_index),
        matrix=u * scale,
        dim=dim,
        provenance="svd",
    )
    return words, v * scale


def cosine(vec_a: np.ndarray, vec_b: np.ndarray) -> float:
    """Cosine similarity; defined as 0.0 when either vector has zero norm."""
    norm = float(np.linalg.norm(vec_a) * np.linalg.norm(vec_b))
    if norm == 0.0:
        return 0.0
    return float(np.dot(vec_a, vec_b) / norm)


def similarity(word_u: str, word_v: str, embedding_set: EmbeddingSet) -> float:
    return cosine(embedding_set.vector(word_u), embedding_set.vector(word_v))


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
    i = ppmi.vocab_index.get(word)
    if i is None:
        raise OutOfVocabularyError(word, ppmi.period.label)
    row = ppmi.values.getrow(i).tocoo()
    by_id = {int(j): float(v) for j, v in zip(row.col, row.data) if v > 0}
    inverse = {idx: w for w, idx in ppmi.vocab_index.items()}
    ranked = sorted(
        ((inverse[j], v) for j, v in by_id.items() if inverse[j] != word),
        key=lambda kv: (-kv[1], kv[0]),
    )
    return ranked[:top_k]


def association(word_u: str, word_v: str, ppmi: PPMIMatrix) -> float:
    return ppmi.association(word_u, word_v)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def write_embeddings(embedding_set: EmbeddingSet, path: str | Path) -> None:
    """Text export: a header line, then one 'word v1 .. vd' line per vocabulary word.

    Reals are written in shortest round-trip form so reloading reproduces the
    exact doubles.
    """
    header = (
        f"dim={embedding_set.dim} vocab={len(embedding_set.vocab_index)} "
        f"provenance={embedding_set.provenance} period={embedding_set.period.label}"
    )
    lines = [header]
    for word in embedding_set.words():
        row = embedding_set.matrix[embedding_set.vocab_index[word]]
        lines.append(word + " " + " ".join(repr(float(x)) for x in row))
    write_artifact(path, "\n".join(lines) + "\n")


def read_embeddings(path: str | Path) -> EmbeddingSet:
    """Load an embedding file; a malformed file raises ParameterError naming it (and the line).

    The header's ``dim`` is positive, and its ``vocab`` words are ``is_word`` words listed once.
    """
    head, records = read_artifact(
        path, "embedding", dim=int, vocab=int, provenance=str, period=TimePeriod.parse
    )
    dim, vocab_size = head["dim"], head["vocab"]
    if dim < 1:
        raise ParameterError(f"{path}: line 1: dim={dim} is not a positive dimension")
    vocab_index: dict[str, int] = {}
    numbers: dict[int, str] = {}
    for lineno, line in records:
        word, _, numbers[lineno] = line.partition(" ")
        if not is_word(word):
            raise ParameterError(f"{path}: line {lineno}: word {word!r} is empty or has whitespace")
        if word in vocab_index:
            raise ParameterError(f"{path}: line {lineno}: word {word!r} listed twice")
        vocab_index[word] = len(vocab_index)
    if len(vocab_index) != vocab_size:
        raise ParameterError(f"{path}: header says {vocab_size} words, found {len(vocab_index)}")
    rows = parse_numbers(path, numbers, dim)
    try:
        return EmbeddingSet(head["period"], vocab_index, rows, dim, head["provenance"])
    except ParameterError as exc:
        raise ParameterError(f"{path}: {exc}") from exc


def write_ppmi(ppmi: PPMIMatrix, path: str | Path) -> None:
    """Coordinate-format TSV in row-major order: row word, column word, association value."""
    words = np.array(sorted(ppmi.vocab_index, key=ppmi.vocab_index.get), dtype=object)
    coo = ppmi.values.tocoo()
    order = np.lexsort((coo.col, coo.row))
    rows, cols = words[coo.row[order]].tolist(), words[coo.col[order]].tolist()
    header = f"#period={ppmi.period.label} #window={ppmi.window} #alpha={repr(ppmi.alpha)}"
    body = "\n".join(map("\t".join, zip(rows, cols, map(repr, coo.data[order].tolist()))))
    write_artifact(path, f"{header}\n{body}\n" if body else f"{header}\n")


def read_ppmi(path: str | Path, vocabulary: Vocabulary) -> PPMIMatrix:
    """Load a coordinate TSV back against the vocabulary that defines row order.

    Each word pair is listed once, with a value above 0 (``build_ppmi`` drops
    zeros) that ``parse_numbers`` reads. A malformed file raises ParameterError
    naming it, and the line where it can.
    """
    import scipy.sparse as sp

    head, records = read_artifact(
        path, "association", period=TimePeriod.parse, window=int, alpha=float
    )
    order = vocabulary_order(vocabulary)
    index = {w: i for i, w in enumerate(order)}
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
    data = parse_numbers(path, numbers, 1, positive=True)[:, 0]
    values = sp.csr_matrix((data, (rows, cols)), shape=(len(order), len(order)))
    if values.nnz != len(data):  # the CSR build summed a repeated pair
        raise ParameterError(f"{path}: {len(data) - values.nnz} word pair(s) listed twice")
    return PPMIMatrix(head["period"], index, values, head["alpha"], head["window"])
