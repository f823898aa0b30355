"""Cross-period embedding-space alignment and diachronic similarity queries.

Embedding spaces trained independently per period are only comparable after
rotating one onto the other. ``procrustes_align`` finds the orthogonal matrix
R minimizing ``||W1 @ R - W2||_F`` over the rows of the two periods' shared
vocabulary; the minimization itself is the contract, and every produced
transform is checked to beat the identity mapping's residual. Row-vector
convention throughout: ``aligned = vector @ R``. A transform records the
digests of the two stores it was fitted on (``EmbeddingSet.digest``), and
the queries apply it only to sets with those digests.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import TimePeriod, TimeSeriesResult, read_store, savez_bytes, write_artifact
from .embeddings import EmbeddingSet, cosine, decode_string, decode_words, encode_words, rank_by_cosine
from .errors import ComputationUndefinedError, ParameterError

_ORTHOGONALITY_TOL = 1e-8


@dataclass
class AlignmentTransform:
    """Orthogonal map from one period's embedding space into another's."""

    source_period: TimePeriod
    target_period: TimePeriod
    matrix: np.ndarray
    shared_vocab: list[str]
    fitted_on: tuple[str, str]  # the source and target sets' digests

    def __post_init__(self) -> None:
        if not self.shared_vocab:
            raise ParameterError("alignment transform needs a non-empty shared vocabulary")
        gram = self.matrix.T @ self.matrix
        drift = np.max(np.abs(gram - np.eye(self.matrix.shape[1])))
        if not drift <= _ORTHOGONALITY_TOL:  # a nan drift is not orthogonal
            raise ParameterError(
                f"transform {self.source_period.label}->{self.target_period.label} "
                f"is not orthogonal (max drift {drift:.3e})"
            )

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, vectors: np.ndarray) -> np.ndarray:
        return vectors @ self.matrix


def _shared_rows(source: EmbeddingSet, target: EmbeddingSet) -> tuple[list[str], np.ndarray, np.ndarray]:
    shared = sorted(set(source.vocab_index) & set(target.vocab_index))
    if len(shared) < 2:
        raise ComputationUndefinedError(
            f"periods {source.period.label} and {target.period.label} share "
            f"{len(shared)} word(s); alignment needs at least 2"
        )
    rows_a = np.array([source.matrix[source.vocab_index[w]] for w in shared])
    rows_b = np.array([target.matrix[target.vocab_index[w]] for w in shared])
    return shared, rows_a, rows_b


def procrustes_align(source: EmbeddingSet, target: EmbeddingSet) -> AlignmentTransform:
    """Fit the orthogonal transform mapping ``source`` vectors into ``target`` space.

    Fitted on the shared vocabulary only; words missing from either period do
    not influence the fit but remain mappable through the result.
    """
    if source.dim != target.dim:
        raise ParameterError(
            f"embedding dims differ: {source.dim} vs {target.dim}"
        )
    shared, rows_a, rows_b = _shared_rows(source, target)
    if len(shared) < source.dim:
        warnings.warn(
            f"only {len(shared)} shared words for a {source.dim}-dim alignment "
            f"({source.period.label}->{target.period.label}); fit may be loose",
            stacklevel=2,
        )
    u, _, vt = np.linalg.svd(rows_a.T @ rows_b)
    rotation = u @ vt
    residual = np.linalg.norm(rows_a @ rotation - rows_b)
    identity_residual = np.linalg.norm(rows_a - rows_b)
    if residual > identity_residual + 1e-9 * max(1.0, identity_residual):
        raise ComputationUndefinedError(
            "alignment failed its own objective: rotated residual "
            f"{residual:.6e} exceeds identity residual {identity_residual:.6e}"
        )
    return AlignmentTransform(
        source_period=source.period,
        target_period=target.period,
        matrix=rotation,
        shared_vocab=shared,
        fitted_on=(source.digest(), target.digest()),
    )


def _check_fit(transform: AlignmentTransform, source: EmbeddingSet, target: EmbeddingSet) -> None:
    """Raise ParameterError unless the transform was fitted on these two sets:
    first their periods, then their dimension, then their digests."""
    source_label, target_label = transform.source_period.label, transform.target_period.label
    if (transform.source_period, transform.target_period) != (source.period, target.period):
        raise ParameterError(
            f"transform maps {source_label}->{target_label}, "
            f"not {source.period.label}->{target.period.label}"
        )
    for embedding in (source, target):
        if embedding.dim != transform.dim:
            raise ParameterError(
                f"transform {source_label}->{target_label} "
                f"is {transform.dim}-dim, but the {embedding.period.label} embeddings are "
                f"{embedding.dim}-dim"
            )
    if (source.digest(), target.digest()) != transform.fitted_on:
        raise ParameterError(
            f"transform {source_label}->{target_label} was fitted on other embeddings than "
            f"these; run align --from {source_label} --to {target_label} "
            f"--kind {source.provenance} again"
        )


def alignment_residual(transform: AlignmentTransform, source: EmbeddingSet, target: EmbeddingSet) -> float:
    """Frobenius residual of the transform over the shared vocabulary rows."""
    _, rows_a, rows_b = _shared_rows(source, target)
    return float(np.linalg.norm(rows_a @ transform.matrix - rows_b))


def aligned_most_similar(
    word: str,
    top_k: int,
    target_set: EmbeddingSet,
    base_set: EmbeddingSet,
    transform: AlignmentTransform | None = None,
) -> list[tuple[str, float]]:
    """Nearest base-period words to a target-period word after alignment.

    The word's target-period vector is mapped through the target-to-base
    transform and ranked against the base vocabulary. The query word itself
    is not excluded: it may legitimately be absent from the base period, and
    when present its base-period self is a meaningful neighbor.
    """
    if transform is None:
        transform = procrustes_align(target_set, base_set)
    _check_fit(transform, target_set, base_set)
    aligned = transform.apply(target_set.vector(word))
    return rank_by_cosine(aligned, base_set, top_k)


def semantic_change(
    word: str,
    sets: Sequence[EmbeddingSet],
    transforms: Sequence[AlignmentTransform] | None = None,
) -> TimeSeriesResult:
    """Cosine distance of a word from its starting-period vector, per period.

    Period k reaches the starting period's space through the consecutive
    transforms, latest first: ``v @ (R_k @ ... @ R_1)``, where R_i maps period
    i into period i-1. Periods where the word (or the starting period's
    vector) is missing get a None entry instead of failing.
    """
    if not sets:
        raise ParameterError("semantic change needs at least one embedding set")
    ordered = sorted(sets, key=lambda s: s.period)
    if transforms is None:  # each period into the previous one
        transforms = [procrustes_align(ordered[i + 1], ordered[i]) for i in range(len(ordered) - 1)]
    transforms = list(transforms)
    if len(transforms) != len(ordered) - 1:
        raise ParameterError(
            f"{len(ordered)} periods need {len(ordered) - 1} consecutive transforms, "
            f"got {len(transforms)}"
        )
    base = ordered[0]
    base_vector = (
        base.matrix[base.vocab_index[word]] if word in base.vocab_index else None
    )
    entries = [(base.period, None if base_vector is None else 0.0)]
    to_base: np.ndarray | None = None  # maps the current period into the base period
    for step, current, previous in zip(transforms, ordered[1:], ordered):
        _check_fit(step, current, previous)
        to_base = step.matrix if to_base is None else step.matrix @ to_base
        if base_vector is None or word not in current.vocab_index:
            entries.append((current.period, None))
            continue
        aligned = current.matrix[current.vocab_index[word]] @ to_base
        entries.append((current.period, 1.0 - cosine(aligned, base_vector)))
    return TimeSeriesResult(entries)


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------


_TRANSFORM_KEYS = ("matrix", "shared", "source", "target", "source_sha256", "target_sha256")


def write_transform(transform: AlignmentTransform, path: str | Path) -> None:
    """Write the transform's ``.npz`` store: ``matrix`` (d x d float64, row-vector
    convention ``v @ R``), ``shared`` (``encode_words``), and the 0-d strings
    ``source`` and ``target`` (period labels) and ``source_sha256`` and
    ``target_sha256`` (the digests of ``fitted_on``)."""
    write_artifact(path, savez_bytes(
        matrix=transform.matrix.astype(np.float64, copy=False),
        shared=encode_words(transform.shared_vocab),
        source=np.array(transform.source_period.label),
        target=np.array(transform.target_period.label),
        **{key: np.array(digest) for key, digest in zip(_TRANSFORM_KEYS[4:], transform.fitted_on)},
    ))


def read_transform(path: str | Path) -> AlignmentTransform:
    """Load a transform store; unless it holds exactly the arrays ``write_transform``
    writes, with ``matrix`` square, at least one ``decode_words`` word in ``shared``,
    periods that parse and digests of 64 lowercase hex digits, ParameterError names it."""
    arrays, _ = read_store(path, "transform store", _TRANSFORM_KEYS)
    matrix = arrays["matrix"]
    if matrix.ndim != 2 or matrix.dtype != np.float64 or not 1 <= len(matrix) == matrix.shape[1]:
        raise ParameterError(
            f"{path}: matrix must be a square 2-D float64 array of at least one row, "
            f"not {matrix.dtype} of shape {matrix.shape}"
        )
    shared = list(decode_words(path, "shared", arrays["shared"]))
    source, target, *fitted_on = (decode_string(path, k, arrays[k]) for k in _TRANSFORM_KEYS[2:])
    for key, digest in zip(_TRANSFORM_KEYS[4:], fitted_on):
        if len(digest) != 64 or digest.strip("0123456789abcdef"):
            raise ParameterError(f"{path}: {key} {digest!r} is not 64 lowercase hex digits")
    try:
        return AlignmentTransform(
            TimePeriod.parse(source), TimePeriod.parse(target), matrix, shared, tuple(fitted_on)
        )
    except ParameterError as exc:
        raise ParameterError(f"{path}: {exc}") from exc
