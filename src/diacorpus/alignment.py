"""Cross-period embedding-space alignment and diachronic similarity queries.

Embedding spaces trained independently per period are only comparable after
rotating one onto the other. ``procrustes_align`` finds the orthogonal matrix
R minimizing ``||W1 @ R - W2||_F`` over the rows of the two periods' shared
vocabulary; the minimization itself is the contract, and every produced
transform is checked to beat the identity mapping's residual. Row-vector
convention throughout: ``aligned = vector @ R``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import TimePeriod, TimeSeriesResult, parse_numbers, read_artifact, write_artifact
from .embeddings import EmbeddingSet, cosine, rank_by_cosine
from .errors import ComputationUndefinedError, ParameterError
from .preprocess import is_word

_ORTHOGONALITY_TOL = 1e-8


@dataclass
class AlignmentTransform:
    """Orthogonal map from one period's embedding space into another's."""

    source_period: TimePeriod
    target_period: TimePeriod
    matrix: np.ndarray
    shared_vocab: list[str]

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
    if (
        transform.source_period != target_set.period
        or transform.target_period != base_set.period
    ):
        raise ParameterError(
            f"transform maps {transform.source_period.label}->"
            f"{transform.target_period.label}, not "
            f"{target_set.period.label}->{base_set.period.label}"
        )
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
    for i, (step, current) in enumerate(zip(transforms, ordered[1:])):
        if step.source_period != current.period or step.target_period != ordered[i].period:
            raise ParameterError(
                f"transform {i} maps {step.source_period.label}->"
                f"{step.target_period.label}; expected "
                f"{current.period.label}->{ordered[i].period.label}"
            )
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


def write_transform(transform: AlignmentTransform, path: str | Path) -> None:
    """Text export: header then d rows of d reals; row-vector convention (v @ R)."""
    dim = transform.dim
    lines = [
        f"d={dim} from={transform.source_period.label} to={transform.target_period.label}"
    ]
    for row in transform.matrix:
        lines.append(" ".join(repr(float(x)) for x in row))
    lines.append("#shared=" + " ".join(transform.shared_vocab))
    write_artifact(path, "\n".join(lines) + "\n")


def read_transform(path: str | Path) -> AlignmentTransform:
    """Load a transform file; a malformed file raises ParameterError naming it (and the line).

    The ``#shared=`` line of ``is_word`` words comes once, as the last non-blank line.
    """
    head, records = read_artifact(
        path, "transform", d=int, **{"from": TimePeriod.parse, "to": TimePeriod.parse}
    )
    dim = head["d"]
    if dim < 1:
        raise ParameterError(f"{path}: line 1: d={dim} is not a positive dimension")
    numbers = dict(records)
    shared_at, last = numbers.popitem() if numbers else (1, "")
    if not last.startswith("#shared="):
        raise ParameterError(f"{path}: the last line is not the '#shared=' line")
    for lineno, line in numbers.items():
        if line.startswith("#shared="):
            raise ParameterError(f"{path}: line {lineno}: a second '#shared=' line")
    matrix = parse_numbers(path, numbers, dim)
    if matrix.shape != (dim, dim):
        raise ParameterError(f"{path}: expected a {dim}x{dim} matrix, got {matrix.shape}")
    shared = last.removeprefix("#shared=").split(" ") if last != "#shared=" else []
    if not all(map(is_word, shared)):
        raise ParameterError(f"{path}: line {shared_at}: a shared word is empty or has whitespace")
    try:
        return AlignmentTransform(head["from"], head["to"], matrix, shared)
    except ParameterError as exc:
        raise ParameterError(f"{path}: {exc}") from exc
