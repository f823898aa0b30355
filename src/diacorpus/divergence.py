"""Vocabulary comparison across periods: Jaccard, Jensen-Shannon, survival.

Jensen-Shannon divergence is computed in bits (base-2 logarithms) over the
normalized lemma-frequency distributions of two periods, with the midpoint
m = (p + q) / 2 and the convention 0 * log 0 = 0, so values live in [0, 1].
The per-word decomposition used for rankings satisfies
sum_w |c(w)| = JSD exactly, where
c(w) = 1/2 * (p(w) * log2(p(w)/m(w)) + q(w) * log2(q(w)/m(w)))
signed negative when the word is relatively more frequent in the first
period and positive when in the second.

numpy is imported inside the array functions, so ``survived_words`` and
``jaccard_matrix``, which compare word sets only, run without it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

from .corpus import DiachronicCorpus, TimePeriod, select_leaves
from .errors import ComputationUndefinedError, ParameterError
from .lexicon import Vocabulary, create_vocabulary

if TYPE_CHECKING:  # pragma: no cover - annotations only
    import numpy as np


def jaccard_similarity(vocab_a: Vocabulary, vocab_b: Vocabulary) -> float:
    """|A ∩ B| / |A ∪ B| over the filtered word sets."""
    set_a, set_b = set(vocab_a.entries), set(vocab_b.entries)
    union = set_a | set_b
    if not union:
        raise ComputationUndefinedError(
            f"Jaccard undefined for two empty vocabularies "
            f"({vocab_a.period.label}, {vocab_b.period.label})"
        )
    return len(set_a & set_b) / len(union)


def _distributions(vocab_a: Vocabulary, vocab_b: Vocabulary) -> tuple[list[str], np.ndarray, np.ndarray]:
    import numpy as np

    if not vocab_a.entries or not vocab_b.entries:
        empty = vocab_a if not vocab_a.entries else vocab_b
        raise ComputationUndefinedError(
            f"Jensen-Shannon undefined: vocabulary of {empty.period.label} is empty"
        )
    union = sorted(set(vocab_a.entries) | set(vocab_b.entries))
    p = np.array([vocab_a.entries.get(w, 0) for w in union], dtype=np.float64)
    q = np.array([vocab_b.entries.get(w, 0) for w in union], dtype=np.float64)
    return union, p / vocab_a.token_total, q / vocab_b.token_total


def _half_kl_terms(dist: np.ndarray, mid: np.ndarray) -> np.ndarray:
    import numpy as np

    # termwise p * log2(p / m) with 0 log 0 := 0
    terms = np.zeros_like(dist)
    mask = dist > 0
    terms[mask] = dist[mask] * np.log2(dist[mask] / mid[mask])
    return terms


def jensen_shannon(vocab_a: Vocabulary, vocab_b: Vocabulary) -> float:
    """JSD between two vocabularies' frequency distributions, in bits."""
    _, p, q = _distributions(vocab_a, vocab_b)
    m = (p + q) / 2.0
    return float(0.5 * (_half_kl_terms(p, m).sum() + _half_kl_terms(q, m).sum()))


def jsd_contributions(
    vocab_a: Vocabulary, vocab_b: Vocabulary, top_k: int
) -> list[tuple[str, float, TimePeriod]]:
    """Rank words by their individual share of the JSD between two periods.

    The magnitudes of all contributions sum to the total divergence; the
    returned ``(lemma, contribution, favoured period)`` rows keep the ``top_k``
    largest by magnitude, ties broken lexicographically. A negative value
    favours ``vocab_a``'s period, any other ``vocab_b``'s.
    """
    import numpy as np

    if top_k < 1:
        raise ParameterError("top_k must be at least 1")
    union, p, q = _distributions(vocab_a, vocab_b)
    m = (p + q) / 2.0
    magnitude = 0.5 * (_half_kl_terms(p, m) + _half_kl_terms(q, m))
    signs = np.where(p > q, -1.0, 1.0)
    items = sorted(
        zip(union, magnitude * signs),
        key=lambda kv: (-abs(kv[1]), kv[0]),
    )
    top = [(word, float(value)) for word, value in items[:top_k]]
    return [(word, value, vocab_a.period if value < 0 else vocab_b.period) for word, value in top]


def _pairwise_matrix(
    vocabularies: list[Vocabulary], cell: Callable[[Vocabulary, Vocabulary], float]
) -> list[tuple[TimePeriod, list[float]]]:
    """One ``(period, row)`` pair per vocabulary; each cell is computed once, for
    i <= j, and mirrored below the diagonal."""
    rows = [[0.0] * len(vocabularies) for _ in vocabularies]
    for i, vocab in enumerate(vocabularies):
        for j in range(i, len(vocabularies)):
            rows[i][j] = rows[j][i] = cell(vocab, vocabularies[j])
    return [(vocab.period, row) for vocab, row in zip(vocabularies, rows)]


def jaccard_matrix(
    node: DiachronicCorpus, periods: Sequence[TimePeriod] | None = None
) -> list[tuple[TimePeriod, list[float]]]:
    leaves = select_leaves(node, periods)
    return _pairwise_matrix([create_vocabulary(l) for l in leaves], jaccard_similarity)


def jsd_matrix(
    node: DiachronicCorpus, periods: Sequence[TimePeriod] | None = None
) -> list[tuple[TimePeriod, list[float]]]:
    leaves = select_leaves(node, periods)
    return _pairwise_matrix([create_vocabulary(l) for l in leaves], jensen_shannon)


def contributions_between(
    node: DiachronicCorpus, period_a: TimePeriod, period_b: TimePeriod, top_k: int
) -> list[tuple[str, float, TimePeriod]]:
    """JSD contributions ranking ``period_a`` against ``period_b``, in that order."""
    leaves = {leaf.period: leaf for leaf in select_leaves(node, [period_a, period_b])}
    vocab_a, vocab_b = (create_vocabulary(leaves[p]) for p in (period_a, period_b))
    return jsd_contributions(vocab_a, vocab_b, top_k)


def survived_words(
    node: DiachronicCorpus,
    base_period: TimePeriod,
    periods: Sequence[TimePeriod] | None = None,
) -> list[tuple[TimePeriod, int]]:
    """Per period at or after the base, how many base-period words still occur."""
    leaves = select_leaves(node, periods)
    base_leaf = next((l for l in leaves if l.period == base_period), None)
    if base_leaf is None:
        raise ParameterError(f"base period {base_period.label} is not in the range")
    base_words = set(create_vocabulary(base_leaf).entries)
    entries = []
    for leaf in leaves:
        if leaf.period < base_period:
            continue
        later_words = set(create_vocabulary(leaf).entries)
        entries.append((leaf.period, len(base_words & later_words)))
    return entries
