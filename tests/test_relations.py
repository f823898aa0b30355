"""Metamorphic relations of the embedding half: exact properties of SVD word
vectors, orthogonal Procrustes and the change measure, which hold at any size
and need no golden bytes (Schönemann 1966, "A generalized solution of the
orthogonal Procrustes problem"; Hamilton, Leskovec & Jurafsky 2016, whose
change measure assumes them).

Each relation runs on a pair of periods at three sizes, one per solver route
of ``svd_embeddings``: the fixture corpus (the full SVD), and synthetic
association matrices of 600 words (the Gram route) and 1,200 words
(``svds``). The bounds, with the largest deviation measured on the seed-1
``flow-1m`` stores (2,902 shared words, dim 100) beside each:

- rotating either set by an orthogonal Q and realigning moves
  ``semantic_change`` by at most ``EXACT`` = 1e-12 (1.9e-15) and keeps every
  aligned top-10 list;
- scaling a set by 3 moves ``semantic_change`` by at most ``EXACT`` (8.9e-16);
- R(A->B) is within ``EXACT`` of R(B->A).T (7.7e-15), and aligning a set to a
  copy of itself gives R within ``EXACT`` of I (5.1e-15);
- relabelling an association matrix, rows and columns permuted alike, keeps
  every word's vector within ``RELABEL`` = 1e-10 (2.1e-12 on ``svds``);
- permuting a set's rows, with ``vocab_index`` permuted to match, gives a
  byte-identical transform: row i is the word ``vocab_index`` maps to i.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import PERIOD_1930, PERIOD_1980, series_values
from diacorpus.alignment import aligned_most_similar, procrustes_align, semantic_change
from diacorpus.embeddings import (
    _DENSE_SVD_LIMIT,
    _GRAM_MIN_SIZE,
    CSRArrays,
    EmbeddingSet,
    PPMIMatrix,
    build_ppmi,
    count_cooccurrences,
    svd_embeddings,
)

EXACT = 1e-12
RELABEL = 1e-10
QUERIES = 20  # words per relation, spread over the shared vocabulary


def _synthetic_ppmi(rng, factors, words, period):
    """A nonnegative symmetric association matrix of planted rank, its smallest
    nine tenths of cells dropped, over ``words`` in the given row order."""
    dense = (factors * 0.7 ** np.arange(factors.shape[1])) @ factors.T
    dense[dense < np.quantile(dense, 0.9)] = 0.0
    return _ppmi(dense, {w: i for i, w in enumerate(words)}, period)


def _ppmi(dense, vocab_index, period):
    rows, cols = np.nonzero(dense)
    values = CSRArrays.from_sorted(rows, cols, dense[rows, cols], len(dense))
    return PPMIMatrix(period, vocab_index, values, 0.75)


def _synthetic_pair(size):
    """Two periods of ``size`` words sharing nine tenths of them, the later one
    with noisier factors and its rows in another order."""
    rng = np.random.default_rng(size)
    extra = size // 10
    factors = rng.gamma(0.5, size=(size + extra, 40))
    words = [f"w{i:04d}" for i in range(size + extra)]
    earlier = _synthetic_ppmi(rng, factors[:size], words[:size], PERIOD_1930)
    later_rows = extra + rng.permutation(size)
    noise = rng.lognormal(0.0, 0.1, size=(size, 40))
    later = _synthetic_ppmi(
        rng, factors[later_rows] * noise, [words[i] for i in later_rows], PERIOD_1980
    )
    return earlier, later


ROUTES = {
    "full": lambda n, dim: n < _GRAM_MIN_SIZE,
    "gram": lambda n, dim: _GRAM_MIN_SIZE <= n <= _DENSE_SVD_LIMIT and 5 * dim <= 3 * n,
    "svds": lambda n, dim: n > _DENSE_SVD_LIMIT and dim < n,
}


@pytest.fixture(scope="module", params=list(ROUTES))
def pair(request, fixture_tree):
    """(earlier PPMI, earlier set, later set, sampled shared words) on one solver route."""
    if request.param == "full":
        earlier, later = (build_ppmi(count_cooccurrences(leaf, 2)) for leaf in fixture_tree.leaves())
        dim = 16
    else:
        earlier, later = _synthetic_pair({"gram": 600, "svds": 1200}[request.param])
        dim = 24
    for ppmi in (earlier, later):
        assert ROUTES[request.param](len(ppmi.vocab_index), dim)
    sets = [svd_embeddings(ppmi, dim)[0] for ppmi in (earlier, later)]
    shared = sorted(set(sets[0].vocab_index) & set(sets[1].vocab_index))
    assert len(shared) >= dim
    step = max(len(shared) // QUERIES, 1)
    return earlier, *sets, shared[::step][:QUERIES]


def _with_matrix(embedding_set, matrix):
    return EmbeddingSet(
        embedding_set.period, embedding_set.vocab_index, matrix, "svd"
    )


def _orthogonal(dim, seed):
    q, r = np.linalg.qr(np.random.default_rng(seed).normal(size=(dim, dim)))
    return q * np.sign(np.diag(r))


def _changes(words, earlier, later):
    step = procrustes_align(later, earlier)
    return np.array([series_values(semantic_change(w, [earlier, later], [step]))[1] for w in words])


def _aligned_lists(words, earlier, later):
    step = procrustes_align(later, earlier)
    return [[w for w, _ in aligned_most_similar(q, 10, later, earlier, step)] for q in words]


@pytest.mark.parametrize("rotated", ["earlier", "later"])
def test_rotating_a_set_and_realigning_changes_nothing(pair, rotated):
    _, earlier, later, words = pair
    q = _orthogonal(earlier.dim, seed=7)
    moved = {
        "earlier": (_with_matrix(earlier, earlier.matrix @ q), later),
        "later": (earlier, _with_matrix(later, later.matrix @ q)),
    }[rotated]
    assert np.max(np.abs(_changes(words, *moved) - _changes(words, earlier, later))) <= EXACT
    assert _aligned_lists(words, *moved) == _aligned_lists(words, earlier, later)


def test_scaling_a_set_changes_no_change_measure(pair):
    _, earlier, later, words = pair
    for moved in [(_with_matrix(earlier, earlier.matrix * 3.0), later),
                  (earlier, _with_matrix(later, later.matrix * 3.0))]:
        assert np.max(np.abs(_changes(words, *moved) - _changes(words, earlier, later))) <= EXACT


def test_reverse_transform_is_the_transpose_and_self_alignment_the_identity(pair):
    _, earlier, later, _ = pair
    forward = procrustes_align(earlier, later).matrix
    backward = procrustes_align(later, earlier).matrix
    assert np.max(np.abs(forward - backward.T)) <= EXACT
    copy = EmbeddingSet(PERIOD_1980, earlier.vocab_index, earlier.matrix.copy(), "svd")
    identity = procrustes_align(earlier, copy).matrix
    assert np.max(np.abs(identity - np.eye(earlier.dim))) <= EXACT


def _permutation(size, seed=3):
    """``new[i]``: the row that row i moves to."""
    return np.random.default_rng(seed).permutation(size)


def test_relabelling_the_association_matrix_keeps_every_vector(pair):
    ppmi, earlier, _, _ = pair
    size = len(ppmi.vocab_index)
    new = _permutation(size)
    dense = np.zeros((size, size))
    dense[np.ix_(new, new)] = ppmi.values.toarray()
    index = {w: int(new[i]) for w, i in ppmi.vocab_index.items()}
    relabelled, _ = svd_embeddings(_ppmi(dense, index, ppmi.period), earlier.dim)
    drift = max(np.max(np.abs(relabelled.vector(w) - earlier.vector(w))) for w in index)
    assert drift <= RELABEL


def test_permuting_a_sets_rows_with_its_index_gives_the_same_transform_bytes(pair):
    _, earlier, later, _ = pair
    new = _permutation(len(earlier.vocab_index))
    matrix = np.empty_like(earlier.matrix)
    matrix[new] = earlier.matrix
    index = {w: int(new[i]) for w, i in earlier.vocab_index.items()}
    permuted = EmbeddingSet(earlier.period, index, matrix, "svd")
    for source, target in [(earlier, later), (later, earlier)]:
        fitted = procrustes_align(source, target)
        swapped = procrustes_align(*(permuted if s is earlier else s for s in (source, target)))
        assert swapped.matrix.tobytes() == fitted.matrix.tobytes()
        assert swapped.shared_vocab == fitted.shared_vocab
