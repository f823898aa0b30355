"""Acceptance suite: the toolkit's exit criteria, one pass/fail line each.

Every criterion runs at its stated tolerance; run with ``pytest -s`` to see
the per-criterion lines as they complete.
"""

import math
import random
import time
from contextlib import contextmanager

import numpy as np

from diacorpus.alignment import alignment_residual, procrustes_align
from diacorpus.cbow import train_cbow
from diacorpus.corpus import TimePeriod
from diacorpus.divergence import (
    jaccard_matrix,
    jensen_shannon,
    jsd_contributions,
    jsd_matrix,
)
from diacorpus.dictionary import crossover_period
from diacorpus.embeddings import (
    EmbeddingSet,
    build_ppmi,
    cosine,
    count_cooccurrences,
    svd_embeddings,
)
from diacorpus.lexicon import Vocabulary
from diacorpus.orthography import ending_ratio
from diacorpus.preprocess import frequency_threshold

from conftest import FIXTURES, GOLDEN, PERIOD_1930, PERIOD_1980, series_values
from e2e_flow import GOLDEN_FILES, run_flow
from test_divergence import _random_vocab_pair
from test_embeddings import oracle_dense_ppmi, random_leaf


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] {name}: FAIL")
        raise
    print(f"[ACCEPTANCE] {name}: PASS")


def test_ppmi_matches_dense_oracle():
    with criterion("PPMI oracle equivalence (25 corpora, <= 1e-12, < 5 s)"):
        rng = random.Random(4001)
        started = time.perf_counter()
        checked = 0
        attempts = 0
        while checked < 25:
            attempts += 1
            assert attempts <= 200, "random corpora keep coming up empty"
            leaf = random_leaf(rng, max_types=20, max_tokens=200)
            matrix = count_cooccurrences(leaf, window=rng.randint(1, 3))
            if matrix.grand_total == 0:
                continue
            ppmi = build_ppmi(matrix, alpha=0.75)
            expected = oracle_dense_ppmi(matrix.counts.toarray().astype(float), 0.75)
            assert np.max(np.abs(ppmi.values.toarray() - expected)) <= 1e-12
            checked += 1
        assert time.perf_counter() - started < 5.0


def test_frequency_threshold_rule():
    with criterion("Threshold rule ceil(N / 10_000_000) on the six pinned inputs"):
        cases = [0, 1, 5_000_000, 10_000_000, 10_000_001, 25_000_000]
        for n in cases:
            assert frequency_threshold(n) == math.ceil(n / 10_000_000)
        assert [frequency_threshold(n) for n in cases] == [0, 1, 1, 1, 2, 3]


def test_jsd_decomposition():
    with criterion("JSD decomposition (25 pairs, sum|c| == JSD within 1e-9)"):
        rng = random.Random(4002)
        for _ in range(25):
            vocab_a, vocab_b = _random_vocab_pair(rng)
            union = len(set(vocab_a.entries) | set(vocab_b.entries))
            ranking = jsd_contributions(vocab_a, vocab_b, top_k=union)
            total = sum(abs(v) for _, v in ranking.pairs)
            assert abs(total - jensen_shannon(vocab_a, vocab_b)) <= 1e-9
        same = Vocabulary(PERIOD_1930, {"a": 3, "b": 1})
        assert jensen_shannon(same, same) == 0.0
        left = Vocabulary(PERIOD_1930, {"a": 1})
        right = Vocabulary(PERIOD_1980, {"b": 1})
        assert jensen_shannon(left, right) == 1.0


def test_divergence_matrix_structure(fixture_tree):
    with criterion("Jaccard/JSD matrix structure (symmetry, diagonals, bounds)"):
        rng = random.Random(4003)
        random_vocabs = []
        for i in range(4):
            entries = {f"w{rng.randint(0, 30)}": rng.randint(1, 9) for _ in range(12)}
            random_vocabs.append(
                Vocabulary(TimePeriod(1900 + 10 * i, 1909 + 10 * i), entries)
            )
        from diacorpus.divergence import _pairwise_matrix

        matrices = [
            jaccard_matrix(fixture_tree),
            jsd_matrix(fixture_tree),
            _pairwise_matrix(random_vocabs, "jaccard"),
            _pairwise_matrix(random_vocabs, "jsd"),
        ]
        for matrix in matrices:
            values = matrix.values
            assert np.max(np.abs(values - values.T)) <= 1e-12
            diagonal = 1.0 if matrix.metric == "jaccard" else 0.0
            assert np.allclose(np.diag(values), diagonal, atol=1e-12)
            assert np.all(values >= -1e-12) and np.all(values <= 1.0 + 1e-12)


def test_svd_factorization():
    with criterion("SVD factorization (10 matrices, rel. error <= 1e-6, < 10 s)"):
        import scipy.sparse as sp

        from diacorpus.embeddings import PPMIMatrix

        rng = np.random.default_rng(4004)
        started = time.perf_counter()
        for _ in range(10):
            size = int(rng.integers(5, 51))
            dense = np.where(
                rng.random((size, size)) < 0.3, rng.uniform(0.1, 3.0, (size, size)), 0.0
            )
            ppmi = PPMIMatrix(
                period=PERIOD_1930,
                vocab_index={f"w{i:02d}": i for i in range(size)},
                values=sp.csr_matrix(dense),
                alpha=0.75,
            )
            words, context = svd_embeddings(ppmi, dim=size)
            norm = np.linalg.norm(dense)
            if norm > 0:
                err = np.linalg.norm(words.matrix @ context.T - dense) / norm
                assert err <= 1e-6
            column_norms = np.linalg.norm(words.matrix, axis=0)
            assert np.all(np.diff(column_norms) <= 1e-10)  # singular values descend
            mask = column_norms > 1e-12
            u = words.matrix[:, mask] / column_norms[mask]
            gram = u.T @ u
            assert np.max(np.abs(gram - np.eye(mask.sum()))) <= 1e-8
        assert time.perf_counter() - started < 10.0


def _random_set(rng, period, n=40, dim=12):
    return EmbeddingSet(
        period=period,
        vocab_index={f"w{i:02d}": i for i in range(n)},
        matrix=rng.normal(size=(n, dim)),
        provenance="svd",
    )


def test_procrustes():
    with criterion("Procrustes (orthogonality 1e-8, recovery 1e-6, optimality, < 10 s)"):
        rng = np.random.default_rng(4005)
        started = time.perf_counter()
        # (a) orthogonality on random inputs
        for _ in range(10):
            transform = procrustes_align(
                _random_set(rng, PERIOD_1930), _random_set(rng, PERIOD_1980)
            )
            gram = transform.matrix.T @ transform.matrix
            assert np.max(np.abs(gram - np.eye(transform.dim))) <= 1e-8
        # (b) planted-rotation recovery
        dim = 16
        base = rng.normal(size=(60, dim))
        planted = np.eye(dim)
        planted[0, 0] = planted[1, 1] = 0.0
        planted[0, 1], planted[1, 0] = -1.0, 1.0
        source = EmbeddingSet(PERIOD_1930, {f"w{i:02d}": i for i in range(60)}, base, "svd")
        target = EmbeddingSet(
            PERIOD_1980, {f"w{i:02d}": i for i in range(60)}, base @ planted, "svd"
        )
        recovered = procrustes_align(source, target)
        assert np.max(np.abs(recovered.matrix - planted)) <= 1e-6
        # (c) residual no worse than identity and 100 random orthogonal maps
        a = _random_set(rng, PERIOD_1930, n=50, dim=16)
        b = _random_set(rng, PERIOD_1980, n=50, dim=16)
        transform = procrustes_align(a, b)
        fitted = alignment_residual(transform, a, b)
        assert fitted <= np.linalg.norm(a.matrix - b.matrix) + 1e-9
        for _ in range(100):
            q, _ = np.linalg.qr(rng.normal(size=(16, 16)))
            assert fitted <= np.linalg.norm(a.matrix @ q - b.matrix) + 1e-9
        assert time.perf_counter() - started < 10.0


def test_alignment_preserves_cosines():
    with criterion("Alignment invariance (100 random pairs, cosines within 1e-8)"):
        rng = np.random.default_rng(4006)
        a = _random_set(rng, PERIOD_1930, n=60, dim=12)
        b = _random_set(rng, PERIOD_1980, n=60, dim=12)
        rotated = procrustes_align(a, b).apply(a.matrix)
        for _ in range(100):
            i, j = rng.integers(0, 60, size=2)
            before = cosine(a.matrix[i], a.matrix[j])
            after = cosine(rotated[i], rotated[j])
            assert abs(before - after) <= 1e-8


def test_cbow_sanity():
    with criterion("CBOW sanity (deterministic, class separation, loss decrease, < 60 s)"):
        from test_cbow import CLASS_A, CLASS_B, two_class_leaf

        started = time.perf_counter()
        first = train_cbow(
            two_class_leaf(), dim=16, window=2, negatives=5, downsample=0.0, seed=3, epochs=5
        )
        second = train_cbow(
            two_class_leaf(), dim=16, window=2, negatives=5, downsample=0.0, seed=3, epochs=5
        )
        assert np.array_equal(first.matrix, second.matrix)
        intra, inter = [], []
        for i, word_a in enumerate(CLASS_A):
            for word_b in CLASS_A[i + 1 :]:
                intra.append(cosine(first.vector(word_a), first.vector(word_b)))
            for word_b in CLASS_B:
                inter.append(cosine(first.vector(word_a), first.vector(word_b)))
        assert np.mean(intra) > np.mean(inter)
        assert first.training_loss[-1] < first.training_loss[0]
        assert time.perf_counter() - started < 60.0


def test_end_to_end_fixture_reproduces_goldens(tmp_path):
    with criterion("End-to-end fixture run (< 60 s, golden outputs byte-for-byte)"):
        config = str(FIXTURES / "fixture_config.json")
        out = tmp_path / "run"
        started = time.perf_counter()
        run_flow(config, str(out))
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0
        for rel in GOLDEN_FILES:
            actual = (out / rel).read_bytes()
            expected = (GOLDEN / rel.split("/")[-1]).read_bytes()
            assert actual == expected, f"{rel} differs from the frozen golden"


def test_fixture_mirrors_of_planted_phenomena(fixture_tree, fresh_tree):
    with criterion("Planted phenomena (crossover, aligned counterpart, declining ratio)"):
        # frequency crossover of the planted replacement pair
        assert crossover_period(fixture_tree, "gerek", "mucip") == PERIOD_1980
        # aligned neighbors recover the early-period counterpart in the top 10
        from diacorpus.alignment import aligned_most_similar

        sets = {}
        for leaf in fresh_tree.leaves():
            embedding, _ = svd_embeddings(build_ppmi(count_cooccurrences(leaf, 2), 0.75), 16)
            sets[leaf.period] = embedding
        ranking = aligned_most_similar("televizyon", 10, sets[PERIOD_1980], sets[PERIOD_1930])
        assert "radyo" in [w for w, _ in ranking]
        # soft-ending share declines monotonically
        values = series_values(ending_ratio(fixture_tree, "b-p"))
        assert all(a > b for a, b in zip(values, values[1:]))


def test_stats_report_field_names(tmp_path):
    with criterion("Stats report emits every descriptive-statistics field name"):
        import json

        from diacorpus.cli import main

        out = tmp_path / "stats-run"
        code = main(
            ["--config", str(FIXTURES / "fixture_config.json"), "--output-dir", str(out), "ingest"]
        )
        assert code == 0
        stats = json.loads((out / "stats.json").read_text(encoding="utf-8"))
        expected = [
            "The number of documents",
            "The number of words before filtering",
            "The number of words after filtering",
            "The number of unique surface level words",
            "The number of unique stems",
            "The number of unique stems after filtering",
            "Average token count per document",
        ]
        for row in list(stats["periods"].values()) + [stats["total"]]:
            for field in expected:
                assert field in row
        assert stats["total"]["The number of documents"] == 100
