import hashlib
import math
import random
import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from diacorpus.corpus import CHUNK_VALUES, PeriodCorpus
from diacorpus.embeddings import (
    CSRArrays,
    EmbeddingSet,
    PPMIMatrix,
    build_ppmi,
    collocations,
    cosine,
    count_cooccurrences,
    most_similar,
    read_embeddings,
    read_ppmi,
    smoothed_distribution,
    svd_embeddings,
    write_embeddings,
    write_ppmi,
)
from diacorpus.errors import (
    ComputationUndefinedError,
    OutOfVocabularyError,
    ParameterError,
)
from diacorpus.lexicon import Vocabulary

from conftest import (
    PERIOD_1930,
    STORE_CORRUPTIONS,
    UNPICKLED,
    assert_canonical,
    document_sequences,
    row_order,
    store_arrays,
    stored_cells,
    write_corrupt_store,
)


def synthetic_word(i):
    # letter-only so the alphabetic filter keeps it
    return "w" + chr(ord("a") + i // 26) + chr(ord("a") + i % 26)


def random_texts(rng, max_types=20, max_tokens=200):
    """A random small corpus of synthetic words, keyed by document id."""
    n_types = rng.randint(2, max_types)
    words = [synthetic_word(i) for i in range(n_types)]
    docs = {}
    remaining = rng.randint(n_types, max_tokens)
    d = 0
    while remaining > 0:
        length = min(remaining, rng.randint(1, 30))
        docs[f"d{d}"] = " ".join(rng.choice(words) for _ in range(length))
        remaining -= length
        d += 1
    return docs


def random_leaf(rng, max_types=20, max_tokens=200):
    """A synthetic preprocessed leaf with a random small corpus."""
    leaf = PeriodCorpus.from_texts(PERIOD_1930, random_texts(rng, max_types, max_tokens))
    assert leaf.vocabulary.entries, "synthetic corpus lost its vocabulary to filtering"
    return leaf


def oracle_dense_counts(texts, vocabulary, window):
    """Independent dense co-occurrence counting by explicit pair enumeration."""
    order = row_order(vocabulary.entries)
    index = {w: i for i, w in enumerate(order)}
    dense = np.zeros((len(order), len(order)))
    for seq in document_sequences(texts):
        for i in range(len(seq)):
            for j in range(len(seq)):
                if i != j and abs(i - j) <= window:
                    if seq[i] in index and seq[j] in index:
                        dense[index[seq[i]], index[seq[j]]] += 1
    return dense


def oracle_dense_ppmi(dense_counts, alpha):
    """Direct dense evaluation of the smoothed positive association formula."""
    grand = dense_counts.sum()
    size = len(dense_counts)
    row_totals = dense_counts.sum(axis=1)
    col_totals = dense_counts.sum(axis=0)
    smoothed = col_totals**alpha
    p_col = smoothed / smoothed.sum()
    out = np.zeros_like(dense_counts, dtype=float)
    for i in range(size):
        for j in range(size):
            if dense_counts[i, j] == 0:
                continue
            p_uv = dense_counts[i, j] / grand
            p_u = row_totals[i] / grand
            value = math.log(p_uv / (p_u * p_col[j]))
            out[i, j] = max(value, 0.0)
    return out


class TestCooccurrence:
    def test_single_pair(self):
        leaf = PeriodCorpus.from_texts(PERIOD_1930, {"d": "aa bb"})
        matrix = count_cooccurrences(leaf, window=2)
        assert matrix.pair_count("aa", "bb") == 1
        assert matrix.pair_count("bb", "aa") == 1
        assert matrix.grand_total == 2

    def test_single_token(self):
        leaf = PeriodCorpus.from_texts(PERIOD_1930, {"d": "aa"})
        matrix = count_cooccurrences(leaf, window=5)
        assert matrix.grand_total == 0

    def test_hand_enumerated_golden(self):
        # tokens a b a b, window 2: unordered in-window pairs are
        # (0,1) ab, (0,2) aa, (1,2) ba, (1,3) bb, (2,3) ab
        leaf = PeriodCorpus.from_texts(PERIOD_1930, {"d": "aa bb aa bb"})
        matrix = count_cooccurrences(leaf, window=2)
        assert matrix.pair_count("aa", "bb") == 3
        assert matrix.pair_count("bb", "aa") == 3
        assert matrix.pair_count("aa", "aa") == 2
        assert matrix.pair_count("bb", "bb") == 2
        assert matrix.grand_total == 10

    def test_symmetry_and_grand_total_on_random_corpora(self):
        rng = random.Random(101)
        nonempty = 0
        for _ in range(10):
            texts = random_texts(rng)
            leaf = PeriodCorpus.from_texts(PERIOD_1930, texts)
            window = rng.randint(1, 4)
            matrix = count_cooccurrences(leaf, window)
            dense = matrix.counts.toarray()
            assert np.array_equal(dense, dense.T)
            assert matrix.grand_total % 2 == 0
            oracle = oracle_dense_counts(texts.values(), leaf.vocabulary, window)
            assert np.array_equal(dense, oracle)
            nonempty += matrix.grand_total > 0
        assert nonempty >= 8  # the check must not pass vacuously

    def test_invalid_window(self):
        leaf = PeriodCorpus.from_texts(PERIOD_1930, {"d": "aa bb"})
        with pytest.raises(ParameterError):
            count_cooccurrences(leaf, window=0)

    def test_counting_stops_at_the_longest_document(self, fixture_tree, monkeypatch):
        import diacorpus.embeddings as embeddings_mod
        from diacorpus.lexicon import same_document

        leaf = fixture_tree.leaves()[0]
        longest = int(np.diff(leaf.doc_offsets).max())
        shifts = []

        def counted(doc_offsets, shift):
            shifts.append(shift)
            return same_document(doc_offsets, shift)

        monkeypatch.setattr(embeddings_mod, "same_document", counted)
        wide = count_cooccurrences(leaf, 10**12)
        assert 0 < len(shifts) <= longest - 1
        narrow = count_cooccurrences(leaf, longest - 1)
        assert wide.window == 10**12
        assert np.array_equal(wide.counts.toarray(), narrow.counts.toarray())


class TestSmoothedDistribution:
    def test_equals_the_normalized_powers(self):
        counts = np.array([0, 1, 3, 12, 40000], dtype=np.int64)
        powers = counts.astype(np.float64) ** 0.75
        assert smoothed_distribution(counts, 0.75, PERIOD_1930).tobytes() == (
            powers / powers.sum()
        ).tobytes()

    @pytest.mark.parametrize(
        "counts, alpha",
        [([1, 2], 1e6), ([12, 20], -1e6), ([1, 2], -1e6), ([0, 2], -0.5), ([1, 2], 2000.0)],
        ids=["overflow", "all-underflow", "one-underflows", "zero-count", "sum-overflows"],
    )
    def test_no_finite_distribution_names_alpha_and_period(self, counts, alpha):
        with pytest.raises(ComputationUndefinedError, match=f"alpha {alpha!r} .* 1930-1939"):
            smoothed_distribution(np.array(counts), alpha, PERIOD_1930)


class TestPpmi:
    def test_degenerate_single_type(self):
        leaf = PeriodCorpus.from_texts(PERIOD_1930, {"d": "aa aa aa aa"})
        ppmi = build_ppmi(count_cooccurrences(leaf, window=2))
        assert ppmi.association("aa", "aa") == 0.0

    def test_never_cooccurring_pair_is_zero(self):
        leaf = PeriodCorpus.from_texts(PERIOD_1930, {"d1": "aa bb", "d2": "cc dd"})
        ppmi = build_ppmi(count_cooccurrences(leaf, window=2))
        assert ppmi.association("aa", "cc") == 0.0

    def test_empty_counts_rejected(self):
        leaf = PeriodCorpus.from_texts(PERIOD_1930, {"d": "aa"})
        with pytest.raises(ComputationUndefinedError):
            build_ppmi(count_cooccurrences(leaf, window=2))

    def test_three_type_corpus_matches_dense_oracle(self):
        leaf = PeriodCorpus.from_texts(
            PERIOD_1930, {"d1": "aa bb cc aa", "d2": "bb cc bb aa cc"}
        )
        matrix = count_cooccurrences(leaf, window=2)
        ppmi = build_ppmi(matrix, alpha=0.75)
        expected = oracle_dense_ppmi(matrix.counts.toarray().astype(float), 0.75)
        assert np.allclose(ppmi.values.toarray(), expected, atol=1e-12)

    def test_matches_dense_oracle_on_random_corpora(self):
        rng = random.Random(202)
        checked = 0
        for _ in range(25):
            leaf = random_leaf(rng)
            matrix = count_cooccurrences(leaf, window=rng.randint(1, 3))
            if matrix.grand_total == 0:
                continue
            alpha = rng.choice([0.5, 0.75, 1.0])
            ppmi = build_ppmi(matrix, alpha=alpha)
            expected = oracle_dense_ppmi(matrix.counts.toarray().astype(float), alpha)
            assert np.max(np.abs(ppmi.values.toarray() - expected)) <= 1e-12
            checked += 1
        assert checked >= 20  # the check must not pass vacuously


def _random_sparse_ppmi(rng, size, density=0.3):
    data = np.where(
        rng.random((size, size)) < density, rng.uniform(0.1, 3.0, (size, size)), 0.0
    )
    import scipy.sparse as sp

    index = {f"w{i:02d}": i for i in range(size)}
    from diacorpus.embeddings import PPMIMatrix

    return PPMIMatrix(
        period=PERIOD_1930, vocab_index=index, values=sp.csr_matrix(data), alpha=0.75
    )


class TestSvd:
    def test_scalar_case(self):
        import scipy.sparse as sp

        from diacorpus.embeddings import PPMIMatrix

        ppmi = PPMIMatrix(
            period=PERIOD_1930,
            vocab_index={"aa": 0},
            values=sp.csr_matrix(np.array([[4.0]])),
            alpha=0.75,
        )
        words, context = svd_embeddings(ppmi, dim=1)
        assert abs(abs(float(words.matrix[0, 0])) - 2.0) < 1e-12

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(5)
        ppmi = _random_sparse_ppmi(rng, 12)
        words, context = svd_embeddings(ppmi, dim=12)
        dense = ppmi.values.toarray()
        err = np.linalg.norm(words.matrix @ context.T - dense) / np.linalg.norm(dense)
        assert err <= 1e-6

    def test_truncation_error_equals_tail_singular_mass(self):
        leaf = PeriodCorpus.from_texts(
            PERIOD_1930, {"d1": "aa bb cc aa", "d2": "bb cc bb aa cc"}
        )
        ppmi = build_ppmi(count_cooccurrences(leaf, window=2))
        words, context = svd_embeddings(ppmi, dim=2)
        dense = ppmi.values.toarray()
        _, singular, _ = np.linalg.svd(dense)
        expected_err = math.sqrt(float(np.sum(singular[2:] ** 2)))
        actual_err = np.linalg.norm(words.matrix @ context.T - dense)
        assert actual_err == pytest.approx(expected_err, abs=1e-9)

    def test_orthonormal_left_vectors_and_descending_values(self):
        rng = np.random.default_rng(6)
        ppmi = _random_sparse_ppmi(rng, 20)
        words, context = svd_embeddings(ppmi, dim=20)
        norms = np.linalg.norm(words.matrix, axis=0)  # column norms = sqrt(s)
        assert np.all(np.diff(norms) <= 1e-10)
        u = words.matrix / np.where(norms > 0, norms, 1.0)
        gram = u.T @ u
        mask = norms > 1e-12
        assert np.max(np.abs(gram[np.ix_(mask, mask)] - np.eye(mask.sum()))) <= 1e-8

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        ppmi = _random_sparse_ppmi(rng, 15)
        a, _ = svd_embeddings(ppmi, dim=6)
        b, _ = svd_embeddings(ppmi, dim=6)
        assert np.array_equal(a.matrix, b.matrix)

    def test_dim_exceeding_vocab_rejected(self):
        rng = np.random.default_rng(8)
        ppmi = _random_sparse_ppmi(rng, 4)
        with pytest.raises(ParameterError):
            svd_embeddings(ppmi, dim=5)

    def test_sparse_iterative_path_agrees_with_dense(self):
        # vocabularies above the dense cutoff use iterative sparse SVD; it
        # must stay deterministic and match the dense decomposition
        import scipy.sparse as sp

        from diacorpus.embeddings import PPMIMatrix, _DENSE_SVD_LIMIT

        size = _DENSE_SVD_LIMIT + 30
        rng = np.random.default_rng(11)
        rows = rng.integers(0, size, 6000)
        cols = rng.integers(0, size, 6000)
        data = rng.uniform(0.1, 2.0, 6000)
        values = sp.csr_matrix((data, (rows, cols)), shape=(size, size))
        ppmi = PPMIMatrix(
            period=PERIOD_1930,
            vocab_index={f"w{i:04d}": i for i in range(size)},
            values=values,
            alpha=0.75,
        )
        words, context = svd_embeddings(ppmi, dim=6)
        again, _ = svd_embeddings(ppmi, dim=6)
        assert np.array_equal(words.matrix, again.matrix)
        _, dense_singular, _ = np.linalg.svd(values.toarray())
        iterative_singular = np.linalg.norm(words.matrix, axis=0) ** 2
        assert np.allclose(iterative_singular, dense_singular[:6], rtol=1e-8)
        # rank-6 truncation achieves the optimal Frobenius residual
        residual = np.linalg.norm(words.matrix @ context.T - values.toarray())
        optimal = np.sqrt(np.sum(dense_singular[6:] ** 2))
        assert residual == pytest.approx(optimal, rel=1e-9)


    def test_sparse_path_artifact_is_byte_identical(self, tmp_path):
        # a leaf whose vocabulary is above the dense cutoff: svds must write
        # the same embedding file on every run
        from diacorpus.embeddings import _DENSE_SVD_LIMIT

        rng = random.Random(1031)
        letters = "abcdefghijklmnopqrstuvwxyz"
        words = [f"w{a}{b}{c}" for a in letters[:3] for b in letters for c in letters]
        words = words[: _DENSE_SVD_LIMIT + 76]
        tokens = [w for w in words for _ in range(rng.randint(1, 6))]
        rng.shuffle(tokens)
        docs = {f"d{i}": " ".join(tokens[i : i + 200]) for i in range(0, len(tokens), 200)}
        leaf = PeriodCorpus.from_texts(PERIOD_1930, docs)
        assert len(leaf.vocabulary.entries) > _DENSE_SVD_LIMIT
        ppmi = build_ppmi(count_cooccurrences(leaf, window=2))
        for name in ("first", "second"):
            words_set, _ = svd_embeddings(ppmi, dim=8)
            write_embeddings(words_set, tmp_path / f"{name}.npz")
        for suffix in (".npz", ".vec"):
            first, second = (tmp_path / f"{name}{suffix}" for name in ("first", "second"))
            assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("size", [400, 900])
    @pytest.mark.parametrize("dim", [16, 100, "widest"])
    def test_gram_path_gives_the_exact_leading_triplets(self, size, dim):
        # 192-1,024 words keeping at most 3/5 of the spectrum go through the
        # Gram matrix; the result must be the optimal rank-dim factorization
        dim = 3 * size // 5 if dim == "widest" else dim
        rng = np.random.default_rng(size)
        values = _random_sparse_ppmi(rng, size, density=0.08).values
        words = [f"w{i:04d}" for i in rng.permutation(size)]
        ppmi = PPMIMatrix(PERIOD_1930, {w: i for i, w in enumerate(words)}, values, 0.75)
        embedding, context = svd_embeddings(ppmi, dim=dim)
        dense = values.toarray()
        exact = np.linalg.svd(dense, compute_uv=False)
        singular = np.linalg.norm(embedding.matrix, axis=0) ** 2
        assert np.allclose(singular, exact[:dim], rtol=1e-10, atol=0)
        residual = np.linalg.norm(embedding.matrix @ context.T - dense)
        assert residual == pytest.approx(np.sqrt(np.sum(exact[dim:] ** 2)), rel=1e-9)
        u = embedding.matrix / np.sqrt(singular)
        assert np.max(np.abs(u.T @ u - np.eye(dim))) <= 1e-12
        # row i is the word at vocab_index row i: W = A C / S for exact triplets
        assert embedding.vocab_index == ppmi.vocab_index
        scale = np.abs(embedding.matrix).max()
        assert np.max(np.abs(embedding.matrix - dense @ context / singular)) <= 1e-9 * scale
        again, _ = svd_embeddings(ppmi, dim=dim)
        assert again.matrix.tobytes() == embedding.matrix.tobytes()

    @pytest.mark.parametrize(
        "size, dim, solver",
        [
            (50, 16, "full"),
            (191, 16, "full"),
            (192, 16, "gram"),
            (600, 100, "gram"),
            (600, 360, "gram"),
            (600, 361, "full"),
            (600, 400, "full"),
            (1054, 6, "svds"),
        ],
    )
    def test_solver_for_each_size_and_dim(self, monkeypatch, size, dim, solver):
        import scipy.sparse.linalg

        calls = []

        def spy(name, fn):
            def recorded(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return recorded

        monkeypatch.setattr(np.linalg, "svd", spy("full", np.linalg.svd))
        monkeypatch.setattr(np.linalg, "eigh", spy("gram", np.linalg.eigh))
        monkeypatch.setattr(scipy.sparse.linalg, "svds", spy("svds", scipy.sparse.linalg.svds))
        ppmi = _random_sparse_ppmi(np.random.default_rng(size), size, density=0.08)
        svd_embeddings(ppmi, dim=dim)
        assert calls[0] == solver

    @staticmethod
    def _gram_route_ppmi():
        # 600 words at dim 24 take the Gram route; the values arrive as
        # CSRArrays, as they do from build_ppmi
        m = _random_sparse_ppmi(np.random.default_rng(600), 600, density=0.08).values
        values = CSRArrays(m.indptr, m.indices, m.data, m.shape)
        return PPMIMatrix(PERIOD_1930, {f"w{i:04d}": i for i in range(600)}, values, 0.75)

    def test_gram_route_gives_the_bytes_of_the_held_dense_sequence(self):
        # releasing the dense, Gram and eigenvector matrices early must not
        # change one byte against the sequence that held them to the end
        ppmi, dim = self._gram_route_ppmi(), 24
        dense = ppmi.values.toarray()
        _, eigenvectors = np.linalg.eigh(dense.T @ dense)
        top = eigenvectors[:, -dim:][:, ::-1]
        q, r = np.linalg.qr(dense @ top)
        ur, s, vrt = np.linalg.svd(r)
        u, v = q @ ur, top @ vrt.T
        flip = u[np.abs(u).argmax(axis=0), np.arange(dim)] < 0
        u[:, flip], v[:, flip] = -u[:, flip], -v[:, flip]
        words, context = svd_embeddings(ppmi, dim=dim)
        assert np.array_equal(words.matrix, u * np.sqrt(s))
        assert np.array_equal(context, v * np.sqrt(s))

    def test_gram_route_holds_at_most_two_square_matrices(self):
        # the dense matrix held through eigh made three n x n float64 arrays
        # (3.00 x n^2 * 8 B traced); LAPACK's workspace is not traced
        ppmi = self._gram_route_ppmi()
        svd_embeddings(ppmi, dim=24)  # warm-up: numpy's one-time allocations
        tracemalloc.start()
        try:
            svd_embeddings(ppmi, dim=24)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 600 * 600 * 8


class TestQueries:
    @pytest.fixture()
    def toy(self):
        leaf = PeriodCorpus.from_texts(
            PERIOD_1930, {"d1": "aa bb cc aa bb", "d2": "bb cc bb aa cc"}
        )
        ppmi = build_ppmi(count_cooccurrences(leaf, window=2))
        words, _ = svd_embeddings(ppmi, dim=3)
        return ppmi, words

    def test_self_similarity_is_one(self, toy):
        _, words = toy
        assert cosine(words.vector("aa"), words.vector("aa")) == pytest.approx(1.0, abs=1e-12)

    def test_most_similar_excludes_query(self, toy):
        _, words = toy
        ranking = most_similar("aa", 2, words)
        assert all(w != "aa" for w, _ in ranking)
        assert len(ranking) == 2

    def test_association_of_never_cooccurring_pair(self):
        leaf = PeriodCorpus.from_texts(PERIOD_1930, {"d1": "aa bb", "d2": "cc dd"})
        ppmi = build_ppmi(count_cooccurrences(leaf, window=2))
        assert ppmi.association("aa", "dd") == 0.0

    @pytest.mark.parametrize("source", ["built", "read"])
    def test_association_reads_stored_zero_and_oov_cells(self, tmp_path, source):
        leaf = PeriodCorpus.from_texts(PERIOD_1930, {"d1": "aa bb aa bb", "d2": "cc dd"})
        ppmi = build_ppmi(count_cooccurrences(leaf, window=1))
        expected = ppmi.values.toarray()
        if source == "read":
            write_ppmi(ppmi, tmp_path / "assoc.tsv")
            ppmi = read_ppmi(tmp_path / "assoc.tsv", leaf.vocabulary)
        aa, bb, dd = (ppmi.vocab_index[w] for w in ("aa", "bb", "dd"))
        assert expected[aa, bb] > 0  # a stored cell
        assert ppmi.association("aa", "bb") == expected[aa, bb]
        assert ppmi.association("aa", "dd") == expected[aa, dd] == 0.0  # a zero cell
        for pair in [("yok", "aa"), ("aa", "yok")]:
            with pytest.raises(OutOfVocabularyError, match="yok"):
                ppmi.association(*pair)

    def test_association_and_collocations_on_unsorted_rows(self):
        ppmi = _unsorted_csr_ppmi()
        canonical = PPMIMatrix(
            ppmi.period, ppmi.vocab_index, ppmi.values.sorted_indices(), ppmi.alpha, ppmi.window
        )
        assert ppmi.association("zz", "zz") == 1 / 3  # stored after a later column
        assert ppmi.association("mm", "zz") == 7.0
        assert ppmi.association("aa", "zz") == 0.0
        for word in ppmi.vocab_index:
            assert collocations(word, 3, ppmi) == collocations(word, 3, canonical)
        assert collocations("mm", 3, ppmi) == [("zz", 7.0), ("aa", 1e-300)]

    def test_collocations_match_dense_oracle_ranking(self, toy):
        ppmi, _ = toy
        dense = ppmi.values.toarray()
        order = sorted(ppmi.vocab_index, key=ppmi.vocab_index.__getitem__)
        i = ppmi.vocab_index["aa"]
        expected = sorted(
            (
                (order[j], dense[i, j])
                for j in range(len(order))
                if dense[i, j] > 0 and order[j] != "aa"
            ),
            key=lambda kv: (-kv[1], kv[0]),
        )
        actual = collocations("aa", len(order), ppmi)
        assert [w for w, _ in actual] == [w for w, _ in expected]
        for (_, got), (_, want) in zip(actual, expected):
            assert got == pytest.approx(want, abs=1e-12)

    def test_oov_error_names_word_and_period(self, toy):
        _, words = toy
        with pytest.raises(OutOfVocabularyError) as err:
            most_similar("yok", 3, words)
        assert "yok" in str(err.value)
        assert "1930-1939" in str(err.value)

    def test_cosine_invariant_under_orthogonal_rotation(self):
        rng = np.random.default_rng(9)
        matrix = rng.normal(size=(30, 8))
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        rotated = matrix @ q
        for _ in range(20):
            i, j = rng.integers(0, 30, size=2)
            assert cosine(matrix[i], matrix[j]) == pytest.approx(
                cosine(rotated[i], rotated[j]), abs=1e-8
            )


def reference_ppmi_text(ppmi):
    """The PPMI TSV formatted one entry at a time, in row-major order."""
    inverse = {idx: w for w, idx in ppmi.vocab_index.items()}
    rows, cols, data = stored_cells(ppmi.values)
    order = np.lexsort((cols, rows))
    lines = [f"#period={ppmi.period.label} #window={ppmi.window} #alpha={repr(ppmi.alpha)}"]
    for k in order:
        row, col = inverse[int(rows[k])], inverse[int(cols[k])]
        lines.append(f"{row}\t{col}\t{repr(float(data[k]))}")
    return "\n".join(lines) + "\n"


def reference_vec_text(embedding_set):
    """The ``.vec`` text formatted one row and one value at a time."""
    lines = [
        f"dim={embedding_set.dim} vocab={len(embedding_set.vocab_index)} "
        f"provenance={embedding_set.provenance} period={embedding_set.period.label}"
    ]
    for word in embedding_set.words():
        row = embedding_set.matrix[embedding_set.vocab_index[word]]
        lines.append(word + " " + " ".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def ppmi_with_entries(count, seed=0):
    """A PPMI matrix of ``count`` random cells and values, its words given rows at random."""
    size = math.isqrt(count) + 1
    rng = np.random.default_rng(seed)
    rows, cols = np.divmod(np.sort(rng.choice(size * size, count, replace=False)), size)
    values = CSRArrays.from_sorted(rows, cols, rng.uniform(1e-3, 9.0, count), size)
    index = dict(zip(rng.permutation([f"w{i}" for i in range(size)]).tolist(), range(size)))
    return PPMIMatrix(PERIOD_1930, index, values, alpha=0.75)


def zipf_leaf(tokens, size, seed=0):
    """A leaf holding only token ids (Zipf-distributed, a tenth filtered out) and a vocabulary."""
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, size + 1)
    ids = rng.choice(size, tokens, p=weights / weights.sum()).astype(np.int32)
    ids[rng.random(tokens) < 0.1] = -1
    leaf = PeriodCorpus(PERIOD_1930)
    leaf.token_ids["lemma"] = ids
    leaf.doc_offsets = np.linspace(0, tokens, 101).astype(np.int64)
    counts = np.bincount(ids[ids >= 0], minlength=size)
    leaf.vocabulary = Vocabulary(
        PERIOD_1930, {f"w{i:05d}": int(c) + 1 for i, c in enumerate(counts)}
    )
    return leaf


def _unsorted_csr_ppmi():
    # row 0 stores columns 2, 0 and row 2 stores 1, 0: CSR order is not row-major
    values = sp.csr_matrix(
        (np.array([0.1, 1 / 3, 2.5e16, 1e-300, 7.0]), np.array([2, 0, 1, 1, 0]),
         np.array([0, 2, 3, 5])),
        shape=(3, 3),
    )
    assert not values.has_sorted_indices
    return PPMIMatrix(PERIOD_1930, {"zz": 0, "aa": 1, "mm": 2}, values, alpha=0.75, window=3)


class TestFileFormats:
    @pytest.mark.parametrize(
        "source", ["unsorted-csr", "fixture", "empty", "one-chunk", "one-chunk-plus-one"]
    )
    def test_ppmi_bytes_equal_the_per_entry_reference(self, tmp_path, fixture_tree, source):
        if source == "unsorted-csr":
            matrices = [_unsorted_csr_ppmi()]
        elif source == "fixture":
            matrices = [build_ppmi(count_cooccurrences(leaf)) for leaf in fixture_tree.leaves()]
        elif source == "empty":
            matrices = [PPMIMatrix(PERIOD_1930, {"aa": 0}, sp.csr_matrix((1, 1)), alpha=0.75)]
        else:
            # write_ppmi renders CHUNK_VALUES entries per chunk
            matrices = [ppmi_with_entries(CHUNK_VALUES + (source == "one-chunk-plus-one"))]
        for i, ppmi in enumerate(matrices):
            path = tmp_path / f"assoc{i}.tsv"
            write_ppmi(ppmi, path)
            assert path.read_bytes() == reference_ppmi_text(ppmi).encode("utf-8")
        if source == "empty":
            assert path.read_bytes() == b"#period=1930-1939 #window=2 #alpha=0.75\n"

    @pytest.mark.parametrize("dim", [1, 7])
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_streamed_vectors_equal_the_one_string_render(self, tmp_path, dim, extra):
        # rows per chunk: CHUNK_VALUES // dim; cover one row short of a chunk,
        # exactly one chunk and one chunk plus a row
        words = CHUNK_VALUES // dim + extra
        rng = np.random.default_rng(dim)
        index = dict(zip(rng.permutation([f"w{i}" for i in range(words)]).tolist(), range(words)))
        matrix = rng.normal(size=(words, dim)) * 10.0 ** rng.integers(-300, 300, size=(words, dim))
        embedding_set = EmbeddingSet(PERIOD_1930, index, matrix, "svd")
        write_embeddings(embedding_set, tmp_path / "emb.npz")
        path = tmp_path / "emb.vec"
        assert path.read_bytes() == reference_vec_text(embedding_set).encode("utf-8")

    def test_embedding_roundtrip_is_lossless(self, tmp_path):
        rng = np.random.default_rng(10)
        index = {f"w{i}": i for i in range(6)}
        original = EmbeddingSet(
            period=PERIOD_1930,
            vocab_index=index,
            matrix=rng.normal(size=(6, 4)),
            provenance="svd",
        )
        write_embeddings(original, tmp_path / "emb.npz")
        loaded = read_embeddings(tmp_path / "emb.npz")
        assert np.array_equal(loaded.matrix, original.matrix)
        assert loaded.vocab_index == original.vocab_index
        assert loaded.provenance == "svd"
        write_embeddings(loaded, tmp_path / "emb2.npz")
        for suffix in (".npz", ".vec"):
            first, second = (tmp_path / f"{name}{suffix}" for name in ("emb", "emb2"))
            assert first.read_bytes() == second.read_bytes()

    def test_ppmi_roundtrip_is_lossless(self, tmp_path):
        leaf = PeriodCorpus.from_texts(
            PERIOD_1930, {"d1": "aa bb cc aa bb", "d2": "bb cc bb aa cc"}
        )
        ppmi = build_ppmi(count_cooccurrences(leaf, window=2))
        path = tmp_path / "assoc.tsv"
        write_ppmi(ppmi, path)
        loaded = read_ppmi(path, leaf.vocabulary)
        assert np.array_equal(loaded.values.toarray(), ppmi.values.toarray())
        assert loaded.vocab_index == ppmi.vocab_index

    def test_ppmi_read_of_shuffled_lines_gives_the_same_arrays(self, tmp_path, fixture_tree):
        leaf = fixture_tree.leaves()[0]
        path = tmp_path / "assoc.tsv"
        built = build_ppmi(count_cooccurrences(leaf))
        write_ppmi(built, path)
        header, *entries = path.read_text(encoding="utf-8").splitlines()
        random.Random(15).shuffle(entries)
        shuffled = tmp_path / "shuffled.tsv"
        shuffled.write_text("\n".join([header, *entries]) + "\n", encoding="utf-8")
        assert len(entries) > 100
        expected = built.values
        for actual in (expected, *(read_ppmi(p, leaf.vocabulary).values for p in (path, shuffled))):
            for name in ("indptr", "indices", "data"):
                got, want = getattr(actual, name), getattr(expected, name)
                assert got.dtype == want.dtype and np.array_equal(got, want), name
            assert actual.shape == expected.shape
            assert_canonical(actual)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda fields: fields[:2] + ["notanumber"],  # non-numeric value
            lambda fields: fields[:2],  # the value missing
            lambda fields: fields + ["0.5"],  # a field too many
        ],
    )
    def test_corrupt_ppmi_entry_names_file_and_line(self, tmp_path, corrupt):
        leaf = PeriodCorpus.from_texts(
            PERIOD_1930, {"d1": "aa bb cc aa bb", "d2": "bb cc bb aa cc"}
        )
        path = tmp_path / "assoc.tsv"
        write_ppmi(build_ppmi(count_cooccurrences(leaf, window=2)), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[1] = "\t".join(corrupt(lines[1].split("\t")))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ParameterError, match=r"assoc\.tsv: line 2\b"):
            read_ppmi(path, leaf.vocabulary)

    def test_ppmi_word_outside_the_vocabulary_names_file_and_line(self, tmp_path):
        leaf = PeriodCorpus.from_texts(
            PERIOD_1930, {"d1": "aa bb cc aa bb", "d2": "bb cc bb aa cc"}
        )
        path = tmp_path / "assoc.tsv"
        write_ppmi(build_ppmi(count_cooccurrences(leaf, window=2)), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[2] = "\t".join(["zz", *lines[2].split("\t")[1:]])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        named = r"assoc\.tsv: line 3: word not in vocabulary: 'zz"
        with pytest.raises(ParameterError, match=named):
            read_ppmi(path, leaf.vocabulary)


def _clean_store(path, words=("aa", "bb", "cc"), dim=2):
    """Write a store of ``words`` with distinct vectors; return the set written."""
    matrix = np.arange(len(words) * dim, dtype=np.float64).reshape(len(words), dim) - 2.5
    original = EmbeddingSet(PERIOD_1930, {w: i for i, w in enumerate(words)}, matrix, "svd")
    write_embeddings(original, path)
    return original


class TestEmbeddingRows:
    """Row i of an ``EmbeddingSet`` is the word that ``vocab_index`` maps to i: the
    index maps its words onto the rows 0..n-1, each row once."""

    def test_dim_is_the_matrix_width(self):
        matrix = np.zeros((3, 5))
        assert EmbeddingSet(PERIOD_1930, {"a": 0, "b": 1, "c": 2}, matrix, "svd").dim == 5

    def test_one_dimensional_matrix_is_parameter_error(self):
        with pytest.raises(ParameterError, match="must be 2-D, one row per word"):
            EmbeddingSet(PERIOD_1930, {"a": 0, "b": 1}, np.zeros(2), "svd")

    @pytest.mark.parametrize(
        "index", [{"a": 0, "b": 0, "c": 2}, {"a": 0, "b": 5, "c": 2}], ids=["shared", "past-end"]
    )
    def test_index_not_onto_each_row_once_is_parameter_error(self, index):
        matrix = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        with pytest.raises(ParameterError, match="onto rows 0..n-1, each row once"):
            EmbeddingSet(PERIOD_1930, index, matrix, "svd")

    def test_rows_in_any_word_order_are_written_as_held(self, tmp_path):
        index = {"c": 2, "a": 0, "b": 1}
        matrix = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        embedding_set = EmbeddingSet(PERIOD_1930, index, matrix, "svd")
        assert embedding_set.words() == ["a", "b", "c"]
        assert most_similar("a", 2, embedding_set) == [("c", pytest.approx(0.5 ** 0.5)), ("b", 0.0)]
        write_embeddings(embedding_set, tmp_path / "e.npz")
        assert (tmp_path / "e.vec").read_text(encoding="utf-8").splitlines()[1:] == [
            "a 1.0 0.0", "b 0.0 1.0", "c 1.0 1.0"
        ]

    def test_a_fortran_ordered_matrix_writes_the_bytes_of_its_c_ordered_copy(self, tmp_path):
        matrix = np.arange(6, dtype=np.float64).reshape(3, 2)
        for name, held in (("c", matrix), ("f", np.asfortranarray(matrix))):
            embedding_set = EmbeddingSet(PERIOD_1930, {"a": 0, "b": 1, "c": 2}, held, "svd")
            write_embeddings(embedding_set, tmp_path / f"{name}.npz")
        assert (tmp_path / "c.npz").read_bytes() == (tmp_path / "f.npz").read_bytes()
        assert read_embeddings(tmp_path / "f.npz").digest() == embedding_set.digest()


class TestVectorStore:
    def test_store_arrays_and_their_order(self, tmp_path):
        """``vectors`` in ``words()`` order, the words as UTF-8 bytes joined by newlines,
        and the period and provenance as 0-d strings; nothing else."""
        index = {"âîû": 1, "kitab\x00": 2, "İçğıöşü": 0}
        matrix = np.array([[1.0, -0.0], [2.5, 1e-300], [-3.0, 4.0]])
        write_embeddings(EmbeddingSet(PERIOD_1930, index, matrix, "cbow"), tmp_path / "e.npz")
        arrays = store_arrays(tmp_path / "e.npz")
        assert list(arrays) == ["vectors", "words", "period", "provenance"]
        assert arrays["vectors"].dtype == np.float64
        assert arrays["vectors"].tobytes() == matrix.tobytes()
        assert arrays["words"].dtype == np.uint8
        assert arrays["words"].tobytes() == "İçğıöşü\nâîû\nkitab\x00".encode("utf-8")
        assert (arrays["period"].shape, str(arrays["period"])) == ((), "1930-1939")
        assert (arrays["provenance"].shape, str(arrays["provenance"])) == ((), "cbow")
        loaded = read_embeddings(tmp_path / "e.npz")
        assert loaded.vocab_index == index
        assert loaded.matrix.tobytes() == matrix.tobytes()
        assert loaded.digest() == hashlib.sha256((tmp_path / "e.npz").read_bytes()).hexdigest()

    def test_empty_store_loads_without_a_warning(self, tmp_path):
        _clean_store(tmp_path / "e.npz", words=())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = read_embeddings(tmp_path / "e.npz")
        assert loaded.vocab_index == {}
        assert loaded.matrix.shape == (0, 2)

    @pytest.mark.parametrize("name", STORE_CORRUPTIONS)
    def test_corrupt_store_is_parameter_error_naming_the_file(self, tmp_path, name):
        path = tmp_path / "e.npz"
        _clean_store(path)
        write_corrupt_store(path, STORE_CORRUPTIONS[name][0])
        with pytest.raises(ParameterError, match=re.escape(f"{path}: ")) as info:
            read_embeddings(path)
        assert STORE_CORRUPTIONS[name][1] in str(info.value)
        assert UNPICKLED == []

    def test_pickled_store_trips_when_unpickled(self, tmp_path):
        """The tripwire of the pickled case works, so its silence above means no unpickling."""
        path = tmp_path / "e.npz"
        _clean_store(path)
        write_corrupt_store(path, STORE_CORRUPTIONS["pickled-vectors"][0])
        with np.load(path, allow_pickle=True) as store:
            store["vectors"]
        assert UNPICKLED == [True, True, True]
        UNPICKLED.clear()


class TestMemory:
    """Writing and counting hold one bounded chunk at a time, not a copy of the whole output."""

    def test_write_ppmi_peak_stays_below_twice_the_file(self, tmp_path):
        ppmi = ppmi_with_entries(200_000)
        path = tmp_path / "assoc.tsv"
        tracemalloc.start()
        try:
            write_ppmi(ppmi, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the whole-file render peaked at ~6x the file
        assert peak < 2 * path.stat().st_size

    def test_write_ppmi_over_an_identical_file_keeps_the_bound(self, tmp_path):
        ppmi = ppmi_with_entries(200_000)
        path = tmp_path / "assoc.tsv"
        write_ppmi(ppmi, path)
        inode = path.stat().st_ino
        tracemalloc.start()
        try:
            write_ppmi(ppmi, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # comparing with the old file adds one chunk-sized buffer, no copy of it
        assert path.stat().st_ino == inode
        assert peak < 2 * path.stat().st_size

    def test_count_peak_stays_below_four_key_arrays(self):
        leaf = zipf_leaf(250_000, 3_000)
        tracemalloc.start()
        try:
            matrix = count_cooccurrences(leaf, window=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one int64 key per directed in-window pair; the pair stack, its
        # reversed copy and np.unique's copies peaked at ~7.6x that
        key_bytes = 8 * matrix.grand_total
        assert matrix.counts.nnz > 100_000
        assert peak < 4 * key_bytes
