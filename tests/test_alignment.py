import re

import numpy as np
import pytest

from diacorpus.alignment import (
    AlignmentTransform,
    aligned_most_similar,
    alignment_residual,
    procrustes_align,
    read_transform,
    semantic_change,
    write_transform,
)
from diacorpus.corpus import TimePeriod
from diacorpus.embeddings import EmbeddingSet, cosine, most_similar
from diacorpus.errors import (
    ComputationUndefinedError,
    OutOfVocabularyError,
    ParameterError,
)

from conftest import (
    PERIOD_1930,
    PERIOD_1980,
    TRANSFORM_CORRUPTIONS,
    UNPICKLED,
    store_arrays,
    write_corrupt_store,
)

PERIOD_1940 = TimePeriod(1940, 1949)


def _set(matrix, period=PERIOD_1930, words=None):
    n, d = matrix.shape
    words = words or [f"w{i:02d}" for i in range(n)]
    return EmbeddingSet(
        period=period,
        vocab_index={w: i for i, w in enumerate(words)},
        matrix=matrix,
        dim=d,
        provenance="svd",
    )


def _planted_rotation(dim, rng=None):
    q = np.eye(dim)
    q[0, 0] = q[1, 1] = 0.0
    q[0, 1] = -1.0
    q[1, 0] = 1.0
    return q


class TestTransformValidation:
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf * 0 in the Gram
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_rejected(self, bad):
        with pytest.raises(ParameterError, match="is not orthogonal"):
            AlignmentTransform(
                PERIOD_1980, PERIOD_1930, np.array([[bad, 0.0], [0.0, 1.0]]), ["aa"],
                ("0" * 64, "1" * 64),
            )


class TestProcrustes:
    def test_self_alignment_is_identity(self):
        rng = np.random.default_rng(0)
        a = _set(rng.normal(size=(30, 8)))
        transform = procrustes_align(a, a)
        assert np.max(np.abs(transform.matrix - np.eye(8))) <= 1e-8

    def test_planted_rotation_recovered(self):
        rng = np.random.default_rng(1)
        base = rng.normal(size=(40, 10))
        q = _planted_rotation(10)
        a = _set(base, PERIOD_1930)
        b = _set(base @ q, PERIOD_1980)
        transform = procrustes_align(a, b)
        assert np.max(np.abs(transform.matrix - q)) <= 1e-6

    def test_orthogonality_on_random_inputs(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a = _set(rng.normal(size=(25, 6)), PERIOD_1930)
            b = _set(rng.normal(size=(25, 6)), PERIOD_1980)
            transform = procrustes_align(a, b)
            gram = transform.matrix.T @ transform.matrix
            assert np.max(np.abs(gram - np.eye(6))) <= 1e-8

    def test_residual_beats_identity_and_random_rotations(self):
        rng = np.random.default_rng(3)
        a = _set(rng.normal(size=(30, 6)), PERIOD_1930)
        b = _set(rng.normal(size=(30, 6)), PERIOD_1980)
        transform = procrustes_align(a, b)
        fitted = alignment_residual(transform, a, b)
        identity = np.linalg.norm(a.matrix - b.matrix)
        assert fitted <= identity + 1e-9
        for _ in range(100):
            q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
            random_residual = np.linalg.norm(a.matrix @ q - b.matrix)
            assert fitted <= random_residual + 1e-9

    def test_dim_mismatch_rejected(self):
        rng = np.random.default_rng(4)
        a = _set(rng.normal(size=(10, 4)), PERIOD_1930)
        b = _set(rng.normal(size=(10, 6)), PERIOD_1980)
        with pytest.raises(ParameterError):
            procrustes_align(a, b)

    def test_insufficient_shared_vocab_rejected(self):
        rng = np.random.default_rng(5)
        a = _set(rng.normal(size=(3, 2)), PERIOD_1930, words=["aa", "bb", "cc"])
        single_shared = _set(rng.normal(size=(2, 2)), PERIOD_1980, words=["aa", "zz"])
        with pytest.raises(ComputationUndefinedError):
            procrustes_align(a, single_shared)
        disjoint = _set(rng.normal(size=(2, 2)), PERIOD_1980, words=["yy", "zz"])
        with pytest.raises(ComputationUndefinedError):
            procrustes_align(a, disjoint)

    def test_small_shared_vocab_warns(self):
        rng = np.random.default_rng(6)
        a = _set(rng.normal(size=(3, 8)), PERIOD_1930, words=["aa", "bb", "cc"])
        b = _set(rng.normal(size=(3, 8)), PERIOD_1980, words=["aa", "bb", "dd"])
        with pytest.warns(UserWarning, match="shared words"):
            procrustes_align(a, b)

    def test_pairwise_cosines_preserved_by_transform(self):
        rng = np.random.default_rng(7)
        a = _set(rng.normal(size=(40, 8)), PERIOD_1930)
        b = _set(rng.normal(size=(40, 8)), PERIOD_1980)
        transform = procrustes_align(a, b)
        rotated = transform.apply(a.matrix)
        for _ in range(100):
            i, j = rng.integers(0, 40, size=2)
            assert cosine(a.matrix[i], a.matrix[j]) == pytest.approx(
                cosine(rotated[i], rotated[j]), abs=1e-8
            )


class TestAlignedMostSimilar:
    def test_identity_alignment_matches_plain_ranking(self):
        rng = np.random.default_rng(8)
        a = _set(rng.normal(size=(20, 6)))
        aligned = aligned_most_similar("w03", 21, a, a)
        # the query ranks itself first under self-alignment; the rest must
        # match the plain ranking, which excludes the query
        plain = most_similar("w03", 5, a)
        filtered = [(w, v) for w, v in aligned if w != "w03"][:5]
        assert [w for w, _ in filtered] == [w for w, _ in plain]
        for (_, got), (_, want) in zip(filtered, plain):
            assert got == pytest.approx(want, abs=1e-6)

    def test_word_absent_from_base_still_returns_neighbors(self):
        rng = np.random.default_rng(9)
        base_words = [f"w{i:02d}" for i in range(10)]
        target_words = base_words[:-1] + ["yeni"]
        base = _set(rng.normal(size=(10, 4)), PERIOD_1930, words=base_words)
        target = _set(rng.normal(size=(10, 4)), PERIOD_1980, words=target_words)
        ranking = aligned_most_similar("yeni", 4, target, base)
        assert len(ranking) == 4
        assert all(w in base.vocab_index for w, _ in ranking)

    def test_oov_in_target_period(self):
        rng = np.random.default_rng(10)
        a = _set(rng.normal(size=(5, 3)), PERIOD_1980)
        b = _set(rng.normal(size=(5, 3)), PERIOD_1930)
        with pytest.raises(OutOfVocabularyError):
            aligned_most_similar("yok", 3, a, b)

    def test_fixture_recovers_old_counterparts(self, fixture_tree):
        from diacorpus.embeddings import build_ppmi, count_cooccurrences, svd_embeddings

        sets = {}
        for leaf in fixture_tree.leaves():
            embedding, _ = svd_embeddings(build_ppmi(count_cooccurrences(leaf, 2), 0.75), 16)
            sets[leaf.period] = embedding
        ranking = aligned_most_similar(
            "televizyon", 10, sets[PERIOD_1980], sets[PERIOD_1930]
        )
        assert "radyo" in [w for w, _ in ranking]
        ranking = aligned_most_similar("belge", 10, sets[PERIOD_1980], sets[PERIOD_1930])
        assert "vesika" in [w for w, _ in ranking]


class TestSemanticChange:
    def _three_rotated_sets(self, seed=11):
        rng = np.random.default_rng(seed)
        base = rng.normal(size=(30, 6))
        q1 = _planted_rotation(6)
        q2, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        return [
            _set(base, PERIOD_1930),
            _set(base @ q1, PERIOD_1940),
            _set(base @ q1 @ q2, PERIOD_1980),
        ]

    def test_starting_period_is_zero(self):
        sets = self._three_rotated_sets()
        series = semantic_change("w00", sets)
        assert series.values()[0] == 0.0

    def test_pure_rotations_are_undone_by_composition(self):
        sets = self._three_rotated_sets()
        series = semantic_change("w07", sets)
        assert all(v == pytest.approx(0.0, abs=1e-8) for v in series.values())

    def test_composition_order(self):
        # each later period reaches the base through the product of the
        # consecutive steps, latest first; the direct fit maps it the same way
        sets = self._three_rotated_sets()
        for later in (1, 2):
            direct = procrustes_align(sets[later], sets[0])
            for word in sets[0].words():
                got = semantic_change(word, sets).values()[later]
                aligned = direct.apply(sets[later].vector(word))
                want = 1.0 - cosine(aligned, sets[0].vector(word))
                assert abs(got - want) <= 1e-8

    def test_missing_word_yields_null_entries(self):
        sets = self._three_rotated_sets()
        series = semantic_change("yok", sets)
        assert series.values() == [None, None, None]

    def test_fixture_stationary_vs_swapped(self, fixture_tree):
        from diacorpus.embeddings import build_ppmi, count_cooccurrences, svd_embeddings

        sets = []
        for leaf in fixture_tree.leaves():
            embedding, _ = svd_embeddings(build_ppmi(count_cooccurrences(leaf, 2), 0.75), 16)
            sets.append(embedding)
        stationary = semantic_change("kanun", sets).values()
        swapped = semantic_change("piyasa", sets).values()
        assert stationary[0] == 0.0
        assert stationary[1] < 0.2
        assert swapped[1] > stationary[1]

    def test_transform_period_validation(self):
        sets = self._three_rotated_sets()
        wrong = procrustes_align(sets[2], sets[0])
        with pytest.raises(ParameterError):
            semantic_change("w00", sets, [wrong, wrong])


class TestTransformPeriods:
    """A transform fitted on other periods is a usage error with one message,
    whichever query applies it."""

    MESSAGE = "transform maps 1940-1949->1930-1939, not 1980-1989->1930-1939"

    def _sets(self):
        rng = np.random.default_rng(14)
        return [_set(rng.normal(size=(10, 4)), p) for p in (PERIOD_1930, PERIOD_1940, PERIOD_1980)]

    def test_aligned_most_similar(self):
        base, middle, target = self._sets()
        other = procrustes_align(middle, base)
        with pytest.raises(ParameterError, match=f"^{re.escape(self.MESSAGE)}$"):
            aligned_most_similar("w00", 3, target, base, other)

    def test_semantic_change(self):
        base, middle, later = self._sets()
        other = procrustes_align(middle, base)
        with pytest.raises(ParameterError, match=f"^{re.escape(self.MESSAGE)}$"):
            semantic_change("w00", [base, later], [other])


class TestTransformDim:
    """A transform fitted at one dim, applied to sets of another, is a usage
    error naming its periods and both dims, not a numpy shape error."""

    def _sets(self, dim, seed=12):
        rng = np.random.default_rng(seed)
        return _set(rng.normal(size=(10, dim)), PERIOD_1930), _set(
            rng.normal(size=(10, dim)), PERIOD_1980
        )

    def test_aligned_most_similar(self):
        base, target = self._sets(4)
        stale = procrustes_align(*reversed(self._sets(6)))
        with pytest.raises(ParameterError, match=r"1980-1989->1930-1939 is 6-dim, .* 4-dim"):
            aligned_most_similar("w00", 3, target, base, stale)

    def test_semantic_change(self):
        base, later = self._sets(4)
        stale = procrustes_align(*reversed(self._sets(6)))
        with pytest.raises(ParameterError, match=r"1980-1989->1930-1939 is 6-dim, .* 4-dim"):
            semantic_change("w00", [base, later], [stale])


class TestTransformFit:
    """A transform applies only to the two sets it was fitted on: a set of the
    same dim with other vectors is a usage error naming the transform."""

    def _sets(self, seed):
        rng = np.random.default_rng(seed)
        return _set(rng.normal(size=(10, 4)), PERIOD_1930), _set(
            rng.normal(size=(10, 4)), PERIOD_1980
        )

    def test_fitted_on_records_the_set_digests(self):
        base, target = self._sets(12)
        transform = procrustes_align(target, base)
        assert transform.fitted_on == (target.digest(), base.digest())
        assert len(set(transform.fitted_on)) == 2

    def test_aligned_most_similar(self):
        base, target = self._sets(12)
        stale = procrustes_align(self._sets(13)[1], base)
        with pytest.raises(ParameterError, match=r"1980-1989->1930-1939 was fitted on other"):
            aligned_most_similar("w00", 3, target, base, stale)
        assert aligned_most_similar("w00", 3, target, base, procrustes_align(target, base))

    def test_semantic_change(self):
        base, later = self._sets(12)
        stale = procrustes_align(later, self._sets(13)[0])
        with pytest.raises(ParameterError, match=r"run align --from 1980-1989 --to 1930-1939"):
            semantic_change("w00", [base, later], [stale])


class TestTransformFiles:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(12)
        a = _set(rng.normal(size=(20, 5)), PERIOD_1980)
        b = _set(rng.normal(size=(20, 5)), PERIOD_1930)
        transform = procrustes_align(a, b)
        path = tmp_path / "transform.npz"
        write_transform(transform, path)
        loaded = read_transform(path)
        assert np.array_equal(loaded.matrix, transform.matrix)
        assert loaded.source_period == PERIOD_1980
        assert loaded.target_period == PERIOD_1930
        assert loaded.shared_vocab == transform.shared_vocab
        assert loaded.fitted_on == transform.fitted_on

    def test_store_arrays_and_their_order(self, tmp_path):
        """``matrix`` as fitted, the shared words as UTF-8 bytes joined by newlines, and
        the periods and digests as 0-d strings; nothing else."""
        rotation = np.array([[0.0, -1.0], [1.0, 0.0]])
        fitted_on = ("0" * 64, "f" * 64)
        shared = ["İçğıöşü", "âîû", "kitab\x00"]
        write_transform(
            AlignmentTransform(PERIOD_1980, PERIOD_1930, rotation, shared, fitted_on),
            tmp_path / "t.npz",
        )
        arrays = store_arrays(tmp_path / "t.npz")
        assert list(arrays) == [
            "matrix", "shared", "source", "target", "source_sha256", "target_sha256"
        ]
        assert arrays["matrix"].dtype == np.float64
        assert arrays["matrix"].tobytes() == rotation.tobytes()
        assert arrays["shared"].dtype == np.uint8
        assert arrays["shared"].tobytes() == "İçğıöşü\nâîû\nkitab\x00".encode("utf-8")
        strings = {key: (arrays[key].shape, str(arrays[key])) for key in list(arrays)[2:]}
        assert strings == {
            "source": ((), "1980-1989"),
            "target": ((), "1930-1939"),
            "source_sha256": ((), "0" * 64),
            "target_sha256": ((), "f" * 64),
        }

    @pytest.mark.parametrize("name", TRANSFORM_CORRUPTIONS)
    def test_corrupt_store_is_parameter_error_naming_the_file(self, tmp_path, name):
        rng = np.random.default_rng(13)
        transform = procrustes_align(
            _set(rng.normal(size=(20, 5)), PERIOD_1980), _set(rng.normal(size=(20, 5)))
        )
        path = tmp_path / "transform.npz"
        write_transform(transform, path)
        write_corrupt_store(path, TRANSFORM_CORRUPTIONS[name][0])
        with pytest.raises(ParameterError, match=re.escape(f"{path}: ")) as info:
            read_transform(path)
        assert TRANSFORM_CORRUPTIONS[name][1] in str(info.value)
        assert UNPICKLED == []
