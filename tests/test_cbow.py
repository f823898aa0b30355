import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diacorpus import cbow
from diacorpus.cbow import train_cbow
from diacorpus.corpus import PeriodCorpus
from diacorpus.embeddings import cosine
from diacorpus.errors import ComputationUndefinedError, ParameterError
from diacorpus.lexicon import vocabulary_order
from diacorpus.preprocess import FilterConfig

from conftest import PERIOD_1930, document_sequences

CLASS_A = ("karga", "martı", "serçe", "saka")
CLASS_B = ("çekiç", "keski", "burgu", "zımba")
CONTEXT_A = ("kanat", "tüy", "yuva")
CONTEXT_B = ("tamir", "usta", "alet")


def two_class_leaf(seed=42, docs=60):
    """Synthetic corpus where class members share contexts by construction."""
    rng = np.random.default_rng(seed)
    texts = {}
    for k in range(docs):
        heads, ctx = (CLASS_A, CONTEXT_A) if k % 2 == 0 else (CLASS_B, CONTEXT_B)
        words = []
        for _ in range(6):
            words += [str(rng.choice(heads)), str(rng.choice(ctx)), str(rng.choice(ctx))]
        texts[f"d{k}"] = " ".join(words)
    return PeriodCorpus.from_texts(PERIOD_1930, texts)


@pytest.fixture(scope="module")
def trained():
    leaf = two_class_leaf()
    return train_cbow(leaf, dim=16, window=2, negatives=5, downsample=0.0, seed=3, epochs=5)


class TestShapeAndDeterminism:
    def test_shape_and_finiteness(self, trained):
        vocab_size = len(trained.vocab_index)
        assert trained.matrix.shape == (vocab_size, 16)
        assert np.all(np.isfinite(trained.matrix))
        assert trained.provenance == "cbow"

    def test_same_seed_is_bit_identical(self, trained):
        again = train_cbow(
            two_class_leaf(), dim=16, window=2, negatives=5, downsample=0.0, seed=3, epochs=5
        )
        assert np.array_equal(trained.matrix, again.matrix)

    def test_different_seed_differs(self, trained):
        other = train_cbow(
            two_class_leaf(), dim=16, window=2, negatives=5, downsample=0.0, seed=4, epochs=5
        )
        assert not np.array_equal(trained.matrix, other.matrix)


class TestLearningSignal:
    def test_intra_class_similarity_exceeds_inter_class(self, trained):
        intra, inter = [], []
        for i, a in enumerate(CLASS_A):
            for b in CLASS_A[i + 1 :]:
                intra.append(cosine(trained.vector(a), trained.vector(b)))
            for b in CLASS_B:
                inter.append(cosine(trained.vector(a), trained.vector(b)))
        assert np.mean(intra) > np.mean(inter)

    def test_loss_decreases_first_to_last_epoch(self, trained):
        assert trained.training_loss is not None
        assert trained.training_loss[-1] < trained.training_loss[0]


class TestDownsampling:
    def test_high_rate_is_noop(self):
        leaf = two_class_leaf(seed=1, docs=10)
        dense = train_cbow(leaf, dim=8, window=2, downsample=0.0, seed=5, epochs=1)
        relaxed = train_cbow(
            two_class_leaf(seed=1, docs=10), dim=8, window=2, downsample=1.0, seed=5, epochs=1
        )
        # rate 1.0 keeps every word (keep probability clamps at 1), so the
        # run is identical to downsampling disabled
        assert np.array_equal(dense.matrix, relaxed.matrix)

    def test_aggressive_rate_changes_training(self):
        baseline = train_cbow(
            two_class_leaf(seed=1, docs=10), dim=8, window=2, downsample=0.0, seed=5, epochs=1
        )
        sampled = train_cbow(
            two_class_leaf(seed=1, docs=10), dim=8, window=2, downsample=1e-4, seed=5, epochs=1
        )
        assert not np.array_equal(baseline.matrix, sampled.matrix)


class TestValidation:
    def test_empty_corpus_rejected(self):
        leaf = PeriodCorpus.from_texts(PERIOD_1930, {"d": ""})
        with pytest.raises(ComputationUndefinedError):
            train_cbow(leaf, dim=4)

    def test_bad_parameters_rejected(self):
        leaf = two_class_leaf(seed=2, docs=4)
        with pytest.raises(ParameterError):
            train_cbow(leaf, dim=0)
        with pytest.raises(ParameterError):
            train_cbow(leaf, dim=4, window=0)
        with pytest.raises(ParameterError):
            train_cbow(leaf, dim=4, epochs=0)

    def test_negative_seed_rejected(self):
        leaf = two_class_leaf(seed=2, docs=4)
        with pytest.raises(ParameterError, match="seed"):
            train_cbow(leaf, dim=4, seed=-3)

    @pytest.mark.parametrize("size", [10**12, 10**20])
    @pytest.mark.parametrize("key", ["dim", "negatives"])
    def test_huge_size_rejected_naming_the_key(self, key, size):
        leaf = two_class_leaf(seed=2, docs=4)
        with pytest.raises(ParameterError, match=f"{key} {size} is too large"):
            train_cbow(leaf, **{"dim": 4, key: size}, downsample=0.0, epochs=1)

    @pytest.mark.parametrize("window", [10**12, 10**20])
    def test_window_past_the_longest_sentence_trains_alike(self, window):
        leaf = two_class_leaf(seed=2, docs=4)
        longest = int(np.diff(leaf.doc_offsets).max())
        capped = train_cbow(leaf, dim=4, window=longest - 1, downsample=0.0, epochs=1)
        wide = train_cbow(leaf, dim=4, window=window, downsample=0.0, epochs=1)
        assert np.array_equal(wide.matrix, capped.matrix)

    def test_context_windows_are_built_per_block(self):
        import scipy.sparse  # noqa: F401 - its first import would count toward the peak

        rng = np.random.default_rng(5)
        words = ["k" + "".join(rng.choice(list("abcdefgh"), 5)) for _ in range(300)]
        text = " ".join(rng.choice(words, size=20_000))
        config = FilterConfig(threshold_divisor=10_000_000)
        leaf = PeriodCorpus.from_texts(PERIOD_1930, {"d": text}, config)
        window = 50
        tracemalloc.start()
        try:
            train_cbow(leaf, dim=8, window=window, downsample=0.0, epochs=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # less than the int64 context indices of the whole 20,000-token sentence
        assert peak < 20_000 * 2 * window * 8

    def test_a_block_gathers_a_bounded_number_of_context_slots(self):
        import scipy.sparse  # noqa: F401 - its first import would count toward the peak

        rng = np.random.default_rng(7)
        words = ["k" + "".join(rng.choice(list("abcdefgh"), 5)) for _ in range(300)]
        text = " ".join(rng.choice(words, size=3_000))
        leaf = PeriodCorpus.from_texts(PERIOD_1930, {"d": text}, FilterConfig(10_000_000))
        tracemalloc.start()
        try:
            # the window is cut to the sentence, 2,999 slots on each side
            train_cbow(leaf, dim=8, window=10**12, downsample=0.0, epochs=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a few BLOCK_SLOTS-sized index arrays, not 1,000 positions x 5,998 slots
        assert peak < 16 * cbow.BLOCK_SLOTS * 8


def reference_cbow(
    vocabulary,
    sequences,
    block,
    dim,
    window,
    negatives,
    downsample,
    seed,
    epochs,
    alpha=0.75,
    lr=(0.025, 0.0001),
):
    """The per-position loop with the block rule, over the lemma strings of each document.

    Each position draws its own negatives, reads the vectors as they stood at
    the start of its block of ``block`` kept positions, and subtracts its
    update at once (so a block's updates are summed). Returns None when no
    sentence is trainable, else the input vectors, the per-epoch losses, the
    kept sentence lengths and the number of negative draws equal to their
    center.
    """
    order = vocabulary_order(vocabulary)
    index = {w: i for i, w in enumerate(order)}
    counts = np.array([vocabulary.entries[w] for w in order], dtype=np.float64)
    sentences = [
        np.array([index[w] for w in seq if w in index], dtype=np.int64) for seq in sequences
    ]
    sentences = [s for s in sentences if len(s) > 1]
    if not sentences:
        return None
    fraction = counts / counts.sum()
    keep_prob = np.minimum(1.0, np.sqrt(downsample / fraction)) if downsample > 0 else fraction**0
    noise = counts**alpha
    noise_cdf = np.cumsum(noise / noise.sum())

    rng = np.random.default_rng(seed)
    size = len(order)
    vectors_in = (rng.random((size, dim)) - 0.5) / dim
    vectors_out = np.zeros((size, dim))
    budget = float(epochs) * sum(len(s) for s in sentences)
    consumed = 0
    losses, kept_lengths, center_draws = [], [], 0
    for _ in range(epochs):
        loss_sum, examples = 0.0, 0
        for sentence in sentences:
            rate = max(lr[1], lr[0] + (lr[1] - lr[0]) * (consumed / budget))
            consumed += len(sentence)
            kept = sentence[rng.random(len(sentence)) < keep_prob[sentence]]
            n = len(kept)
            kept_lengths.append(n)
            for start in range(0, n, block):
                stale_in, stale_out = vectors_in.copy(), vectors_out.copy()
                for pos in range(start, min(n, start + block)):
                    context = [
                        kept[j]
                        for j in range(pos - window, pos + window + 1)
                        if j != pos and 0 <= j < n
                    ]
                    if not context:
                        continue
                    center = kept[pos]
                    draws = np.searchsorted(noise_cdf, rng.random(negatives))
                    draws = np.minimum(draws, size - 1)
                    center_draws += int(np.sum(draws == center))
                    targets = [center] + [d for d in draws if d != center]
                    hidden = stale_in[context].mean(axis=0)
                    out_rows = stale_out[targets]
                    predictions = 1.0 / (1.0 + np.exp(-(out_rows @ hidden)))
                    loss_sum += -np.log(predictions[0] + 1e-12) - np.sum(
                        np.log(1.0 - predictions[1:] + 1e-12)
                    )
                    examples += 1
                    labels = np.zeros(len(targets))
                    labels[0] = 1.0
                    gradient = (predictions - labels) * rate
                    np.subtract.at(vectors_out, targets, np.outer(gradient, hidden))
                    np.subtract.at(vectors_in, context, (gradient @ out_rows) / len(context))
        losses.append(loss_sum / max(1, examples))
    return vectors_in, losses, kept_lengths, center_draws


_WORDS = ["aa", "bb", "cc", "dd", "x1"]  # x1 fails the alphabetic filter


def _check_against_reference(documents, block, window, negatives, downsample, seed, epochs=2):
    """Train with the given block cap and require the reference's vectors and losses."""
    texts = [" ".join(doc) for doc in documents]
    leaf = PeriodCorpus.from_texts(
        PERIOD_1930,
        {f"d{i}": text for i, text in enumerate(texts)},
        FilterConfig(threshold_divisor=10_000_000),
    )
    params = dict(
        dim=3, window=window, negatives=negatives, downsample=downsample, seed=seed, epochs=epochs
    )
    expected = reference_cbow(leaf.vocabulary, document_sequences(texts), block, **params)
    with mock.patch.object(cbow, "BLOCK_POSITIONS", block):
        if expected is None:
            with pytest.raises(ComputationUndefinedError):
                train_cbow(leaf, **params)
            return None
        trained = train_cbow(leaf, **params)
    vectors, losses, _, _ = expected
    assert trained.matrix.shape == vectors.shape
    np.testing.assert_allclose(trained.matrix, vectors, rtol=0, atol=1e-12)
    np.testing.assert_allclose(trained.training_loss, losses, rtol=0, atol=1e-12)
    return expected


class TestBlockRuleAgainstLoopReference:
    @settings(max_examples=80, deadline=None)
    @given(
        documents=st.lists(st.lists(st.sampled_from(_WORDS), max_size=12), min_size=1, max_size=6),
        block=st.sampled_from([1, 2, 3, cbow.BLOCK_POSITIONS]),
        window=st.integers(1, 3),
        negatives=st.integers(1, 4),
        downsample=st.sampled_from([0.0, 0.05, 0.3]),
        seed=st.integers(0, 2**16),
    )
    # windows that reach across block edges
    @example([["aa", "bb", "cc", "dd", "aa", "bb", "cc"]], 2, 2, 3, 0.0, 7)
    def test_matches_reference(self, documents, block, window, negatives, downsample, seed):
        _check_against_reference(documents, block, window, negatives, downsample, seed)

    def test_one_token_sentences(self):
        documents = [["aa"], ["bb", "cc", "aa"], ["dd"], ["cc", "x1"]]
        _, _, kept_lengths, _ = _check_against_reference(documents, 2, 2, 3, 0.0, seed=1)
        assert kept_lengths == [3, 3]  # the one-token documents are not sentences

    def test_sentences_shorter_than_window(self):
        documents = [["aa", "bb"], ["cc", "dd", "aa"], ["bb", "x1", "cc"]]
        _check_against_reference(documents, cbow.BLOCK_POSITIONS, 5, 2, 0.0, seed=2)

    def test_negatives_equal_to_center(self):
        documents = [["aa", "bb"] * 6, ["bb", "aa", "aa", "bb"]]
        _, _, _, center_draws = _check_against_reference(
            documents, cbow.BLOCK_POSITIONS, 2, 8, 0.0, seed=3
        )
        assert center_draws > 0

    def test_downsampling_that_leaves_one_token(self):
        documents = [["aa", "bb", "cc", "dd"] * 2, ["aa", "bb", "aa"], ["cc", "dd", "cc", "aa"]]
        _, _, kept_lengths, _ = _check_against_reference(
            documents, cbow.BLOCK_POSITIONS, 2, 2, 0.05, seed=1
        )
        assert 1 in kept_lengths

    def test_sentence_longer_than_block_cap(self):
        rng = np.random.default_rng(11)
        documents = [[str(w) for w in rng.choice(_WORDS[:4], size=2 * cbow.BLOCK_POSITIONS + 300)]]
        _, _, kept_lengths, _ = _check_against_reference(
            documents, cbow.BLOCK_POSITIONS, 2, 3, 0.0, seed=4, epochs=1
        )
        assert cbow.BLOCK_POSITIONS == 1000
        assert kept_lengths[0] > 2 * cbow.BLOCK_POSITIONS
