"""Continuous bag-of-words embedding training with negative sampling.

Self-contained single-worker trainer: context vectors inside a fixed window
are averaged to predict the center word against ``negatives`` noise words
drawn from the alpha-smoothed unigram distribution. Frequent words are
dropped with the classic rate-based rule (keep probability
``min(1, sqrt(rate / fraction))``).

Each sentence (document) is trained in blocks of at most
``min(BLOCK_POSITIONS, max(1, BLOCK_SLOTS // (2 * window)))`` consecutive
kept positions, one minibatch per block: every position reads the vectors as
they stood at the start of its block, and the block's summed gradients are
applied once. Context windows span the whole kept sentence, so they are not
cut at block edges. A negative draw equal to its center word gets weight 0.
Per sentence the random stream is the keep-mask draw,
``rng.random(len(sentence))``, then every position's negatives,
``rng.random((kept, negatives))`` in row-major order, the same doubles in
the same order as a one-position-at-a-time trainer consumes.

Updates use einsum and scipy sparse products, never BLAS, so given a seed
training is bit-identical across runs and BLAS thread counts; multi-worker
modes would waive that contract and are not offered.
"""

from __future__ import annotations

import numpy as np

from .corpus import PeriodCorpus
from .embeddings import EmbeddingSet, smoothed_distribution
from .errors import ComputationUndefinedError, ParameterError
from .lexicon import create_vocabulary

# Consecutive kept positions of one sentence trained as one minibatch; the
# cap is word2vec's MAX_SENTENCE_LENGTH.
BLOCK_POSITIONS = 1000
# Context slots (positions x 2 * window) a block may gather; binds above window 32.
BLOCK_SLOTS = 1 << 16

LR_START = 0.025
LR_END = 0.0001


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _train_block(
    vectors_in: np.ndarray,
    vectors_out: np.ndarray,
    kept: np.ndarray,
    windows: np.ndarray,
    targets: np.ndarray,
    lr: float,
) -> float:
    """Apply one block's summed CBOW updates in place and return its loss sum.

    ``windows`` holds, per position, the kept-sentence indices of its context
    slots (out-of-range slots at sentence edges are masked); ``targets`` holds
    the center word followed by its negative draws. Every position reads the
    vectors as they stood before the block.
    """
    import scipy.sparse as sp  # here, not at module level: see embeddings.svd_embeddings

    rows = len(windows)
    valid = (windows >= 0) & (windows < len(kept))
    position, slot = np.nonzero(valid)
    context_ids, context_col = np.unique(kept[windows[position, slot]], return_inverse=True)
    mean = sp.csr_matrix(
        (1.0 / valid.sum(axis=1)[position], (position, context_col)),
        shape=(rows, len(context_ids)),
    )
    hidden = mean @ vectors_in[context_ids]

    # A negative equal to its center word carries weight 0 (word2vec skips it).
    weight = np.ones(targets.shape)
    weight[:, 1:] = targets[:, 1:] != targets[:, :1]
    labels = np.zeros(targets.shape)
    labels[:, 0] = 1.0

    out_rows = vectors_out[targets]
    predictions = _sigmoid(np.einsum("bkd,bd->bk", out_rows, hidden))
    loss = -np.sum(np.log(predictions[:, 0] + 1e-12)) - np.sum(
        weight[:, 1:] * np.log(1.0 - predictions[:, 1:] + 1e-12)
    )

    # The sparse products sum the updates of a word id that repeats among
    # the targets or the contexts of the block.
    gradient = (predictions - labels) * lr * weight
    hidden_error = np.einsum("bk,bkd->bd", gradient, out_rows)
    target_ids, target_col = np.unique(targets, return_inverse=True)
    scatter = sp.csr_matrix(
        (gradient.ravel(), (target_col.ravel(), np.repeat(np.arange(rows), targets.shape[1]))),
        shape=(len(target_ids), rows),
    )
    vectors_out[target_ids] -= scatter @ hidden
    vectors_in[context_ids] -= mean.T @ hidden_error
    return float(loss)


def train_cbow(
    leaf: PeriodCorpus,
    dim: int = 300,
    window: int = 2,
    negatives: int = 5,
    downsample: float = 1e-5,
    smoothing_alpha: float = 0.75,
    seed: int = 1,
    epochs: int = 5,
) -> EmbeddingSet:
    """Train CBOW vectors for one period leaf and return the input-side matrix.

    The learning rate decays linearly from ``LR_START`` to ``LR_END`` over
    the scheduled token budget (epochs x corpus tokens). The returned set
    records the mean negative-sampling loss of each epoch in
    ``training_loss``.
    """
    if dim < 1:
        raise ParameterError("embedding dim must be at least 1")
    if window < 1:
        raise ParameterError("window must be at least 1")
    if negatives < 1:
        raise ParameterError("negatives must be at least 1")
    if epochs < 1:
        raise ParameterError("epochs must be at least 1")
    if seed < 0:
        raise ParameterError("seed must be at least 0")
    ids = leaf.require_token_ids()
    vocab = create_vocabulary(leaf)
    if not vocab.entries or vocab.token_total == 0:
        raise ComputationUndefinedError(
            f"period {leaf.period.label} has an empty vocabulary; nothing to train on"
        )

    index = {w: i for i, w in enumerate(vocab.entries)}
    counts = np.array(list(vocab.entries.values()), dtype=np.float64)

    # Out-of-vocabulary tokens are dropped before windowing, as usual for
    # word2vec-style training.
    bounds = leaf.doc_offsets.tolist()
    sentences = [
        ids[a:b][ids[a:b] >= 0].astype(np.int64) for a, b in zip(bounds, bounds[1:])
    ]
    sentences = [s for s in sentences if len(s) > 1]
    if not sentences:
        raise ComputationUndefinedError(
            f"period {leaf.period.label} has no trainable sentence after filtering"
        )
    # a context slot past the longest sentence is always empty, so a wider window trains alike
    window = min(window, max(map(len, sentences)) - 1)

    total = counts.sum()
    if downsample > 0:
        keep_prob = np.minimum(1.0, np.sqrt(downsample / (counts / total)))
    else:
        keep_prob = np.ones_like(counts)

    noise_cdf = np.cumsum(smoothed_distribution(counts, smoothing_alpha, leaf.period))

    rng = np.random.default_rng(seed)
    size = len(index)
    try:
        vectors_in = (rng.random((size, dim)) - 0.5) / dim
        vectors_out = np.zeros((size, dim))
    except (ValueError, MemoryError) as exc:
        raise ParameterError(f"embedding dim {dim} is too large: {exc}") from exc
    window_offsets = np.concatenate((np.arange(-window, 0), np.arange(1, window + 1)))
    block = min(BLOCK_POSITIONS, max(1, BLOCK_SLOTS // (2 * window)))

    budget = float(epochs) * sum(len(s) for s in sentences)
    consumed = 0
    epoch_losses: list[float] = []

    for _ in range(epochs):
        loss_sum = 0.0
        loss_examples = 0
        for sentence in sentences:
            lr = max(LR_END, LR_START + (LR_END - LR_START) * (consumed / budget))
            consumed += len(sentence)
            kept = sentence[rng.random(len(sentence)) < keep_prob[sentence]]
            n = len(kept)
            if n < 2:
                continue  # no position has a context, so no negatives are drawn
            try:
                draws = np.searchsorted(noise_cdf, rng.random((n, negatives)))
            except (ValueError, MemoryError) as exc:
                raise ParameterError(f"negatives {negatives} is too large: {exc}") from exc
            np.clip(draws, 0, size - 1, out=draws)
            targets = np.column_stack((kept, draws))
            for start in range(0, n, block):
                stop = min(start + block, n)
                windows = np.arange(start, stop)[:, None] + window_offsets
                loss_sum += _train_block(
                    vectors_in, vectors_out, kept, windows, targets[start:stop], lr
                )
            loss_examples += n
        epoch_losses.append(loss_sum / max(1, loss_examples))

    return EmbeddingSet(
        period=leaf.period,
        vocab_index=index,
        matrix=vectors_in,
        provenance="cbow",
        training_loss=epoch_losses,
    )
