"""Continuous bag-of-words embedding training with negative sampling.

Self-contained single-worker trainer: context vectors inside a fixed window
are averaged to predict the center word against ``negatives`` noise words
drawn from the alpha-smoothed unigram distribution. Frequent words are
dropped with the classic rate-based rule (keep probability
``min(1, sqrt(rate / fraction))``). Given a seed, training is bit-identical
across runs; multi-worker modes would waive that contract and are not
offered.
"""

from __future__ import annotations

import numpy as np

from .corpus import PeriodCorpus
from .embeddings import EmbeddingSet
from .errors import ComputationUndefinedError, ParameterError
from .lexicon import create_vocabulary, vocabulary_order


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def train_cbow(
    leaf: PeriodCorpus,
    dim: int = 300,
    window: int = 2,
    negatives: int = 5,
    downsample: float = 1e-5,
    smoothing_alpha: float = 0.75,
    seed: int = 1,
    epochs: int = 5,
    lr_start: float = 0.025,
    lr_end: float = 0.0001,
) -> EmbeddingSet:
    """Train CBOW vectors for one period leaf and return the input-side matrix.

    The learning rate decays linearly from ``lr_start`` to ``lr_end`` over
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
    ids = leaf.require_token_ids()
    vocab = create_vocabulary(leaf)
    if not vocab.entries or vocab.token_total == 0:
        raise ComputationUndefinedError(
            f"period {leaf.period.label} has an empty vocabulary; nothing to train on"
        )

    order = vocabulary_order(vocab)
    index = {w: i for i, w in enumerate(order)}
    counts = np.array([vocab.entries[w] for w in order], dtype=np.float64)

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

    total = counts.sum()
    if downsample > 0:
        keep_prob = np.minimum(1.0, np.sqrt(downsample / (counts / total)))
    else:
        keep_prob = np.ones_like(counts)

    noise = counts**smoothing_alpha
    noise_cdf = np.cumsum(noise / noise.sum())

    rng = np.random.default_rng(seed)
    size = len(order)
    vectors_in = (rng.random((size, dim)) - 0.5) / dim
    vectors_out = np.zeros((size, dim))

    budget = float(epochs) * sum(len(s) for s in sentences)
    consumed = 0
    epoch_losses: list[float] = []

    for _ in range(epochs):
        loss_sum = 0.0
        loss_examples = 0
        for sentence in sentences:
            lr = max(lr_end, lr_start + (lr_end - lr_start) * (consumed / budget))
            consumed += len(sentence)
            kept = sentence[rng.random(len(sentence)) < keep_prob[sentence]]
            n = len(kept)
            for pos in range(n):
                lo = max(0, pos - window)
                hi = min(n, pos + window + 1)
                context = np.concatenate((kept[lo:pos], kept[pos + 1 : hi]))
                if len(context) == 0:
                    continue
                center = kept[pos]
                hidden = vectors_in[context].mean(axis=0)

                draws = np.searchsorted(noise_cdf, rng.random(negatives))
                np.clip(draws, 0, size - 1, out=draws)
                draws = draws[draws != center]
                targets = np.concatenate(([center], draws))
                labels = np.zeros(len(targets))
                labels[0] = 1.0

                out_rows = vectors_out[targets]
                scores = out_rows @ hidden
                predictions = _sigmoid(scores)
                loss_sum += -np.log(predictions[0] + 1e-12) - np.sum(
                    np.log(1.0 - predictions[1:] + 1e-12)
                )
                loss_examples += 1

                # subtract.at accumulates correctly when a word id repeats
                # among the negatives or inside the context window.
                gradient = (predictions - labels) * lr
                hidden_error = gradient @ out_rows
                np.subtract.at(vectors_out, targets, np.outer(gradient, hidden))
                np.subtract.at(vectors_in, context, hidden_error / len(context))
        epoch_losses.append(loss_sum / max(1, loss_examples))

    return EmbeddingSet(
        period=leaf.period,
        vocab_index=index,
        matrix=vectors_in,
        dim=dim,
        provenance="cbow",
        seed=seed,
        training_loss=epoch_losses,
    )
