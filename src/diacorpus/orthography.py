"""Writing-convention trends: final-consonant variant ratios and circumflex use.

Loanwords may be spelled with a soft final consonant (-b, -d) or its hard
counterpart (-p, -t). Pairs are detected in the merged all-period vocabulary
so a form extinct in one period still pairs. ``ending_ratio_rows`` gives the
per-period soft and hard token totals and their ratio, whose fall tracks the
spelling shift. The -c/-ç and -g/-k classes exist but are not part of the
default analysis set because such endings are rare.

The ending analysis runs over surface forms, since stemming can canonicalize
final consonants and mask exactly the variation being measured; the
circumflex count runs over lemmas.
"""

from __future__ import annotations

from typing import Sequence

from .corpus import DiachronicCorpus, TimePeriod, csv_table, select_leaves
from .errors import ComputationUndefinedError, ParameterError
from .lexicon import Vocabulary, create_vocabulary, merge_vocabulary, occurrence_rate

PAIR_CLASSES: dict[str, tuple[str, str]] = {
    "b-p": ("b", "p"),
    "d-t": ("d", "t"),
    "c-ç": ("c", "ç"),
    "g-k": ("g", "k"),
    "g-ğ": ("g", "ğ"),
}
DEFAULT_CLASSES = ("b-p", "d-t")

# "et" is an auxiliary verb whose sheer frequency would swamp the d-t ratio.
EXCLUSIONS = frozenset({"et"})

CIRCUMFLEX_LETTERS = frozenset("âîûÂÎÛ")


def detect_variant_pairs(vocab: Vocabulary, pair_class: str) -> list[tuple[str, str]]:
    """Find soft/hard spelling pairs present in a (merged) vocabulary.

    A pair is two words identical except for the final soft/hard consonant.
    Each is emitted exactly once, as a ``(soft form, hard form)`` tuple. A
    pair is skipped when either of its forms is in ``EXCLUSIONS``.
    """
    if pair_class not in PAIR_CLASSES:
        raise ParameterError(
            f"unknown pair class {pair_class!r}; expected one of {sorted(PAIR_CLASSES)}"
        )
    soft_letter, hard_letter = PAIR_CLASSES[pair_class]
    words = vocab.entries
    pairs = []
    for word in sorted(words):
        if not word.endswith(soft_letter):
            continue
        counterpart = word[:-1] + hard_letter
        if counterpart not in words:
            continue
        if word in EXCLUSIONS or counterpart in EXCLUSIONS:
            continue
        pairs.append((word, counterpart))
    return pairs


def ending_ratio_rows(
    node: DiachronicCorpus,
    pair_class: str,
    periods: Sequence[TimePeriod] | None = None,
) -> list[tuple[TimePeriod, int, int, float | None]]:
    """Per-period (soft_total, hard_total, ratio) over the detected pairs.

    The totals sum the token frequencies of the pairs' soft and hard forms.
    Ratio is None where the hard side is absent.
    """
    merged = merge_vocabulary(node, periods=None, level="surface")
    pairs = detect_variant_pairs(merged, pair_class)
    if not pairs:
        raise ComputationUndefinedError(
            f"no {pair_class} variant pairs detected in the merged vocabulary"
        )
    rows = []
    for leaf in select_leaves(node, periods):
        vocab = create_vocabulary(leaf, "surface")
        soft_total = sum(vocab.frequency(soft) for soft, _ in pairs)
        hard_total = sum(vocab.frequency(hard) for _, hard in pairs)
        ratio = soft_total / hard_total if hard_total else None
        rows.append((leaf.period, soft_total, hard_total, ratio))
    return rows


def ending_ratio_csv(
    pair_class: str, rows: Sequence[tuple[TimePeriod, int, int, float | None]]
) -> str:
    """CSV of the ``ending_ratio_rows`` of one pair class."""
    return csv_table(
        ["period", "class", "soft_total", "hard_total", "ratio"],
        ((period.label, pair_class, soft, hard, ratio) for period, soft, hard, ratio in rows),
    )


def circumflex_frequency(
    node: DiachronicCorpus, periods: Sequence[TimePeriod] | None = None
) -> list[tuple[TimePeriod, int, float | None]]:
    """Circumflexed-letter occurrences per period: (period, raw count, per million tokens).

    Occurrences inside each vocabulary word are weighted by the word's token
    frequency. The per-million value is None for a period with no tokens.
    """
    rows = []
    for leaf in select_leaves(node, periods):
        vocab = create_vocabulary(leaf)
        raw, rate = occurrence_rate(vocab, lambda w: sum(ch in CIRCUMFLEX_LETTERS for ch in w))
        rows.append((leaf.period, raw, rate))
    return rows


def circumflex_csv(rows: Sequence[tuple[TimePeriod, int, float | None]]) -> str:
    """CSV of the ``circumflex_frequency`` rows."""
    return csv_table(
        ["period", "circumflex_raw", "circumflex_per_million"],
        ((period.label, count, rate) for period, count, rate in rows),
    )
