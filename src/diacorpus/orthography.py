"""Writing-convention trends: final-consonant variant ratios and circumflex use.

Loanwords may be spelled with a soft final consonant (-b, -d) or its hard
counterpart (-p, -t). Pairs are detected in the merged all-period vocabulary
so a form extinct in one period still pairs, and the per-period ratio of
soft-form to hard-form token frequency tracks the spelling shift. The -c/-ç
and -g/-k classes exist but are not part of the default analysis set because
such endings are rare.

The ending analysis runs over surface forms by default, since stemming can
canonicalize final consonants and mask exactly the variation being measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .corpus import DiachronicCorpus, TimePeriod, TimeSeriesResult, csv_table, select_leaves
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
DEFAULT_EXCLUSIONS = frozenset({"et"})

CIRCUMFLEX_LETTERS = frozenset("âîûÂÎÛ")


@dataclass(frozen=True)
class VariantPair:
    """Two spellings identical except for the final soft/hard consonant."""

    soft_form: str
    hard_form: str
    pair_class: str

    def __post_init__(self) -> None:
        soft, hard = PAIR_CLASSES[self.pair_class]
        if not self.soft_form.endswith(soft) or not self.hard_form.endswith(hard):
            raise ParameterError(
                f"pair ({self.soft_form}, {self.hard_form}) does not match class {self.pair_class}"
            )
        if self.soft_form[:-1] != self.hard_form[:-1]:
            raise ParameterError(
                f"pair ({self.soft_form}, {self.hard_form}) differs beyond the final letter"
            )


def detect_variant_pairs(
    vocab: Vocabulary,
    pair_class: str,
    exclusions: frozenset[str] = DEFAULT_EXCLUSIONS,
) -> list[VariantPair]:
    """Find soft/hard spelling pairs present in a (merged) vocabulary.

    Each pair is emitted exactly once, soft form first. A pair is skipped
    when either of its forms is excluded.
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
        if word in exclusions or counterpart in exclusions:
            continue
        pairs.append(VariantPair(soft_form=word, hard_form=counterpart, pair_class=pair_class))
    return pairs


def ending_ratio_rows(
    node: DiachronicCorpus,
    pair_class: str,
    periods: Sequence[TimePeriod] | None = None,
    level: str = "surface",
    exclusions: frozenset[str] = DEFAULT_EXCLUSIONS,
) -> list[tuple[TimePeriod, int, int, float | None]]:
    """Per-period (soft_total, hard_total, ratio) over the detected pairs.

    The totals sum the token frequencies of the pairs' soft and hard forms.
    Ratio is None where the hard side is absent.
    """
    merged = merge_vocabulary(node, periods=None, level=level)
    pairs = detect_variant_pairs(merged, pair_class, exclusions)
    if not pairs:
        raise ComputationUndefinedError(
            f"no {pair_class} variant pairs detected in the merged vocabulary"
        )
    rows = []
    for leaf in select_leaves(node, periods):
        vocab = create_vocabulary(leaf, level=level)
        soft_total = sum(vocab.frequency(p.soft_form) for p in pairs)
        hard_total = sum(vocab.frequency(p.hard_form) for p in pairs)
        ratio = soft_total / hard_total if hard_total else None
        rows.append((leaf.period, soft_total, hard_total, ratio))
    return rows


def ending_ratio(
    node: DiachronicCorpus,
    pair_class: str,
    periods: Sequence[TimePeriod] | None = None,
    level: str = "surface",
    exclusions: frozenset[str] = DEFAULT_EXCLUSIONS,
) -> TimeSeriesResult:
    rows = ending_ratio_rows(node, pair_class, periods, level, exclusions)
    return TimeSeriesResult([(period, ratio) for period, _, _, ratio in rows])


def ending_ratio_csv(
    pair_class: str, rows: Sequence[tuple[TimePeriod, int, int, float | None]]
) -> str:
    """CSV of the ``ending_ratio_rows`` of one pair class."""
    return csv_table(
        ["period", "class", "soft_total", "hard_total", "ratio"],
        ((period.label, pair_class, soft, hard, ratio) for period, soft, hard, ratio in rows),
    )


def circumflex_frequency(
    node: DiachronicCorpus,
    periods: Sequence[TimePeriod] | None = None,
    letters: frozenset[str] = CIRCUMFLEX_LETTERS,
    level: str = "lemma",
) -> tuple[TimeSeriesResult, TimeSeriesResult]:
    """Circumflexed-letter occurrences per period: (raw counts, per million tokens).

    Occurrences inside each vocabulary word are weighted by the word's token
    frequency. The per-million series is None for a period with no tokens.
    """
    raw_entries: list[tuple[TimePeriod, int]] = []
    rate_entries: list[tuple[TimePeriod, float | None]] = []
    for leaf in select_leaves(node, periods):
        vocab = create_vocabulary(leaf, level=level)
        raw, rate = occurrence_rate(vocab, lambda word: sum(ch in letters for ch in word))
        raw_entries.append((leaf.period, raw))
        rate_entries.append((leaf.period, rate))
    return TimeSeriesResult(raw_entries), TimeSeriesResult(rate_entries)


def circumflex_csv(raw: TimeSeriesResult, per_million: TimeSeriesResult) -> str:
    """CSV of the two ``circumflex_frequency`` series."""
    return csv_table(
        ["period", "circumflex_raw", "circumflex_per_million"],
        ((period.label, count, rate) for (period, count), (_, rate) in zip(raw, per_million)),
    )
