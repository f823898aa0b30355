"""Replacement dictionary: modern headwords paired with their older counterparts.

The dictionary file is a JSON array of ``{"modern": str, "old": [str, ...],
"senses": [str, ...]?}`` entries. Sense markers are carried as opaque
strings. The analyses here track how a modern word's normalized frequency
overtakes its older counterpart's across periods.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Sequence

from .corpus import DiachronicCorpus, TimePeriod, TimeSeriesResult
from .errors import DictionaryError, ParameterError
from .lexicon import frequency
from .preprocess import nfc, read_input_text


@dataclass(frozen=True)
class DictionaryEntry:
    """One modern headword and the older forms it replaced."""

    modern: str
    old_forms: tuple[str, ...]
    senses: tuple[str, ...] = ()


def load_dictionary(source: Path | str) -> list[DictionaryEntry]:
    """Parse and validate a replacement dictionary.

    A ``Path`` is read as a UTF-8 file; a ``str`` is the JSON text itself. Each
    modern and old form is taken in NFC, as document text is. Duplicate
    (modern, old) pairs are rejected with the offending entry positions.
    """
    raw = read_input_text(source, "dictionary") if isinstance(source, Path) else source
    try:
        parsed = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise DictionaryError(
            f"dictionary is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc
    if not isinstance(parsed, list):
        raise DictionaryError("dictionary must be a JSON array of entries")

    entries: list[DictionaryEntry] = []
    seen_pairs: dict[tuple[str, str], int] = {}
    for i, item in enumerate(parsed):
        if not isinstance(item, dict):
            raise DictionaryError(f"entry {i} is not an object")
        modern = item.get("modern")
        old_forms = item.get("old")
        senses = item.get("senses", [])
        if not isinstance(modern, str) or not modern:
            raise DictionaryError(f"entry {i}: 'modern' must be a non-empty string")
        if not isinstance(old_forms, list) or not old_forms:
            raise DictionaryError(f"entry {i}: 'old' must be a non-empty list")
        modern = nfc(modern)
        old_forms = [nfc(old) if isinstance(old, str) else old for old in old_forms]
        for old in old_forms:
            if not isinstance(old, str) or not old:
                raise DictionaryError(f"entry {i}: old form must be a non-empty string")
            pair = (modern, old)
            if pair in seen_pairs:
                raise DictionaryError(
                    f"duplicate pair ({modern!r}, {old!r}) at entries "
                    f"{seen_pairs[pair]} and {i}"
                )
            seen_pairs[pair] = i
        if not isinstance(senses, list) or not all(isinstance(s, str) for s in senses):
            raise DictionaryError(f"entry {i}: 'senses' must be a list of strings")
        entries.append(
            DictionaryEntry(modern=modern, old_forms=tuple(old_forms), senses=tuple(senses))
        )
    return entries


def load_sample_dictionary() -> list[DictionaryEntry]:
    """The bundled sample of well-known replacement pairs."""
    text = resources.files("diacorpus.data").joinpath("sample_dictionary.json").read_text(
        encoding="utf-8"
    )
    return load_dictionary(text)


def replacement_series(
    node: DiachronicCorpus,
    modern: str,
    old: str,
    periods: Sequence[TimePeriod] | None = None,
) -> tuple[TimeSeriesResult, TimeSeriesResult]:
    """Aligned normalized-frequency series of the modern and old word.

    Values come straight from the lexicon frequency query (absent words give
    zero); there is no separate computation path.
    """
    modern_series = frequency(node, modern, periods, normalize=True)
    old_series = frequency(node, old, periods, normalize=True)
    return modern_series, old_series


def crossover_period(
    node: DiachronicCorpus,
    modern: str,
    old: str,
    periods: Sequence[TimePeriod] | None = None,
    mode: str = "sustained",
) -> TimePeriod | None:
    """Earliest period where the modern word overtakes the old one.

    "sustained" (default) requires the modern word to strictly lead in the
    crossover period and stay at least equal for every later period in range;
    "first-touch" takes the first strict lead regardless of what follows.
    """
    if mode not in ("sustained", "first-touch"):
        raise ParameterError(f"unknown crossover mode {mode!r}")
    modern_series, old_series = replacement_series(node, modern, old, periods)
    values = [
        (period, m_val, o_val)
        for (period, m_val), (_, o_val) in zip(modern_series, old_series)
    ]
    for i, (period, m_val, o_val) in enumerate(values):
        if m_val <= o_val:
            continue
        if mode == "first-touch":
            return period
        if all(later_m >= later_o for _, later_m, later_o in values[i + 1 :]):
            return period
    return None
