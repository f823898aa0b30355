"""Input text reading, normalization, tokenization, frequency filtering, and lemmatization.

Every step here is rule-exact and total so that re-running ingestion over the
same files yields byte-identical artifacts. The tokenizer rule is normative
for the whole toolkit: a token boundary is any whitespace; from each
whitespace-delimited chunk the maximal leading and trailing runs of
punctuation/symbol characters (Unicode categories P and S) are split off as
their own tokens, and the residue, if non-empty, is one token. Interior
punctuation (clitic apostrophes, hyphens) stays inside the token.
"""

from __future__ import annotations

import unicodedata
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol

from .errors import IngestError, ParameterError

DEFAULT_THRESHOLD_DIVISOR = 10_000_000

# Soft hyphen has no clean text representation, so normalization drops it
# outright; other space-like characters are handled by the whitespace rule.
_SOFT_HYPHEN = "\u00ad"

# Turkish has dotted and dotless i as distinct letters, so the standard
# Unicode lowercase mapping (I -> i) merges words that must stay apart.
_TURKISH_CASEFOLD = str.maketrans({"İ": "i", "I": "ı"})


def turkish_lower(text: str) -> str:
    """Lowercase with Turkish casing rules: İ -> i and I -> ı."""
    return text.translate(_TURKISH_CASEFOLD).lower()


def nfc(text: str) -> str:
    """``text`` in Unicode normalization form C, the one form in which text enters
    the toolkit: a precomposed letter (â) and its decomposed spelling (a + U+0302)
    are then one character, so they count as one word and pass ``str.isalpha``."""
    return unicodedata.normalize("NFC", text)


def normalize_text(raw: str) -> str:
    """Bring text to NFC, collapse whitespace and strip characters without a clean
    representation.

    Runs of whitespace collapse to a single regular space, or to a single
    newline when the run contains one, so line structure survives while tabs,
    non-breaking spaces and repeated blanks do not. Leading and trailing
    whitespace is dropped entirely. Total function: never raises.
    """
    # ``str.split()`` splits at exactly the characters for which ``isspace()`` is true
    text = nfc(raw.replace(_SOFT_HYPHEN, ""))  # a mark after a soft hyphen composes too
    lines = (" ".join(line.split()) for line in text.split("\n"))
    return "\n".join(filter(None, lines))


def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch)[0] in ("P", "S")


def token_surfaces(text: str) -> list[str]:
    """Tokenize normalized text into surface strings (the normative rule)."""
    tokens: list[str] = []
    for chunk in text.split():
        if chunk.isalpha():  # no letter is in category P or S
            tokens.append(chunk)
            continue
        n = len(chunk)
        i = 0
        while i < n and _is_punct(chunk[i]):
            i += 1
        if i == n:
            tokens.append(chunk)
            continue
        j = n
        while j > i and _is_punct(chunk[j - 1]):
            j -= 1
        if i > 0:
            tokens.append(chunk[:i])
        tokens.append(chunk[i:j])
        if j < n:
            tokens.append(chunk[j:])
    return tokens


class MorphAnalyzer(Protocol):
    """Anything that can propose a stem for a surface form (or decline with None).

    ``stem`` must be pure: its answer depends on the surface alone and calling
    it has no side effect. Ingest relies on this to stem each distinct surface
    of a period once, not each token. A stem has no whitespace: the artifacts
    separate words with spaces, tabs and line breaks.
    """

    def stem(self, surface: str) -> str | None:  # pragma: no cover - protocol
        ...


class LookupAnalyzer:
    """Exact-match lookup analyzer backed by an in-memory table.

    The surface is looked up verbatim first, then in Turkish-lowercased form,
    so sentence-initial capitalization does not defeat the table.
    """

    def __init__(self, table: Mapping[str, str] | None = None):
        self._table = dict(table or {})

    def stem(self, surface: str) -> str | None:
        hit = self._table.get(surface)
        if hit is None:
            hit = self._table.get(turkish_lower(surface))
        return hit


def read_input_text(path: str | Path, what: str) -> str:
    """The text of a UTF-8 input file (a document, manifest, config, analyzer
    table or dictionary); one that cannot be read or decoded raises IngestError
    naming ``what`` and the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IngestError(f"cannot read {what} {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise IngestError(f"{what} {path} is not UTF-8 text: {exc}") from exc
    except ValueError as exc:  # a path holding NUL, which no file name holds
        raise IngestError(f"cannot read {what} {path}: {exc}") from exc


def is_word(text: str) -> bool:
    """Whether ``text`` is one word of the artifacts: non-empty, with no whitespace."""
    return text.split() == [text]


def load_analyzer_tsv(path: str | Path) -> LookupAnalyzer:
    """Load a two-column TSV (surface<TAB>stem, UTF-8, no header, read as NFC) into a
    LookupAnalyzer."""
    table: dict[str, str] = {}
    lines = nfc(read_input_text(path, "analyzer table")).split("\n")
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise ParameterError(f"analyzer table {path}: line {lineno} is not 'surface<TAB>stem'")
        if not is_word(parts[1]):  # a stem is one word of every artifact
            raise ParameterError(f"analyzer table {path}: line {lineno}: stem has whitespace")
        table[parts[0]] = parts[1]
    return LookupAnalyzer(table)


def f5_stem(surface: str) -> str:
    """First-five-letters fallback stem: lowercased surface cut to 5 characters.

    Characters are Unicode code points, never bytes, so diacritics count as
    single letters. Surfaces shorter than five characters pass through whole.
    """
    folded = turkish_lower(surface)
    return folded[:5]


def lemma_surfaces(surfaces: Iterable[str], analyzer: MorphAnalyzer | None = None) -> list[str]:
    """The lemma of each surface: the analyzer's stem, else the F5 stem."""
    out: list[str] = []
    stem = analyzer.stem if analyzer is not None else None
    for surface in surfaces:
        hit = stem(surface) if stem is not None else None
        out.append(hit if hit is not None else f5_stem(surface))
    return out


@dataclass(frozen=True)
class FilterConfig:
    """Noise-filter settings: the threshold divisor and the alphabetic-only switch."""

    threshold_divisor: int = DEFAULT_THRESHOLD_DIVISOR
    alphabetic_only: bool = True

    def __post_init__(self) -> None:
        if self.threshold_divisor <= 0:
            raise ParameterError("threshold_divisor must be a positive integer")


def frequency_threshold(n_tokens: int, cfg: FilterConfig = FilterConfig()) -> int:
    """Minimum surviving frequency for a period with ``n_tokens`` raw tokens.

    Computed as ceil(n_tokens / threshold_divisor) in exact integer
    arithmetic. Words whose frequency is strictly below the returned value
    are removed downstream.
    """
    if n_tokens < 0:
        raise ParameterError("token count must be nonnegative")
    return -(-n_tokens // cfg.threshold_divisor)


def filter_vocabulary(
    counts: Mapping[str, int], n_tokens: int, cfg: FilterConfig = FilterConfig()
) -> dict[str, int]:
    """Drop low-frequency words, and non-alphabetic words when configured.

    Words at or above the threshold are never removed. The alphabetic test is
    per Unicode character, so accented letters pass and digits or embedded
    symbols do not.
    """
    cut = frequency_threshold(n_tokens, cfg)
    out: dict[str, int] = {}
    for word, freq in counts.items():
        if freq < cut:
            continue
        if cfg.alphabetic_only and not word.isalpha():
            continue
        out[word] = freq
    return out
