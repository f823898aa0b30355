"""Seeded synthetic diachronic corpus with planted phenomena and ground truth.

The bulk of each period is Zipf-distributed text over random letter-only
types. Into it the generator plants, at exact counts, the phenomena the paper
measures:

- every pair of the bundled sample dictionary, with a chosen crossover period
  (the later period, the earlier one, or none);
- soft/hard final-consonant spelling variants (kitab/kitap, mektub/mektup,
  ahmed/ahmet, aded/adet) whose soft share declines;
- circumflexed spellings (kâğıt, resmî, millî, hükûmet) beside plain ones;
- the query words kanun, piyasa, televizyon, radyo and belge in both periods.

Random types never end in b, p, d or t, so they form no extra b-p/d-t pair,
and neither their folded surface nor their first-five-letters stem equals a
planted word. Every random type has its own F5 stem, so one random type is one
lemma. The ground truth is computed from the generator's own counts, never by
running the toolkit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PERIODS = ((1930, 1939), (1980, 1989))
LABELS = tuple(f"{a}-{b}" for a, b in PERIODS)

# The bundled sample dictionary (src/diacorpus/data/sample_dictionary.json),
# repeated here so the generator depends on nothing under src/.
DICTIONARY = (
    ("bakan", ("vekil",)),
    ("yıl", ("sene",)),
    ("genel", ("umumi",)),
    ("başkan", ("reis",)),
    ("kurul", ("heyet", "encümen")),
    ("belge", ("vesika",)),
    ("uygula", ("icra",)),
    ("gerek", ("mucip", "lazım")),
    ("üye", ("aza",)),
    ("yönet", ("idare",)),
    ("numara", ("sayı",)),
    ("tasarı", ("layiha",)),
)
VARIANT_PAIRS = {"b-p": (("kitab", "kitap"), ("mektub", "mektup")),
                 "d-t": (("ahmed", "ahmet"), ("aded", "adet"))}
CIRCUMFLEX_WORDS = (("kâğıt", "kağıt"), ("resmî", "resmi"), ("millî", "milli"),
                    ("hükûmet", "hükümet"))
QUERY_WORDS = ("kanun", "piyasa", "televizyon", "radyo", "belge")
CIRCUMFLEX_LETTERS = frozenset("âîûÂÎÛ")

# Letters random types are built from; no circumflex, no b/p/d/t word ending.
_ONSETS = list("bcçdfgğhjklmnprsştvyz")
_VOWELS = list("aeıioöuü")
_FINALS = list("clmnrsşyzk") + [""]


def turkish_lower(text: str) -> str:
    return text.translate(str.maketrans({"İ": "i", "I": "ı"})).lower()


def turkish_capitalize(word: str) -> str:
    head = {"i": "İ", "ı": "I"}.get(word[0], word[0].upper())
    return head + word[1:]


@dataclass(frozen=True)
class CorpusSpec:
    """Size of one generated corpus."""

    tokens_per_period: int  # words per period, punctuation not counted
    random_types: int  # Zipf vocabulary size shared by both periods
    docs_per_period: int
    planted_scale: int  # base count of a planted word per period


def _random_types(rng: np.random.Generator, count: int, banned: set[str]) -> list[str]:
    """Distinct random words with distinct F5 stems, avoiding planted words."""
    words: list[str] = []
    stems: set[str] = set()
    while len(words) < count:
        syllables = int(rng.integers(2, 5))
        parts = [rng.choice(_ONSETS) + rng.choice(_VOWELS) for _ in range(syllables)]
        word = str("".join(parts) + rng.choice(_FINALS))
        stem = word[:5]
        if word in banned or stem in banned or stem in stems:
            continue
        stems.add(stem)
        words.append(word)
    return words


def _planted_counts(rng: np.random.Generator, scale: int) -> tuple[list[dict[str, int]], dict]:
    """Exact per-period counts of every planted word, plus the crossover truth."""
    counts: list[dict[str, int]] = [{}, {}]
    crossover: dict[str, str] = {}

    def lo_hi() -> tuple[int, int]:
        high = int(rng.integers(3 * scale, 5 * scale))
        return high, int(high * rng.uniform(0.3, 0.6))

    for modern, olds in DICTIONARY:
        # the modern form rises from the earlier period to the later one;
        # whether an old form is overtaken in the later period, already
        # trails in the earlier one, or is never overtaken is drawn per pair
        m_early, m_late = lo_hi()[1], lo_hi()[0]
        counts[0][modern], counts[1][modern] = m_early, m_late
        for old in olds:
            outcome = ("later", "earlier", "none")[int(rng.integers(0, 3))]
            if outcome == "later":
                o_early, o_late = m_early * 2, m_late // 2
                crossover[f"{modern},{old}"] = LABELS[1]
            elif outcome == "earlier":
                o_early, o_late = m_early // 2, m_late // 3
                crossover[f"{modern},{old}"] = LABELS[0]
            else:
                o_early, o_late = m_early * 3, m_late * 2
                crossover[f"{modern},{old}"] = "none"
            counts[0][old], counts[1][old] = o_early, o_late
    for pairs in VARIANT_PAIRS.values():
        for soft, hard in pairs:
            high, low = lo_hi()
            counts[0][soft], counts[0][hard] = high, low
            counts[1][soft], counts[1][hard] = low // 2, high
    for marked, plain in CIRCUMFLEX_WORDS:
        high, low = lo_hi()
        counts[0][marked], counts[0][plain] = high, low
        counts[1][marked], counts[1][plain] = low // 2, high
    for word in QUERY_WORDS:
        for period in counts:
            period.setdefault(word, int(rng.integers(2 * scale, 4 * scale)))
    return counts, crossover


def _zipf_probabilities(size: int) -> np.ndarray:
    weights = 1.0 / (np.arange(size) + 2.7) ** 1.05
    return weights / weights.sum()


def generate(root: Path, spec: CorpusSpec, seed: int) -> dict:
    """Write manifest.json, docs/, and stems.tsv under ``root``; return the ground truth."""
    rng = np.random.default_rng(seed)
    planted, crossover = _planted_counts(rng, spec.planted_scale)
    planted_words = sorted(set(planted[0]) | set(planted[1]))
    banned = {turkish_lower(w) for w in planted_words} | {turkish_lower(w)[:5] for w in planted_words}
    types = _random_types(rng, spec.random_types, banned)
    probabilities = _zipf_probabilities(len(types))

    docs_dir = root / "docs"
    docs_dir.mkdir(parents=True, exist_ok=True)
    manifest = []
    raw_tokens = []
    for p, (start, _) in enumerate(PERIODS):
        n_planted = sum(planted[p].values())
        n_random = spec.tokens_per_period - n_planted
        if n_random <= 0:
            raise ValueError("planted words exceed the period's token budget")
        # the period's ranks are a lightly perturbed copy of the shared order,
        # so the two periods share most of their vocabulary but diverge
        order = np.argsort(np.arange(len(types)) * rng.uniform(0.8, 1.25, len(types)))
        ids = order[rng.choice(len(types), size=n_random, p=probabilities)]
        words = [types[i] for i in ids] + [w for w, c in planted[p].items() for _ in range(c)]
        words = [words[i] for i in rng.permutation(len(words))]
        # sentences of 5..20 words end in '.'; a tenth of the other words
        # carry a trailing comma; each mark is one token of its own
        ends = np.cumsum(rng.integers(5, 21, size=len(words) // 5 + 1))
        ends = [0] + [int(e) for e in ends[ends < len(words)]] + [len(words)]
        final = np.zeros(len(words), dtype=bool)
        final[np.array(ends[1:]) - 1] = True
        comma = (rng.random(len(words)) < 0.1) & ~final
        marks = np.where(final, ".", np.where(comma, ",", ""))
        tokens = [w + m for w, m in zip(words, marks.tolist())]
        sentences = []
        for a, b in zip(ends, ends[1:]):
            tokens[a] = turkish_capitalize(tokens[a])
            sentences.append(" ".join(tokens[a:b]))
        punct = int(final.sum() + comma.sum())
        raw_tokens.append(len(words) + punct)
        per_doc = np.array_split(np.arange(len(sentences)), spec.docs_per_period)
        for d, rows in enumerate(per_doc):
            doc_id = f"doc-{start}s-{d:04d}"
            text = "\n".join(sentences[i] for i in rows) + "\n"
            (docs_dir / f"{doc_id}.txt").write_text(text, encoding="utf-8")
            manifest.append({"id": doc_id, "date": f"{start + d % 10}-{1 + d % 12:02d}-{1 + d % 28:02d}",
                             "source": "synthetic", "path": f"docs/{doc_id}.txt"})
    (root / "manifest.json").write_text(json.dumps(manifest, ensure_ascii=False, indent=1) + "\n",
                                        encoding="utf-8")
    # identity analyzer rows: planted words survive whole instead of as F5 stems
    (root / "stems.tsv").write_text("".join(f"{w}\t{w}\n" for w in planted_words), encoding="utf-8")

    ortho = {}
    for cls, pairs in VARIANT_PAIRS.items():
        ortho[cls] = [[sum(planted[p][s] for s, _ in pairs), sum(planted[p][h] for _, h in pairs)]
                      for p in range(len(PERIODS))]
    circumflex = [sum(sum(ch in CIRCUMFLEX_LETTERS for ch in w) * c for w, c in planted[p].items())
                  for p in range(len(PERIODS))]
    return {
        "raw_tokens": raw_tokens,
        "planted": planted,
        "crossover": crossover,
        "ortho_totals": ortho,
        "circumflex_raw": circumflex,
        "documents": len(manifest),
    }
