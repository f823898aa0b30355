from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from diacorpus.cli import RunConfig, _ingest_tree
from diacorpus.corpus import DiachronicCorpus, PeriodCorpus, TimePeriod
from diacorpus.preprocess import lemma_surfaces, normalize_text, token_surfaces, turkish_lower

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"

PERIOD_1930 = TimePeriod(1930, 1939)
PERIOD_1980 = TimePeriod(1980, 1989)


@pytest.fixture(scope="session")
def fixture_config() -> RunConfig:
    return RunConfig.from_file(FIXTURES / "fixture_config.json")


@pytest.fixture(scope="session")
def fixture_tree(fixture_config) -> DiachronicCorpus:
    """The bundled mini corpus, ingested once per test session."""
    return _ingest_tree(fixture_config)


@pytest.fixture()
def fresh_tree(fixture_config) -> DiachronicCorpus:
    """A freshly ingested tree, sharing no object with the session's ``fixture_tree``."""
    return _ingest_tree(fixture_config)


def stored_cells(matrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The row ids, column ids and values of a compressed-row matrix's stored
    cells, in storage order, read from ``indptr``, ``indices`` and ``data`` alone."""
    rows = np.repeat(np.arange(len(matrix.indptr) - 1), np.diff(matrix.indptr))
    return rows, matrix.indices, matrix.data


def assert_canonical(matrix) -> None:
    """Each row's columns strictly ascending: stored cells in row-major order, none twice."""
    rows, cols, _ = stored_cells(matrix)
    keys = rows * matrix.shape[1] + cols
    assert np.all(keys[1:] > keys[:-1])


def row_order(entries: dict[str, int]) -> list[str]:
    """A vocabulary's words in row order: count descending, then word.

    The rule is written out here, not read from ``Vocabulary``, so the
    oracles that index rows stay independent of the code they check.
    """
    return sorted(entries, key=lambda w: (-entries[w], w))


def document_sequences(texts, level="lemma", analyzer=None) -> list[list[str]]:
    """Each document's words at ``level``, rebuilt from its raw text.

    Surfaces are case-folded; lemmas are analyzer stems or F5 stems. Every raw
    token is kept. No token id is read, so these strings are an independent
    oracle for the id-based paths.
    """
    surfaces = [token_surfaces(normalize_text(text)) for text in texts]
    if level == "surface":
        return [[turkish_lower(s) for s in doc] for doc in surfaces]
    return [lemma_surfaces(doc, analyzer) for doc in surfaces]


def fixture_sequences(config: RunConfig, leaf: PeriodCorpus, level="lemma") -> list[list[str]]:
    """``document_sequences`` of a leaf ingested from the fixture corpus."""
    texts = [(config.corpus_root / doc.path).read_text(encoding="utf-8") for doc in leaf.documents]
    return document_sequences(texts, level, config.analyzer())


# Values that are not the ASCII literal of a finite float, which the .vec,
# transform and PPMI readers reject: a digit separator, an Arabic-Indic digit
# and a literal padded with spaces (all accepted by ``float()``), hex, nan, a
# literal that overflows to infinity, and literals beside a whitespace
# character other than the space (accepted by ``np.loadtxt``).
EDGE_TOKENS = ["1_0", "\u0661", " 5 ", "0x10", "nan", "1e999", "5\x85", "\x0c5"]


# Counts that are not a positive ASCII integer literal, which the vocabulary
# and n-gram readers reject (``int()`` accepts the first two, ``np.loadtxt``
# the last two), and PPMI values that are not finite and above 0.
BAD_COUNTS = ["1_0", "\u0661", "5.0", "0", "-5", "5\x85", "\x0c5"]
BAD_ASSOCIATIONS = ["nan", "inf", "0.0", "-2.5"]


def with_edge_token(lines: list[str], token: str) -> list[str]:
    """The artifact ``lines`` with the last value on line 3, after its last space
    or tab, replaced by ``token``."""
    cut = max(lines[2].rfind(" "), lines[2].rfind("\t")) + 1
    return [*lines[:2], lines[2][:cut] + token, *lines[3:]]
