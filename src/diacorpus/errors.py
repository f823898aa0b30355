"""Exception types shared across the toolkit.

The CLI maps these onto process exit codes, so new error conditions should
subclass one of the classes below rather than raising bare exceptions.
"""

from __future__ import annotations


class DiacorpusError(Exception):
    """Base class for all toolkit errors."""


class IngestError(DiacorpusError):
    """An input file could not be read, or a corpus not assembled (bad manifest, bad date)."""


class ParameterError(DiacorpusError):
    """An operation was called with invalid arguments."""


class MissingArtifactError(DiacorpusError):
    """A required derived artifact (vocabulary, matrix, embeddings) has not been built."""

    def __init__(self, message: str, needed_command: str | None = None):
        super().__init__(message)
        self.needed_command = needed_command


class OutOfVocabularyError(DiacorpusError):
    """A queried word is not in the vocabulary of the requested period."""

    def __init__(self, word: str, period_label: str):
        super().__init__(f"word {word!r} is not in the vocabulary of period {period_label}")
        self.word = word
        self.period_label = period_label


class ComputationUndefinedError(DiacorpusError):
    """The requested value is mathematically undefined for the given data (e.g. 0/0)."""


class DictionaryError(ParameterError):
    """A replacement dictionary file failed to parse or validate."""
