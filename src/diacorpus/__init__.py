"""Diachronic corpus analytics toolkit.

Ingests timestamped document collections into a corpus of period leaves
and computes vocabulary divergence, aligned word embeddings, semantic-change
series, and writing-convention trends, with a CLI that emits machine-readable
reports.

The public names below load their module on first use (PEP 562), so
``import diacorpus`` stays cheap and a command that computes no arrays never
imports numpy.
"""

import importlib

# module -> the public names it defines
_EXPORTS = {
    "alignment": "AlignmentTransform aligned_most_similar procrustes_align semantic_change",
    "cbow": "train_cbow",
    "corpus": "CorpusStats DiachronicCorpus DocumentRecord PeriodCorpus TimePeriod "
    "build_corpus_tree decade_bucket load_manifest",
    "dictionary": "DictionaryEntry crossover_period load_dictionary load_sample_dictionary",
    "divergence": "ContributionRanking DivergenceMatrix jaccard_matrix jensen_shannon "
    "jsd_contributions jsd_matrix survived_words",
    "embeddings": "CooccurrenceMatrix EmbeddingSet PPMIMatrix build_ppmi collocations "
    "count_cooccurrences most_similar svd_embeddings",
    "errors": "ComputationUndefinedError DiacorpusError DictionaryError IngestError "
    "MissingArtifactError OutOfVocabularyError ParameterError",
    "lexicon": "NgramTable Vocabulary cofrequency common_words create_ngrams create_vocabulary "
    "exists frequency merge_vocabulary morpheme_frequency vocab_metrics words_matching",
    "orthography": "circumflex_frequency detect_variant_pairs ending_ratio",
    "preprocess": "FilterConfig LookupAnalyzer filter_vocabulary frequency_threshold "
    "lemma_surfaces load_analyzer_tsv normalize_text token_surfaces turkish_lower",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups find it without calling here
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
