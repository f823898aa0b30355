"""Diachronic corpus analytics toolkit.

Ingests timestamped document collections into a corpus of period leaves
and computes vocabulary divergence, aligned word embeddings, semantic-change
series, and writing-convention trends, with a CLI that emits machine-readable
reports.
"""

from .alignment import (
    AlignmentTransform,
    aligned_most_similar,
    procrustes_align,
    semantic_change,
)
from .cbow import train_cbow
from .corpus import (
    CorpusStats,
    DiachronicCorpus,
    DocumentRecord,
    PeriodCorpus,
    TimePeriod,
    TimeSeriesResult,
    build_corpus_tree,
    decade_bucket,
    load_manifest,
)
from .dictionary import (
    DictionaryEntry,
    crossover_period,
    load_dictionary,
    load_sample_dictionary,
    replacement_series,
)
from .divergence import (
    ContributionRanking,
    DivergenceMatrix,
    jaccard_matrix,
    jensen_shannon,
    jsd_contributions,
    jsd_matrix,
    survived_words,
)
from .embeddings import (
    CooccurrenceMatrix,
    EmbeddingSet,
    PPMIMatrix,
    association,
    build_ppmi,
    collocations,
    count_cooccurrences,
    most_similar,
    similarity,
    svd_embeddings,
)
from .errors import (
    ComputationUndefinedError,
    DiacorpusError,
    DictionaryError,
    IngestError,
    MissingArtifactError,
    OutOfVocabularyError,
    ParameterError,
)
from .lexicon import (
    NgramTable,
    Vocabulary,
    cofrequency,
    common_words,
    create_ngrams,
    create_vocabulary,
    exists,
    frequency,
    merge_vocabulary,
    morpheme_frequency,
    vocab_metrics,
    words_matching,
)
from .orthography import (
    VariantPair,
    circumflex_frequency,
    detect_variant_pairs,
    ending_ratio,
)
from .preprocess import (
    FilterConfig,
    LookupAnalyzer,
    filter_vocabulary,
    frequency_threshold,
    lemma_surfaces,
    load_analyzer_tsv,
    normalize_text,
    token_surfaces,
    turkish_lower,
)

__version__ = "0.1.0"
