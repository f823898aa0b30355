"""Run one diacorpus CLI command with its layer functions wrapped in spans.

Usage: python3 benchmark/trace_cli.py SPANS_JSON <diacorpus CLI arguments>

Nothing under src/ is edited. Each public function is replaced at the module
attribute the CLI reaches it through (a name imported into ``diacorpus.cli``
is wrapped there, a call through a module object is wrapped on that module,
and a call between functions of one module is wrapped on that module), so the
original code runs unchanged between the wrappers. Spans are kept in memory
with the id of their parent span and written to SPANS_JSON when the command
exits, whatever its exit code.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

import diacorpus.cli as cli
from diacorpus import alignment, cbow, corpus, divergence, embeddings, lexicon, orthography


def _leaf_counts(tree) -> dict:
    leaves = tree.leaves()
    return {
        "raw_tokens": sum(l.stats.token_count_raw for l in leaves),
        "lemmas_kept": sum(l.stats.unique_lemma_count_filtered for l in leaves),
        "filtered_tokens": sum(l.stats.token_count_filtered for l in leaves),
        "documents": sum(l.stats.document_count for l in leaves),
    }


def _file_bytes(args, kwargs) -> dict:
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    return {"bytes": os.path.getsize(path)}


def _svd_counts(args, kwargs, result) -> dict:
    ppmi = args[0]
    dim = kwargs.get("dim", args[1] if len(args) > 1 else 300)
    size = len(ppmi.vocab_index)
    dense = size <= embeddings._DENSE_SVD_LIMIT or dim >= size
    return {"dense_calls": int(dense), "sparse_calls": int(not dense)}


def _cbow_counts(args, kwargs, result) -> dict:
    leaf = args[0]
    epochs = kwargs.get("epochs", 5)
    return {"budget_tokens": epochs * leaf.vocabulary.token_total,
            "loss_last": result.training_loss[-1]}


# (module, attribute, span name, counts(args, kwargs, result) or None)
TARGETS = [
    (cli, "build_corpus_tree", "corpus.build_tree", lambda a, k, r: _leaf_counts(r)),
    (corpus, "normalize_text", "preprocess.normalize", None),
    (corpus, "token_surfaces", "preprocess.tokenize", None),
    (corpus, "lemma_surfaces", "preprocess.lemmatize", None),
    (lexicon, "create_ngrams", "lexicon.ngram_build", lambda a, k, r: {"entries": len(r.entries)}),
    (lexicon, "write_ngrams", "lexicon.ngram_write", lambda a, k, r: _file_bytes(a, k)),
    (lexicon, "write_vocabulary", "lexicon.vocab_write", None),
    (lexicon, "read_vocabulary", "lexicon.vocab_read", None),
    (divergence, "jaccard_matrix", "divergence.matrices", None),
    (divergence, "jsd_matrix", "divergence.matrices", None),
    (divergence, "contributions_between", "divergence.contributions", None),
    (divergence, "survived_words", "divergence.survived", None),
    (orthography, "ending_ratio_csv", "orthography.ortho", None),
    (orthography, "ending_ratio_rows", "orthography.ortho", None),
    (orthography, "circumflex_csv", "orthography.ortho", None),
    (orthography, "circumflex_frequency", "orthography.ortho", None),
    (cli, "crossover_period", "dictionary.crossover", None),
    (embeddings, "count_cooccurrences", "embeddings.cooc", lambda a, k, r: {"nnz": r.counts.nnz}),
    (embeddings, "build_ppmi", "embeddings.ppmi", lambda a, k, r: {"nnz": r.values.nnz}),
    (embeddings, "write_ppmi", "embeddings.ppmi_write", lambda a, k, r: _file_bytes(a, k)),
    (embeddings, "read_ppmi", "embeddings.ppmi_read", None),
    (embeddings, "svd_embeddings", "embeddings.svd", _svd_counts),
    (embeddings, "write_embeddings", "embeddings.vec_write", lambda a, k, r: _file_bytes(a, k)),
    (embeddings, "read_embeddings", "embeddings.vec_read", None),
    (embeddings, "rank_by_cosine", "embeddings.rank", None),
    (alignment, "rank_by_cosine", "embeddings.rank", None),
    (embeddings, "collocations", "embeddings.collocations", None),
    (cbow, "train_cbow", "cbow.train", _cbow_counts),
    (alignment, "procrustes_align", "alignment.procrustes",
     lambda a, k, r: {"shared_words": len(r.shared_vocab)}),
    (alignment, "write_transform", "alignment.transform_write", None),
    (alignment, "read_transform", "alignment.transform_read", None),
    (alignment, "aligned_most_similar", "alignment.aligned_query", None),
    (alignment, "semantic_change", "alignment.semantic_change", None),
]


class Tracer:
    """In-memory span recorder: [id, parent id, name, start, end, counts]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [span_id, parent, name, time.perf_counter(), None, {}]
            self.spans.append(span)
            self._stack.append(span_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                span[5] = counts(args, kwargs, result)
            return result

        return traced


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    for module, attr, name, counts in TARGETS:
        setattr(module, attr, tracer.wrap(getattr(module, attr), name, counts))
    try:
        return cli.main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
