"""Per-layer metrics of a traced run, computed from the spans trace_cli.py writes.

A traced run times the workload's sequence twice: untraced, then traced. Span
metrics cover the traced set-up and the traced sequence. Latencies measured
from outside (query kinds, CBOW tokens/s) come from the untraced sequence.

A ``*_s`` metric is the summed inclusive time of a span name (a span nested in
a span of the same name is not counted twice); ``corpus.build_tree_self_s`` is
self time, the span's duration less the time its child spans cover. Counts are
summed over calls. A layer the workload never calls reads 0 and is listed as
not applicable in the run record.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from collections import defaultdict

LAYERS = ("preprocess", "corpus", "lexicon", "divergence", "orthography", "dictionary",
          "embeddings", "cbow", "alignment", "cli")
# (metric, span name): inclusive seconds of one span name
SPAN_SECONDS = (
    ("preprocess.normalize_s", "preprocess.normalize"),
    ("preprocess.tokenize_s", "preprocess.tokenize"),
    ("preprocess.lemmatize_s", "preprocess.lemmatize"),
    ("corpus.build_tree_s", "corpus.build_tree"),
    ("lexicon.ngram_build_s", "lexicon.ngram_build"),
    ("lexicon.ngram_write_s", "lexicon.ngram_write"),
    ("lexicon.vocab_write_s", "lexicon.vocab_write"),
    ("lexicon.vocab_read_s", "lexicon.vocab_read"),
    ("divergence.matrices_s", "divergence.matrices"),
    ("divergence.contributions_s", "divergence.contributions"),
    ("divergence.survived_s", "divergence.survived"),
    ("orthography.ortho_s", "orthography.ortho"),
    ("dictionary.crossover_s", "dictionary.crossover"),
    ("embeddings.cooc_s", "embeddings.cooc"),
    ("embeddings.ppmi_s", "embeddings.ppmi"),
    ("embeddings.ppmi_write_s", "embeddings.ppmi_write"),
    ("embeddings.svd_s", "embeddings.svd"),
    ("embeddings.vec_write_s", "embeddings.vec_write"),
    ("embeddings.vec_read_s", "embeddings.vec_read"),
    ("embeddings.ppmi_read_s", "embeddings.ppmi_read"),
    ("embeddings.rank_s", "embeddings.rank"),
    ("embeddings.collocations_s", "embeddings.collocations"),
    ("cbow.train_s", "cbow.train"),
    ("alignment.procrustes_s", "alignment.procrustes"),
    ("alignment.transform_write_s", "alignment.transform_write"),
    ("alignment.transform_read_s", "alignment.transform_read"),
    ("alignment.aligned_query_s", "alignment.aligned_query"),
    ("alignment.semantic_change_s", "alignment.semantic_change"),
)
# (metric, span name, count key, unit): counts summed over calls
SPAN_COUNTS = (
    ("lexicon.ngram_entries", "lexicon.ngram_build", "entries", "count"),
    ("lexicon.ngram_bytes", "lexicon.ngram_write", "bytes", "B"),
    ("embeddings.cooc_nnz", "embeddings.cooc", "nnz", "count"),
    ("embeddings.ppmi_nnz", "embeddings.ppmi", "nnz", "count"),
    ("embeddings.ppmi_bytes", "embeddings.ppmi_write", "bytes", "B"),
    ("embeddings.svd_dense_calls", "embeddings.svd", "dense_calls", "count"),
    ("embeddings.svd_sparse_calls", "embeddings.svd", "sparse_calls", "count"),
    ("embeddings.vec_bytes", "embeddings.vec_write", "bytes", "B"),
    ("cbow.budget_tokens", "cbow.train", "budget_tokens", "count"),
    ("alignment.shared_words", "alignment.procrustes", "shared_words", "count"),
)
QUERY_KINDS = ("most_similar", "aligned_most_similar", "semantic_change", "collocations", "freq")
IMPORT_REPEATS = 5


def _query_kind(argv: list) -> str | None:
    if argv[:2] == ["analyze", "freq"]:
        return "freq"
    if argv[0] == "query":
        return argv[1].replace("-", "_")
    return None


def process_start_s(env: dict, cwd) -> float:
    """Median wall time of interpreter start plus ``import diacorpus.cli``."""
    times = []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import diacorpus.cli"], env=env, cwd=cwd, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class SpanTotals:
    """Inclusive and self time, calls and counts per span name."""

    def __init__(self, commands) -> None:
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.layer_time = defaultdict(float)
        self.reingest_s = 0.0
        for command in commands:
            spans = command.spans["spans"]
            names = {s[0]: s[2] for s in spans}
            covered = defaultdict(float)
            for _, parent, _, start, end, _ in spans:
                if parent is not None:
                    covered[parent] += end - start
            top_level = 0.0
            for span_id, parent, name, start, end, counts in spans:
                duration = end - start
                if parent is None:
                    top_level += duration
                if parent is None or names[parent] != name:
                    self.inclusive[name] += duration
                    self.calls[name] += 1
                own = duration - covered[span_id]
                self.self_time[name] += own
                self.layer_time[name.split(".")[0]] += own
                for key, value in counts.items():
                    self.counts[(name, key)] += value
                if command.kind == "embed" and name == "corpus.build_tree":
                    self.reingest_s += duration
            # process start, argument parsing and CLI glue: no span covers it
            self.layer_time["cli"] += command.wall_s - top_level


def per_layer_metrics(runner, passes: list[dict], ctx: dict, documents: int) -> dict:
    untraced, traced = passes
    spanned = [c for c in runner.commands if c.spans is not None]
    totals = SpanTotals(spanned)
    metrics: dict[str, tuple[float, str]] = {}
    for metric, name in SPAN_SECONDS:
        metrics[metric] = (totals.inclusive[name], "s")
    for metric, name, key, unit in SPAN_COUNTS:
        metrics[metric] = (totals.counts[(name, key)], unit)
    not_applicable = [m for m, name in SPAN_SECONDS if not totals.calls[name]]

    docs = totals.calls["preprocess.normalize"]
    metrics["preprocess.docs"] = (docs, "count")
    metrics["preprocess.passes_per_doc"] = (docs / documents, "ratio")
    metrics["corpus.build_tree_self_s"] = (totals.self_time["corpus.build_tree"], "s")
    first_tree = next(s for c in spanned for s in c.spans["spans"] if s[2] == "corpus.build_tree")
    metrics["corpus.raw_tokens"] = (first_tree[5]["raw_tokens"], "count")
    metrics["corpus.lemmas_kept"] = (first_tree[5]["lemmas_kept"], "count")

    traced_embed_s = sum(c.wall_s for c in traced["commands"] if c.kind == "embed")
    metrics["cli.reingest_s"] = (totals.reingest_s, "s")
    metrics["cli.reingest_share"] = (totals.reingest_s / traced_embed_s, "ratio")

    train_s, budget = totals.inclusive["cbow.train"], totals.counts[("cbow.train", "budget_tokens")]
    train_calls = totals.calls["cbow.train"]
    metrics["cbow.tokens_per_s"] = (budget / train_s if train_calls else 0.0, "1/s")
    metrics["cbow.loss_last"] = (
        totals.counts[("cbow.train", "loss_last")] / train_calls if train_calls else 0.0, "nat")
    cbow_wall = untraced["cbow_s"]
    metrics["cbow_tokens_per_s"] = (ctx["cbow_budget"] / cbow_wall if cbow_wall else 0.0, "1/s")
    if not train_calls:
        not_applicable += ["cbow.tokens_per_s", "cbow.loss_last", "cbow_tokens_per_s"]

    metrics["cli.process_start_s"] = (process_start_s(runner.env, runner.work), "s")
    by_kind = defaultdict(list)
    for command in untraced["commands"]:
        kind = _query_kind(command.argv)
        if kind:
            by_kind[kind].append(command.wall_s * 1000.0)
    for kind in QUERY_KINDS:
        samples = by_kind.get(kind)
        metrics[f"cli.query_{kind}_p50_ms"] = (statistics.median(samples) if samples else 0.0, "ms")
        if not samples:
            not_applicable.append(f"cli.query_{kind}_p50_ms")

    metrics["trace.overhead_s"] = (traced["flow_s"] - untraced["flow_s"], "s")
    metrics["trace.overhead_share"] = ((traced["flow_s"] - untraced["flow_s"]) / untraced["flow_s"],
                                       "ratio")
    pass_totals = SpanTotals(traced["commands"])
    for layer in LAYERS:
        metrics[f"layer.{layer}.share"] = (pass_totals.layer_time[layer] / traced["flow_s"], "ratio")
    shares = {l: pass_totals.layer_time[l] / traced["flow_s"] for l in LAYERS}
    ctx.update(not_applicable=not_applicable, layer_shares=shares,
               dominant_layer=max(shares, key=shares.get))
    return metrics
