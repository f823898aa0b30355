"""Command-line surface: ingest, analyze, embed, align, query, dict.

The CLI is a thin shell over the library: every report is produced by the
same functions a library caller would use, serialized with the same helpers,
so command output and library output are byte-identical. Reports carry no
timestamps and all iteration is ordered, so re-running a command over
unchanged inputs leaves the identical files in place.

Exit codes: 0 success, 1 internal error, 2 usage/parameter error,
3 missing artifact. Failures print a machine-readable JSON object
{"error": code, "message": ..., "context": {...}} on stderr.

The handlers import the modules only they compute with (``divergence``,
``orthography``, ``embeddings``, ``alignment``, ``cbow``), so the vocabulary
commands start without numpy and the vector commands load no analysis code.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from collections import defaultdict
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Sequence

from . import lexicon as lexicon_mod
from .corpus import (
    DiachronicCorpus,
    PeriodCorpus,
    TimePeriod,
    build_corpus_tree,
    csv_table,
    load_manifest,
    require_distinct,
    select_leaves,
    sweep_temp_files,
    write_artifact,
)
from .dictionary import (
    DictionaryEntry,
    crossover_period,
    load_dictionary,
    load_sample_dictionary,
)
from .errors import (
    ComputationUndefinedError,
    DiacorpusError,
    IngestError,
    MissingArtifactError,
    OutOfVocabularyError,
    ParameterError,
)
from .preprocess import FilterConfig, LookupAnalyzer, load_analyzer_tsv, nfc, read_input_text

try:  # POSIX; a held lock raises BlockingIOError
    from fcntl import LOCK_EX, LOCK_NB, flock

    def _try_lock(fd: int) -> None:
        flock(fd, LOCK_EX | LOCK_NB)
except ImportError:  # Windows; a held lock raises OSError
    import msvcrt

    def _try_lock(fd: int) -> None:
        msvcrt.locking(fd, msvcrt.LK_NBLCK, 1)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_MISSING_ARTIFACT = 3

# the file-name length limit, in bytes, of common file systems such as ext4
_MAX_REPORT_NAME_BYTES = 255
_LONGEST_REPORT_SUFFIX = ".json"

# CorpusStats field -> its label in stats.json and stats.csv, in column order
STATS_FIELDS = {
    "document_count": "The number of documents",
    "token_count_raw": "The number of words before filtering",
    "token_count_filtered": "The number of words after filtering",
    "unique_surface_count": "The number of unique surface level words",
    "unique_lemma_count": "The number of unique stems",
    "unique_lemma_count_filtered": "The number of unique stems after filtering",
    "avg_tokens_per_document": "Average token count per document",
}


# artifact kind -> (path template under output_dir, its noun in a missing-artifact
# error, the command that writes it); ingest owns every file of the kinds it writes
ARTIFACTS = {
    "lemma": ("vocab/{period}.lemma.tsv", "lemma vocabulary", "ingest"),
    "surface": ("vocab/{period}.surface.tsv", "surface vocabulary", "ingest"),
    "tokens": ("tokens/{period}.npz", "token ids for period {period}", "ingest"),
    "ngrams": ("ngrams/{period}.n{order}.{level}.tsv", "n-gram table", "ingest"),
    "ppmi": ("ppmi/{period}.tsv", "association matrix for period {period}", "embed ppmi"),
    "vectors": ("embeddings/{period}.{kind}.npz", "{kind} embeddings for period {period}",
                "embed {kind}"),
    "transform": ("transforms/{source}__to__{target}.{kind}.npz", "transform {source}->{target}",
                  "align --from {source} --to {target} --kind {kind}"),
}


@dataclass
class EmbeddingConfig:
    dim: int = 300
    window: int = 2
    alpha: float = 0.75
    negatives: int = 5
    downsample: float = 1e-5
    epochs: int = 5
    seed: int = 1


@dataclass
class RunConfig:
    """Resolved configuration of one CLI invocation."""

    corpus_root: Path
    output_dir: Path
    bucketing: list[TimePeriod] | None = None
    filter: FilterConfig = field(default_factory=FilterConfig)
    analyzer_tsv: Path | None = None
    ngram_orders: tuple[int, ...] = (1, 2, 3)
    embedding: EmbeddingConfig = field(default_factory=EmbeddingConfig)

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        try:
            raw = json.loads(read_input_text(path, "config"))
        except json.JSONDecodeError as exc:
            raise ParameterError(f"config {path} is not valid JSON: {exc}") from exc
        base = Path(path).parent
        if not isinstance(raw, dict):
            raise ParameterError(f"config {path} is not a JSON object")
        if "corpus_root" not in raw or "output_dir" not in raw:
            raise ParameterError("config must set corpus_root and output_dir")

        def _resolve(key: str) -> Path:
            return _path(raw[key], f"config {key!r}", base)

        bucketing = _parse_bucketing(raw.get("bucketing"))
        filter_cfg = _config_section(raw, "filter", FilterConfig)
        embedding = _config_section(raw, "embedding", EmbeddingConfig)
        return cls(
            corpus_root=_resolve("corpus_root"),
            output_dir=_resolve("output_dir"),
            bucketing=bucketing,
            filter=filter_cfg,
            analyzer_tsv=None if raw.get("analyzer_tsv") is None else _resolve("analyzer_tsv"),
            ngram_orders=_parse_ngram_orders(raw.get("ngram_orders", [1, 2, 3])),
            embedding=embedding,
        )

    def analyzer(self) -> LookupAnalyzer | None:
        if self.analyzer_tsv is None:
            return None
        return load_analyzer_tsv(self.analyzer_tsv)


def _path(value, name: str, base: Path = Path()) -> Path:
    """``value`` as a path, a relative one under ``base``; ParameterError naming the
    config key or flag ``name`` unless it is a string without NUL, which no path holds."""
    if not isinstance(value, str) or "\0" in value:
        raise ParameterError(f"{name} must be a path string")
    return base / value  # an absolute value replaces base


def _parse_bucketing(value) -> list[TimePeriod] | None:
    """``None`` or ``"decades"`` for calendar decades, else a list of [start, end] year pairs."""
    if value in (None, "decades"):
        return None
    if not isinstance(value, list) or not all(
        isinstance(pair, list) and len(pair) == 2 and all(type(y) is int for y in pair)
        for pair in value
    ):
        raise ParameterError(
            'config "bucketing" must be "decades" or a list of [start, end] integer year pairs'
        )
    return [TimePeriod(start, end) for start, end in value]


def _parse_ngram_orders(value) -> tuple[int, ...]:
    if not isinstance(value, list) or not all(
        type(order) is int and order in lexicon_mod.NGRAM_ORDERS for order in value
    ):
        raise ParameterError(
            f'config "ngram_orders" must be a list drawn from {list(lexicon_mod.NGRAM_ORDERS)}'
        )
    require_distinct(value, 'config "ngram_orders" order')
    return tuple(value)


def _same_kind(default, value) -> bool:
    """Whether a JSON value fits a setting whose default is ``default`` (ints pass as reals)."""
    if isinstance(default, bool) or isinstance(value, bool):
        return isinstance(default, bool) and isinstance(value, bool)
    if isinstance(default, float):  # finite only: json reads NaN, Infinity and 1e400 as floats
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, type(default))


def _config_section(raw: dict, key: str, cls):
    """Build the dataclass ``cls`` from the optional JSON object ``raw[key]``.

    Keys the dataclass does not define, and values of another type than the
    key's default, are rejected, so a misspelt setting is reported instead of
    silently falling back to its default or failing deep inside a command.
    """
    section = raw.get(key, {})
    if not isinstance(section, dict):
        raise ParameterError(f"config {key!r} must be a JSON object")
    defaults = {f.name: f.default for f in fields(cls)}
    unknown = sorted(set(section) - set(defaults))
    if unknown:
        raise ParameterError(f"config {key!r} has unknown keys: {', '.join(unknown)}")
    bad = sorted(k for k, v in section.items() if not _same_kind(defaults[k], v))
    if bad:
        raise ParameterError(f"config {key!r} has mistyped or non-finite values: {', '.join(bad)}")
    return cls(**section)


class _Lock:
    """One command at a time per output directory.

    The operating system holds an exclusive lock on ``.lock`` while the
    command's file is open and drops it when the process ends, however it
    ends. The file stays empty and is never removed: removing a locked file
    would let one process lock the old file while another locks a new one.
    """

    def __init__(self, output_dir: Path):
        self._path = output_dir / ".lock"

    def __enter__(self) -> "_Lock":
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._file = open(self._path, "ab")
        try:
            _try_lock(self._file.fileno())
        except OSError:
            self._file.close()
            raise DiacorpusError(f"another command holds the lock {self._path}") from None
        return self

    def __exit__(self, *exc_info) -> None:
        self._file.close()


def to_json(payload) -> str:
    return json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=False) + "\n"


def _write_report(
    reports: Path, name: str, records: list[dict], csv_header: Sequence[str] = ()
) -> str:
    """Write ``<name>.json`` of ``records`` and return its text.

    Given ``csv_header``, also write ``<name>.csv``: one row per record of its
    first ``len(csv_header)`` values, in order, under the header's names.
    Keys past the header (such as ``oov``) are JSON-only.
    """
    if csv_header:
        width = len(csv_header)
        rows = (tuple(record.values())[:width] for record in records)
        write_artifact(reports / f"{name}.csv", csv_table(csv_header, rows))
    text = to_json(records)
    write_artifact(reports / f"{name}.json", text)
    return text


def ranking_records(ranking: list[tuple[str, float]], score: str = "cosine") -> list[dict]:
    return [{"lemma": word, score: value} for word, value in ranking]


def series_records(series) -> list[dict]:
    """One ``period``/``value`` record per entry; a missing value also marks ``"oov": true``."""
    records = []
    for period, value in series:
        record = {"period": period.label, "value": value}
        if value is None:
            record["oov"] = True
        records.append(record)
    return records


def _ingest_tree(config: RunConfig) -> DiachronicCorpus:
    records = load_manifest(config.corpus_root)
    return build_corpus_tree(
        records,
        config.bucketing,
        corpus_root=config.corpus_root,
        filter_config=config.filter,
        analyzer=config.analyzer(),
    )


def _stats_payload(tree: DiachronicCorpus) -> dict:
    periods = {
        leaf.period.label: {
            label: getattr(leaf.stats, name) for name, label in STATS_FIELDS.items()
        }
        for leaf in tree.leaves()
    }
    # each column sums over the periods, except the two that do not add up
    total = {label: sum(p[label] for p in periods.values()) for label in STATS_FIELDS.values()}
    docs = total[STATS_FIELDS["document_count"]]
    raw = total[STATS_FIELDS["token_count_raw"]]
    merged = lexicon_mod.merge_vocabulary(tree)
    total[STATS_FIELDS["unique_lemma_count_filtered"]] = len(merged.entries)
    total[STATS_FIELDS["avg_tokens_per_document"]] = (raw / docs) if docs else 0.0
    return {
        "periods": periods,
        "total": total,
        "unbucketed_documents": [d.doc_id for d in tree.unbucketed_documents],
    }


def _stats_csv(payload: dict) -> str:
    rows = [*payload["periods"].items(), ("total", payload["total"])]
    return csv_table(
        ["period", *STATS_FIELDS.values()], ([label, *f.values()] for label, f in rows)
    )


def _artifact_path(config: RunConfig, artifact: str, **fields) -> Path:
    """The path of ``ARTIFACTS[artifact]`` filled from ``fields``; a field not given is ``*``."""
    return config.output_dir / ARTIFACTS[artifact][0].format_map(defaultdict(lambda: "*", fields))


def _existing(config: RunConfig, artifact: str, **fields) -> Path:
    """The artifact's path, or MissingArtifactError naming it and the command that writes it."""
    path = _artifact_path(config, artifact, **fields)
    if not path.is_file():
        noun, command = (text.format_map(fields) for text in ARTIFACTS[artifact][1:])
        raise MissingArtifactError(f"no {noun} at {path}", needed_command=command)
    return path


def cmd_ingest(config: RunConfig, args: argparse.Namespace) -> str:
    tree = _ingest_tree(config)
    out = config.output_dir
    labels = [leaf.period.label for leaf in tree.leaves()]
    written = set()
    for leaf, label in zip(tree.leaves(), labels):
        for level, vocabulary in (("lemma", leaf.vocabulary), ("surface", leaf.surface_vocabulary)):
            written.add(path := _artifact_path(config, level, period=label))
            lexicon_mod.write_vocabulary(vocabulary, path)
        written.add(path := _artifact_path(config, "tokens", period=label))
        lexicon_mod.write_token_ids(leaf, path)
        for order in config.ngram_orders:
            for level in lexicon_mod.LEVELS:
                path = _artifact_path(config, "ngrams", period=label, order=order, level=level)
                if order == 1:  # the unigram table is the vocabulary, row for row
                    lexicon_mod.write_vocabulary(lexicon_mod.create_vocabulary(leaf, level), path)
                else:
                    lexicon_mod.write_ngrams(lexicon_mod.create_ngrams(leaf, order, level), path)
                written.add(path)
    payload = _stats_payload(tree)
    write_artifact(out / "stats.json", to_json(payload))
    write_artifact(out / "stats.csv", _stats_csv(payload))
    # ingest owns its files: once every write has succeeded, it removes those it did not write
    for artifact, (_, _, command) in ARTIFACTS.items():
        if command == "ingest":
            pattern = _artifact_path(config, artifact)
            for path in sorted(pattern.parent.glob(pattern.name)):
                if path not in written:
                    path.unlink()
    return to_json({"ingested_periods": labels})


def _require_header(path: Path, field: str, held: str, asked: str) -> None:
    """ParameterError unless the artifact at ``path`` holds the ``field`` it was read for."""
    if held != asked:
        raise ParameterError(f"{path} holds {field} {held}, not {asked}")


def _corpus(config: RunConfig) -> DiachronicCorpus:
    """One empty leaf per lemma vocabulary the last ingest wrote, its period the label in
    the file name; MissingArtifactError if there are none, ParameterError naming a bad name."""
    pattern = _artifact_path(config, "lemma")
    paths = sorted(pattern.parent.glob(pattern.name))
    if not paths:
        _, noun, command = ARTIFACTS["lemma"]
        raise MissingArtifactError(
            f"no {noun} artifacts under {pattern.parent}", needed_command=command
        )
    leaves = []
    for path in paths:
        try:
            label = path.name.removesuffix(pattern.name.lstrip("*"))  # what {period} filled
            leaves.append(PeriodCorpus(TimePeriod.parse(label)))
        except ParameterError as exc:
            raise ParameterError(f"{path}: {exc}") from exc
    return DiachronicCorpus(leaves)


def _read_vocabulary(config: RunConfig, level: str, leaf: PeriodCorpus) -> lexicon_mod.Vocabulary:
    """The ``level`` vocabulary ingest wrote for the leaf; its header must name the same period."""
    path = _existing(config, level, period=leaf.period)
    vocab = lexicon_mod.read_vocabulary(path)
    _require_header(path, "period", vocab.period.label, leaf.period.label)
    return vocab


def _load_vocab_artifacts(config: RunConfig) -> DiachronicCorpus:
    """The corpus of ``_corpus``, each leaf holding its lemma vocabulary."""
    tree = _corpus(config)
    for leaf in tree.leaves():
        leaf.vocabulary = _read_vocabulary(config, "lemma", leaf)
    return tree


def _word_report_name(kind: str, word: str, *labels: str) -> str:
    """File stem of a word-derived report, e.g. ``freq_belge``.

    ``%``, ``/`` and ``\\`` in the word are percent-encoded so the name stays
    one file inside ``reports/``; every other character is kept as is. An
    empty word, one with a NUL character, or one whose report file name would
    exceed 255 bytes, is rejected with ParameterError before any work is done.
    """
    if not word or "\0" in word:
        raise ParameterError("--word must not be empty or contain a NUL character")
    encoded = word.replace("%", "%25").replace("/", "%2F").replace("\\", "%5C")
    name = "_".join((kind, encoded, *labels))
    if len(os.fsencode(name + _LONGEST_REPORT_SUFFIX)) > _MAX_REPORT_NAME_BYTES:
        raise ParameterError(
            f"--word is too long: its report file name would exceed "
            f"{_MAX_REPORT_NAME_BYTES} bytes"
        )
    return name


def _parse_periods(periods: list[TimePeriod] | None) -> list[TimePeriod] | None:
    """The periods of a ``--periods`` flag; no values means all (None).
    ``corpus.select_leaves`` rejects a period listed twice."""
    return periods or None


def cmd_divergence(config: RunConfig, args: argparse.Namespace) -> str:
    from . import divergence as divergence_mod

    reports = config.output_dir / "reports"
    periods, pair = _parse_periods(args.periods), args.pair
    tree = _load_vocab_artifacts(config)
    # compute everything first, so a bad --pair writes no report
    matrices = {
        "jaccard": divergence_mod.jaccard_matrix(tree, periods),
        "jsd": divergence_mod.jsd_matrix(tree, periods),
    }
    if pair:
        ranking = divergence_mod.contributions_between(tree, *pair, args.top_k)
    written = []
    for name, rows in matrices.items():
        labels = [period.label for period, _ in rows]
        grid = ([period.label, *row] for period, row in rows)
        write_artifact(reports / f"{name}.csv", csv_table(["period", *labels], grid))
        payload = {"metric": name, "periods": labels, "values": [row for _, row in rows]}
        write_artifact(reports / f"{name}.json", to_json(payload))
        written += [f"{name}.csv", f"{name}.json"]
    if pair:
        name = f"jsd_contributions_{pair[0].label}_{pair[1].label}"
        records = [
            {"lemma": lemma, "contribution": value, "side": period.label}
            for lemma, value, period in ranking
        ]
        _write_report(reports, name, records, ("lemma", "contribution", "side"))
        written += [f"{name}.csv", f"{name}.json"]
    return to_json({"written": [reports.joinpath(n).as_posix() for n in written]})


def cmd_survived(config: RunConfig, args: argparse.Namespace) -> str:
    from . import divergence as divergence_mod

    periods, base = _parse_periods(args.periods), args.base_period
    series = divergence_mod.survived_words(_load_vocab_artifacts(config), base, periods)
    name, header = f"survived_{base.label}", ("period", "survived_words")
    return _write_report(config.output_dir / "reports", name, series_records(series), header)


def cmd_ortho(config: RunConfig, args: argparse.Namespace) -> str:
    from . import orthography as orthography_mod

    reports = config.output_dir / "reports"
    periods = _parse_periods(args.periods)
    classes = orthography_mod.DEFAULT_CLASSES if args.classes is None else args.classes
    require_distinct(classes, "class")
    tree = _load_vocab_artifacts(config)
    for leaf in tree.leaves():  # the ending ratios read surface forms
        leaf.surface_vocabulary = _read_vocabulary(config, "surface", leaf)
    # compute every analysis first, so a failing class writes no report
    class_rows = {
        pair_class: orthography_mod.ending_ratio_rows(tree, pair_class, periods)
        for pair_class in classes
    }
    circumflex_rows = orthography_mod.circumflex_frequency(tree, periods)
    # The two CSVs stay rendered by orthography.ending_ratio_csv and
    # circumflex_csv: the benchmark tracer wraps both as trace targets.
    for pair_class, rows in class_rows.items():
        name = f"ortho_ratio_{pair_class}"
        write_artifact(reports / f"{name}.csv", orthography_mod.ending_ratio_csv(pair_class, rows))
        records = [
            {"period": period.label, "class": pair_class,
             "soft_total": soft, "hard_total": hard, "ratio": ratio}
            for period, soft, hard, ratio in rows
        ]
        _write_report(reports, name, records)
    write_artifact(reports / "circumflex.csv", orthography_mod.circumflex_csv(circumflex_rows))
    records = [
        {"period": period.label, "raw": count, "per_million": rate}
        for period, count, rate in circumflex_rows
    ]
    _write_report(reports, "circumflex", records)
    return to_json({"classes": list(classes)})


def cmd_dict_crossover(config: RunConfig, args: argparse.Namespace) -> str:
    periods = _parse_periods(args.periods)
    tree = _load_vocab_artifacts(config)
    select_leaves(tree, periods)  # checks the range, also for a dictionary of no entries
    entries = _dictionary_entries(args)
    records = []
    for entry in entries:
        for old in entry.old_forms:
            period = crossover_period(tree, entry.modern, old, periods, mode=args.mode)
            label = period.label if period else "none"
            records.append({"modern": entry.modern, "old": old, "crossover": label})
    header = ("modern", "old", "crossover_period")
    return _write_report(config.output_dir / "reports", "crossover", records, header)


def cmd_freq(config: RunConfig, args: argparse.Namespace) -> str:
    name = _word_report_name("freq", args.word)
    periods = _parse_periods(args.periods)
    tree = _load_vocab_artifacts(config)
    series = lexicon_mod.frequency(tree, args.word, periods, normalize=args.normalize)
    header = ("period", "normalized_frequency" if args.normalize else "frequency")
    return _write_report(config.output_dir / "reports", name, series_records(series), header)


def _build_ppmi(config: RunConfig, leaf: PeriodCorpus):
    """A leaf's association matrix from its token ids; no command reads the ``ppmi`` export."""
    from . import embeddings as embeddings_mod

    cooc = embeddings_mod.count_cooccurrences(leaf, config.embedding.window)
    return embeddings_mod.build_ppmi(cooc, config.embedding.alpha)  # frees cooc before any SVD


def cmd_embed(config: RunConfig, args: argparse.Namespace) -> str:
    from . import embeddings as embeddings_mod

    leaves = _load_vocab_artifacts(config).leaves()
    # load every store and build every period's result before writing anything,
    # so a missing store or a failing period leaves no output
    for leaf in leaves:
        lexicon_mod.read_token_ids(_existing(config, "tokens", period=leaf.period), leaf)
    cfg = config.embedding

    def build(leaf: PeriodCorpus):
        if args.kind == "cbow":
            from . import cbow as cbow_mod

            return cbow_mod.train_cbow(
                leaf, dim=cfg.dim, window=cfg.window, negatives=cfg.negatives,
                downsample=cfg.downsample, smoothing_alpha=cfg.alpha, seed=cfg.seed,
                epochs=cfg.epochs,
            )
        ppmi = _build_ppmi(config, leaf)
        return ppmi if args.kind == "ppmi" else embeddings_mod.svd_embeddings(ppmi, cfg.dim)[0]

    results = [build(leaf) for leaf in leaves]
    artifact = "ppmi" if args.kind == "ppmi" else "vectors"
    write = embeddings_mod.write_ppmi if args.kind == "ppmi" else embeddings_mod.write_embeddings
    paths = [_artifact_path(config, artifact, period=l.period, kind=args.kind) for l in leaves]
    for result, path in zip(results, paths):
        write(result, path)
    if artifact == "vectors":  # each store has its .vec export beside it
        paths = [p for path in paths for p in (path, path.with_suffix(".vec"))]
    return to_json({"written": [path.as_posix() for path in paths]})


def _read_embedding_artifact(config: RunConfig, period: TimePeriod, kind: str):
    from . import embeddings as embeddings_mod

    path = _existing(config, "vectors", period=period, kind=kind)
    embedding_set = embeddings_mod.read_embeddings(path)
    _require_header(path, "period", embedding_set.period.label, period.label)
    _require_header(path, "provenance", embedding_set.provenance, kind)
    return embedding_set


def cmd_align(config: RunConfig, args: argparse.Namespace) -> str:
    from . import alignment as alignment_mod

    source, target = args.source, args.target
    select_leaves(_corpus(config), [source, target])
    source_set = _read_embedding_artifact(config, source, args.kind)
    target_set = _read_embedding_artifact(config, target, args.kind)
    transform = alignment_mod.procrustes_align(source_set, target_set)
    path = _artifact_path(config, "transform", source=source, target=target, kind=args.kind)
    alignment_mod.write_transform(transform, path)
    return to_json({"written": path.as_posix(), "shared_words": len(transform.shared_vocab)})


def cmd_most_similar(config: RunConfig, args: argparse.Namespace) -> str:
    from . import embeddings as embeddings_mod

    name = _word_report_name("most_similar", args.word, args.period.label)
    select_leaves(_corpus(config), [args.period])
    embedding_set = _read_embedding_artifact(config, args.period, args.kind)
    ranking = embeddings_mod.most_similar(args.word, args.top_k, embedding_set)
    return _write_report(config.output_dir / "reports", name, ranking_records(ranking))


def cmd_aligned_most_similar(config: RunConfig, args: argparse.Namespace) -> str:
    from . import alignment as alignment_mod

    target, base = args.target, args.base
    name = _word_report_name("aligned_most_similar", args.word, target.label, base.label)
    select_leaves(_corpus(config), [target, base])
    target_set = _read_embedding_artifact(config, target, args.kind)
    base_set = _read_embedding_artifact(config, base, args.kind)
    path = _existing(config, "transform", source=target, target=base, kind=args.kind)
    ranking = alignment_mod.aligned_most_similar(
        args.word, args.top_k, target_set, base_set, alignment_mod.read_transform(path)
    )
    return _write_report(config.output_dir / "reports", name, ranking_records(ranking))


def cmd_semantic_change(config: RunConfig, args: argparse.Namespace) -> str:
    from . import alignment as alignment_mod

    name = _word_report_name("semantic_change", args.word)
    periods = [leaf.period for leaf in select_leaves(_corpus(config), args.periods)]
    sets = [_read_embedding_artifact(config, p, args.kind) for p in periods]
    transforms = [
        alignment_mod.read_transform(
            _existing(config, "transform", source=later, target=earlier, kind=args.kind)
        )
        for earlier, later in zip(periods, periods[1:])
    ]
    series = alignment_mod.semantic_change(args.word, sets, transforms)
    return _write_report(config.output_dir / "reports", name, series_records(series))


def cmd_collocations(config: RunConfig, args: argparse.Namespace) -> str:
    from . import embeddings as embeddings_mod

    name = _word_report_name("collocations", args.word, args.period.label)
    [leaf] = select_leaves(_corpus(config), [args.period])
    leaf.vocabulary = _read_vocabulary(config, "lemma", leaf)
    lexicon_mod.read_token_ids(_existing(config, "tokens", period=leaf.period), leaf)
    ranking = embeddings_mod.collocations(args.word, args.top_k, _build_ppmi(config, leaf))
    records = ranking_records(ranking, "association")
    return _write_report(config.output_dir / "reports", name, records)


def _dictionary_entries(args: argparse.Namespace) -> list[DictionaryEntry]:
    """The entries of ``--dictionary``, or of the bundled sample when it is not given."""
    return load_dictionary(Path(args.dictionary)) if args.dictionary else load_sample_dictionary()


def cmd_dict(config: RunConfig, args: argparse.Namespace) -> str:
    entries = _dictionary_entries(args)
    payload = {
        "entries": len(entries),
        "pairs": sum(len(e.old_forms) for e in entries),
        "headwords": [e.modern for e in entries],
    }
    return to_json(payload)


class _ArgumentParser(argparse.ArgumentParser):
    """An argument parser whose errors raise ParameterError instead of printing usage."""

    def __init__(self, **kwargs):  # sub-parsers are of this class too
        super().__init__(allow_abbrev=False, **kwargs)  # one spelling per flag

    def error(self, message: str):
        raise ParameterError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    """The CLI grammar: each command parser declares exactly the flags its handler reads."""
    parser = _ArgumentParser(prog="diacorpus", description="Diachronic corpus analytics toolkit")
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--output-dir", help="override the configured output directory")
    commands = parser.add_subparsers(dest="command", required=True)
    period = TimePeriod.parse

    def command(group, name: str, handler, help: str) -> argparse.ArgumentParser:
        sub = group.add_parser(name, help=help)
        sub.set_defaults(handler=handler)
        return sub

    command(commands, "ingest", cmd_ingest, "build the corpus tree and write its artifacts")

    analyze = commands.add_parser("analyze", help="run a vocabulary-level analysis")
    analyses = analyze.add_subparsers(dest="analysis", required=True)

    def analysis(name: str, handler, help: str) -> argparse.ArgumentParser:
        sub = command(analyses, name, handler, help)
        sub.add_argument("--periods", nargs="*", type=period, help="restrict to these periods")
        return sub

    divergence = analysis("divergence", cmd_divergence, "Jaccard and JSD matrices")
    divergence.add_argument("--pair", nargs=2, type=period, metavar=("PERIOD_A", "PERIOD_B"),
                            help="emit per-word divergence contributions for this period pair")
    divergence.add_argument("--top-k", type=int, default=20)
    survived = analysis("survived", cmd_survived, "words of a base period surviving per period")
    survived.add_argument("--base-period", type=period, required=True)
    ortho = analysis("ortho", cmd_ortho, "variant ending ratios and circumflex frequency")
    # no default here: orthography loads only when ortho runs, and cmd_ortho fills it in
    ortho.add_argument("--classes", nargs="*", help="variant pair classes")
    crossover = analysis("dict-crossover", cmd_dict_crossover, "replacement crossover periods")
    crossover.add_argument("--dictionary", help="replacement dictionary JSON (default: bundled)")
    crossover.add_argument("--mode", choices=["sustained", "first-touch"], default="sustained")
    freq = analysis("freq", cmd_freq, "frequency of one word per period")
    freq.add_argument("--word", required=True, type=nfc)
    freq.add_argument("--normalize", action="store_true", help="per-million frequencies")

    embed = command(commands, "embed", cmd_embed, "build embedding artifacts per period")
    embed.add_argument("kind", choices=["ppmi", "svd", "cbow"])

    align = command(commands, "align", cmd_align, "fit a cross-period alignment transform")
    align.add_argument("--from", dest="source", type=period, required=True)
    align.add_argument("--to", dest="target", type=period, required=True)
    align.add_argument("--kind", choices=["svd", "cbow"], default="svd")

    query = commands.add_parser("query", help="ranked similarity and change queries")
    queries = query.add_subparsers(dest="query", required=True)
    most_similar = command(queries, "most-similar", cmd_most_similar, "nearest words in a period")
    most_similar.add_argument("--word", required=True, type=nfc)
    most_similar.add_argument("--period", type=period, required=True)
    most_similar.add_argument("--top-k", type=int, default=10)
    most_similar.add_argument("--kind", choices=["svd", "cbow"], default="svd")
    aligned = command(queries, "aligned-most-similar", cmd_aligned_most_similar, "aligned ranking")
    aligned.add_argument("--word", required=True, type=nfc)
    aligned.add_argument("--target", type=period, required=True)
    aligned.add_argument("--base", type=period, required=True)
    aligned.add_argument("--top-k", type=int, default=10)
    aligned.add_argument("--kind", choices=["svd", "cbow"], default="svd")
    change = command(queries, "semantic-change", cmd_semantic_change, "drift across periods")
    change.add_argument("--word", required=True, type=nfc)
    change.add_argument("--periods", nargs="+", type=period, required=True)
    change.add_argument("--kind", choices=["svd", "cbow"], default="svd")
    collocations = command(queries, "collocations", cmd_collocations, "top PPMI associates")
    collocations.add_argument("--word", required=True, type=nfc)
    collocations.add_argument("--period", type=period, required=True)
    collocations.add_argument("--top-k", type=int, default=10)

    dict_cmd = command(commands, "dict", cmd_dict, "summarize a replacement dictionary")
    dict_cmd.add_argument("--dictionary", help="dictionary JSON path (default: bundled sample)")

    return parser


def _error_json(code: int, message: str, context: dict) -> str:
    return json.dumps(
        {"error": code, "message": message, "context": context}, ensure_ascii=False
    )


def _exit_code(exc: Exception) -> tuple[int, dict]:
    """The exit code of a failure and the error context it adds."""
    if isinstance(exc, MissingArtifactError):
        run_first = {"run_first": exc.needed_command} if exc.needed_command else {}
        return EXIT_MISSING_ARTIFACT, run_first
    usage = (ParameterError, IngestError, OutOfVocabularyError, ComputationUndefinedError)
    if isinstance(exc, usage):
        return EXIT_USAGE, {}
    if isinstance(exc, DiacorpusError):
        return EXIT_INTERNAL, {}
    # the process boundary: any other failure (say, an OSError from the
    # file system) leaves as the same one-line error object
    import traceback

    return EXIT_INTERNAL, {"exception": type(exc).__name__, "traceback": traceback.format_exc()}


def main(argv: list[str] | None = None) -> int:
    # parsed into a namespace of our own, so an argument error after the
    # command name still knows the command
    args = argparse.Namespace(command=None)
    try:
        try:
            build_parser().parse_args(argv, args)
        except SystemExit:  # only -h/--help exits: argument errors raise ParameterError
            return EXIT_OK
        config = RunConfig.from_file(args.config)
        if args.output_dir:
            config.output_dir = _path(args.output_dir, "--output-dir")
        with _Lock(config.output_dir):  # no other command writes here: temp files are stale
            for name in {".", "reports", *(Path(t).parent for t, _, _ in ARTIFACTS.values())}:
                sweep_temp_files(config.output_dir / name)
            print(args.handler(config, args), end="")
        return EXIT_OK
    except Exception as exc:
        code, context = _exit_code(exc)
        if args.command:
            context = {"command": args.command, **context}
        print(_error_json(code, str(exc), context), file=sys.stderr)
        return code


def console_main() -> None:  # pragma: no cover - thin process wrapper
    code = main()
    # The process ends here. Frozen objects sit outside every generation, so
    # interpreter shutdown runs no full collection over the objects of numpy,
    # scipy and this package; atexit handlers and stream flushes still run.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":  # pragma: no cover
    console_main()
