#!/usr/bin/env python3
"""diacorpus benchmark: the CLI run as an analyst runs it, one command per process.

Usage (from the root of a checkout):

    python3 benchmark/run.py --workload flow-1m --seed 1 --seconds 10 --trace 0

Each run generates a seeded synthetic corpus (benchmark/corpus_gen.py), runs
the workload's set-up, then repeats the workload's timed command sequence
until ``--seconds`` of command time have been measured (at least once). Every
command is ``python3 -m diacorpus.cli ...`` in its own process, so interpreter
start and imports are counted. Commands run one after another (a closed loop
with one client). Every output is checked against the generator's ground
truth, and a digest of all artifacts is compared across repetitions.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics. With
``--trace 1`` the sequence runs once untraced and once through
benchmark/trace_cli.py, and the last line holds the per-layer metrics. The
full record of a run (commands, timings, checks, digests, environment) is
written to .bench_work/results/. See benchmark/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from corpus_gen import LABELS, PERIODS, QUERY_WORDS, CorpusSpec, generate
from layers import per_layer_metrics

EARLY, LATE = LABELS
ROOT = Path.cwd()
WORK = ROOT / ".bench_work"
BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 3
COMMAND_TIMEOUT_S = 170
QUERY_KINDS = ("most-similar", "aligned-most-similar", "semantic-change", "collocations", "freq")
STATS_RAW = "The number of words before filtering"
STATS_DOCS = "The number of documents"

# The canonical CLI flow (tests/e2e_flow.py::E2E_STEPS) without `embed cbow`,
# copied so that the benchmark stays fixed while the repository changes.
FLOW_STEPS = (
    ("ingest", ["ingest"]),
    ("analyze", ["analyze", "divergence", "--pair", EARLY, LATE, "--top-k", "20"]),
    ("analyze", ["analyze", "survived", "--base-period", EARLY]),
    ("analyze", ["analyze", "ortho"]),
    ("analyze", ["analyze", "dict-crossover"]),
    ("analyze", ["analyze", "freq", "--word", "belge", "--normalize"]),
    ("embed", ["embed", "ppmi"]),
    ("embed", ["embed", "svd"]),
    ("align", ["align", "--from", LATE, "--to", EARLY, "--kind", "svd"]),
    ("query", ["query", "most-similar", "--word", "kanun", "--period", EARLY]),
    ("query", ["query", "aligned-most-similar", "--word", "televizyon",
               "--target", LATE, "--base", EARLY, "--top-k", "10"]),
    ("query", ["query", "semantic-change", "--word", "piyasa", "--periods", EARLY, LATE]),
    ("query", ["query", "semantic-change", "--word", "kanun", "--periods", EARLY, LATE]),
    ("query", ["query", "collocations", "--word", "kanun", "--period", EARLY]),
)


@dataclass(frozen=True)
class Workload:
    why: str
    spec: CorpusSpec
    threshold_divisor: int
    ngram_orders: tuple[int, ...]
    embedding: dict
    setup_ingest: bool  # ingest is a precondition run in set-up, not timed
    steps: tuple  # fixed timed (kind, argv) steps
    queries: int = 0  # seeded query mix appended to the steps (untraced run)
    trace_queries: int = 0  # the same in a traced run, which times the sequence twice


def _embedding(**overrides) -> dict:
    base = {"dim": 100, "window": 2, "alpha": 0.75, "negatives": 5,
            "downsample": 1e-3, "epochs": 1, "seed": 1}
    base.update(overrides)
    return base


WORKLOADS = {
    "flow-1m": Workload(
        why="token-bound write side: ingest, analyses, embed ppmi/svd re-tokenizing raw text, "
            "align and the five canonical queries",
        spec=CorpusSpec(tokens_per_period=220_000, random_types=3_000, docs_per_period=100,
                        planted_scale=40),
        threshold_divisor=50_000,
        ngram_orders=(1, 2, 3),
        embedding=_embedding(),
        setup_ingest=False,
        steps=FLOW_STEPS,
    ),
    "query-midvocab": Workload(
        why="read side: vocabularies above the dense-SVD limit (svds path), then 40 seeded "
            "queries of five kinds, each a fresh process",
        spec=CorpusSpec(tokens_per_period=30_000, random_types=1_500, docs_per_period=40,
                        planted_scale=12),
        threshold_divisor=20_000,
        ngram_orders=(),
        embedding=_embedding(),
        setup_ingest=True,
        steps=(
            ("embed", ["embed", "ppmi"]),
            ("embed", ["embed", "svd"]),
            ("align", ["align", "--from", LATE, "--to", EARLY, "--kind", "svd"]),
        ),
        queries=40,
        trace_queries=20,
    ),
    "cbow-smallvocab": Workload(
        why="CBOW per-token training loop at dim 100 on vocabularies below the dense-SVD "
            "limit; bypasses n-grams",
        spec=CorpusSpec(tokens_per_period=60_000, random_types=900, docs_per_period=60,
                        planted_scale=15),
        threshold_divisor=20_000,
        ngram_orders=(),
        embedding=_embedding(epochs=2),
        setup_ingest=True,
        steps=(
            ("embed", ["embed", "cbow"]),
            ("embed", ["embed", "svd"]),
            ("align", ["align", "--from", LATE, "--to", EARLY, "--kind", "cbow"]),
        ) + tuple(
            ("query", ["query", "most-similar", "--word", w, "--period", period, "--kind", "cbow"])
            for w in QUERY_WORDS for period in LABELS
        ),
    ),
    # not in BENCHMARK.json: a tiny corpus through every command kind, to
    # check the harness itself in seconds
    "smoke": Workload(
        why="tiny corpus through every command kind",
        spec=CorpusSpec(tokens_per_period=4_000, random_types=200, docs_per_period=10,
                        planted_scale=4),
        threshold_divisor=1_000_000,
        ngram_orders=(1, 2, 3),
        embedding=_embedding(dim=16),
        setup_ingest=False,
        steps=FLOW_STEPS + (
            ("embed", ["embed", "cbow"]),
            ("align", ["align", "--from", LATE, "--to", EARLY, "--kind", "cbow"]),
            ("query", ["query", "most-similar", "--word", "kanun", "--period", EARLY, "--kind", "cbow"]),
        ),
        queries=5,
        trace_queries=5,
    ),
}


# ---------------------------------------------------------------------------
# Running commands
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # one BLAS/OpenMP thread (<= nproc): steadier timings, one thread count
    # for the determinism check
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


@dataclass
class Command:
    phase: str
    kind: str
    argv: list
    wall_s: float
    returncode: int
    max_rss_mb: float
    stdout: str
    stderr: str
    spans: dict | None = None


class Runner:
    """Runs one command at a time and keeps the record of every command."""

    def __init__(self, work: Path):
        self.work = work
        self.env = child_env()
        self.commands: list[Command] = []
        self.log_dir = work / "logs"
        self.log_dir.mkdir(parents=True, exist_ok=True)

    def run(self, phase: str, kind: str, argv: list, traced: bool) -> Command:
        n = len(self.commands)
        spans_path = self.log_dir / f"{n}.spans.json"
        cli_args = ["--config", str(self.work / "run.json"), *argv]
        if traced:
            cmd = [sys.executable, str(BENCH_DIR / "trace_cli.py"), str(spans_path), *cli_args]
        else:
            cmd = [sys.executable, "-m", "diacorpus.cli", *cli_args]
        out_path, err_path = self.log_dir / f"{n}.out", self.log_dir / f"{n}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=self.work)
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        spans = None
        if traced and spans_path.is_file():
            spans = json.loads(spans_path.read_text(encoding="utf-8"))
        command = Command(phase, kind, argv, wall, proc.returncode, usage.ru_maxrss / 1024.0,
                          out_path.read_text(encoding="utf-8", errors="replace"),
                          err_path.read_text(encoding="utf-8", errors="replace")[-2000:], spans)
        self.commands.append(command)
        return command


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


class Checks:
    """Counts operations attempted and failed; keeps the failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def command(self, command: Command) -> bool:
        ok = command.returncode == 0
        self.expect(ok, f"exit {command.returncode}: {' '.join(command.argv)}: {command.stderr.strip()}")
        return ok


def read_vocab(path: Path) -> tuple[int, dict[str, int]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    tokens = int(lines[0].split("#tokens=")[1])
    return tokens, {w: int(c) for w, c in (line.split("\t") for line in lines[1:] if line)}


def read_csv_rows(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()[1:]]


def check_ingest(out: Path, truth: dict, checks: Checks) -> None:
    stats = json.loads((out / "stats.json").read_text(encoding="utf-8"))["periods"]
    per_period_docs = truth["documents"] // len(LABELS)
    checks.expect([stats[l][STATS_RAW] for l in LABELS] == truth["raw_tokens"],
                  "stats.json raw token counts differ from the generator's")
    checks.expect([stats[l][STATS_DOCS] for l in LABELS] == [per_period_docs] * len(LABELS),
                  "stats.json document counts differ from the generator's")
    for p, label in enumerate(LABELS):
        _, lemmas = read_vocab(out / "vocab" / f"{label}.lemma.tsv")
        wrong = [w for w, c in truth["planted"][p].items() if lemmas.get(w) != c]
        checks.expect(not wrong, f"{label} planted lemma frequencies differ: {wrong[:5]}")


def check_analysis(argv: list, out: Path, truth: dict, checks: Checks) -> None:
    reports = out / "reports"
    if argv[:2] == ["analyze", "dict-crossover"]:
        got = {f"{m},{o}": c for m, o, c in read_csv_rows(reports / "crossover.csv")}
        checks.expect(got == truth["crossover"], "crossover.csv differs from the planted crossovers")
    elif argv[:2] == ["analyze", "ortho"]:
        for cls, totals in truth["ortho_totals"].items():
            rows = read_csv_rows(reports / f"ortho_ratio_{cls}.csv")
            checks.expect([[int(r[2]), int(r[3])] for r in rows] == totals,
                          f"ortho_ratio_{cls}.csv soft/hard totals differ from the planted ones")
        rows = read_csv_rows(reports / "circumflex.csv")
        checks.expect([int(r[1]) for r in rows] == truth["circumflex_raw"],
                      "circumflex.csv raw counts differ from the planted ones")


def check_embedding(argv: list, out: Path, dim: int, checks: Checks) -> None:
    kind = argv[1]
    for label in LABELS:
        _, lemmas = read_vocab(out / "vocab" / f"{label}.lemma.tsv")
        if kind == "ppmi":
            head = (out / "ppmi" / f"{label}.tsv").open(encoding="utf-8").readline()
            checks.expect(head.startswith(f"#period={label}"), f"{label} ppmi header: {head!r}")
        else:
            head = (out / "embeddings" / f"{label}.{kind}.vec").open(encoding="utf-8").readline()
            checks.expect(head.startswith(f"dim={dim} vocab={len(lemmas)} provenance={kind}"),
                          f"{label} {kind} embedding header: {head!r}")


def check_query(command: Command, vocabs: dict, checks: Checks) -> None:
    argv = command.argv
    try:
        payload = json.loads(command.stdout)
    except json.JSONDecodeError:
        checks.expect(False, f"unparsable output of {' '.join(argv)}")
        return
    word = argv[argv.index("--word") + 1]
    if argv[0] == "analyze":  # freq
        expected = [vocabs[l].get(word, 0) for l in LABELS]
        got = [row["value"] for row in payload]
        if "--normalize" in argv:
            ok = len(got) == len(LABELS) and all(v >= 0 for v in got)
        else:
            ok = got == expected
        checks.expect(ok, f"freq of {word!r}: {got} != {expected}")
    elif argv[1] in ("most-similar", "aligned-most-similar"):
        top_k = int(argv[argv.index("--top-k") + 1]) if "--top-k" in argv else 10
        # a word is its own nearest neighbour only across periods
        ok = len(payload) == top_k and (argv[1] != "most-similar" or word not in
                                        [row["lemma"] for row in payload])
        checks.expect(ok, f"{argv[1]} of {word!r} returned {len(payload)} rows")
    elif argv[1] == "semantic-change":
        ok = [row["period"] for row in payload] == list(LABELS) and payload[0]["value"] == 0.0
        checks.expect(ok, f"semantic-change of {word!r}: {payload}")
    elif argv[1] == "collocations":
        ok = 0 < len(payload) <= 10 and all(row["association"] > 0 for row in payload)
        checks.expect(ok, f"collocations of {word!r} returned {len(payload)} rows")


def tree_digest(path: Path) -> str:
    digest = hashlib.sha256()
    for file in sorted(p for p in path.rglob("*") if p.is_file() and p.name != ".lock"):
        digest.update(file.relative_to(path).as_posix().encode("utf-8") + b"\0")
        digest.update(hashlib.sha256(file.read_bytes()).digest())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


def query_steps(vocabs: dict | None, seed: int, count: int) -> list:
    """A seeded mix of the five query kinds over words in both periods.

    The planted query words come first; further words are drawn from the
    vocabularies ingest wrote (known before the timed sequence only when
    ingest ran in set-up).
    """
    words = list(QUERY_WORDS)
    if count > len(words):
        shared = sorted(set(vocabs[EARLY]) & set(vocabs[LATE]) - set(QUERY_WORDS))
        words += random.Random(seed).sample(shared, count - len(words))
    steps = []
    for i in range(count):
        word, kind, period = words[i], QUERY_KINDS[i % len(QUERY_KINDS)], LABELS[i % 2]
        if kind == "freq":
            argv = ["analyze", "freq", "--word", word]
        elif kind == "aligned-most-similar":
            argv = ["query", kind, "--word", word, "--target", LATE, "--base", EARLY]
        elif kind == "semantic-change":
            argv = ["query", kind, "--word", word, "--periods", EARLY, LATE]
        else:
            argv = ["query", kind, "--word", word, "--period", period]
        steps.append(("query", argv))
    return steps


def write_config(work: Path, workload: Workload) -> None:
    config = {
        "corpus_root": "corpus",
        "output_dir": "out",
        "bucketing": [list(p) for p in PERIODS],
        "filter": {"threshold_divisor": workload.threshold_divisor, "alphabetic_only": True},
        "analyzer_tsv": "corpus/stems.tsv",
        "ngram_orders": list(workload.ngram_orders),
        "embedding": workload.embedding,
        "workers": 1,
    }
    (work / "run.json").write_text(json.dumps(config, indent=1) + "\n", encoding="utf-8")


def run_pass(runner: Runner, phase: str, steps: list, traced: bool, ctx: dict, checks: Checks) -> dict:
    """Run the timed sequence once; return its timings and the artifact digest."""
    out = runner.work / "out"
    commands = []
    for kind, argv in steps:
        command = runner.run(phase, kind, argv, traced)
        commands.append(command)
        if not checks.command(command):
            continue
        if argv[0] == "ingest":
            check_ingest(out, ctx["truth"], checks)
            ctx["vocabs"] = {l: read_vocab(out / "vocab" / f"{l}.lemma.tsv")[1] for l in LABELS}
        elif kind == "query" or argv[:2] == ["analyze", "freq"]:
            check_query(command, ctx["vocabs"], checks)
        elif argv[0] == "analyze":
            check_analysis(argv, out, ctx["truth"], checks)
        elif argv[0] == "embed":
            check_embedding(argv, out, ctx["dim"], checks)
    return {
        "commands": commands,
        "flow_s": sum(c.wall_s for c in commands),
        "ingest_s": sum(c.wall_s for c in commands if c.kind == "ingest"),
        "embed_s": sum(c.wall_s for c in commands if c.kind == "embed"),
        "cbow_s": sum(c.wall_s for c in commands if c.argv[:2] == ["embed", "cbow"]),
        "queries_ms": [c.wall_s * 1000.0 for c in commands if c.kind == "query"],
        "digest": tree_digest(out),
    }


def setup(runner: Runner, workload: Workload, seed: int, traced: bool, repeats: int,
          checks: Checks) -> dict:
    """Generate the corpus (and ingest it, where ingest is not timed) ``repeats`` times."""
    work = runner.work
    times, ingest_times, corpus_digests, ingest_digests = [], [], [], []
    ctx = {"dim": workload.embedding["dim"]}
    # untimed warm-up: compiles the package's bytecode and fills the file cache
    subprocess.run([sys.executable, "-c", "import diacorpus.cli"], env=runner.env, cwd=work,
                   check=False)
    for _ in range(repeats):
        shutil.rmtree(work / "corpus", ignore_errors=True)
        shutil.rmtree(work / "out", ignore_errors=True)
        start = time.perf_counter()
        ctx["truth"] = generate(work / "corpus", workload.spec, seed)
        elapsed = time.perf_counter() - start
        corpus_digests.append(tree_digest(work / "corpus"))
        if workload.setup_ingest:
            command = runner.run("setup", "ingest", ["ingest"], traced)
            elapsed += command.wall_s
            ingest_times.append(command.wall_s)
            if checks.command(command):
                check_ingest(work / "out", ctx["truth"], checks)
                ingest_digests.append(tree_digest(work / "out"))
        times.append(elapsed)
    for name, digests in (("corpus", corpus_digests), ("ingest artifacts", ingest_digests)):
        for d in digests[1:]:
            checks.expect(d == digests[0], f"{name} differ between identical set-ups")
    if workload.setup_ingest and (work / "out" / "vocab").is_dir():
        ctx["vocabs"] = {l: read_vocab(work / "out" / "vocab" / f"{l}.lemma.tsv")[1] for l in LABELS}
    ctx.update(setup_s=times, setup_ingest_s=ingest_times, corpus_digest=corpus_digests[0],
               ingest_digest=ingest_digests[0] if ingest_digests else None)
    return ctx


def cbow_budget(out: Path, epochs: int) -> int:
    return epochs * sum(read_vocab(out / "vocab" / f"{l}.lemma.tsv")[0] for l in LABELS)


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between closest ranks (inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": child_env()["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
    }


def end_to_end(workload: Workload, ctx: dict, passes: list[dict], runner: Runner) -> dict:
    queries = [q for p in passes for q in p["queries_ms"]]
    ingest = [p["ingest_s"] for p in passes] if not workload.setup_ingest else ctx["setup_ingest_s"]
    return {
        "setup_s": (statistics.median(ctx["setup_s"]), "s"),
        "flow_s": (statistics.median(p["flow_s"] for p in passes), "s"),
        "ingest_s": (statistics.median(ingest), "s"),
        "embed_s": (statistics.median(p["embed_s"] for p in passes), "s"),
        "query_p50_ms": (percentile(queries, 50), "ms"),
        "query_p90_ms": (percentile(queries, 90), "ms"),
        "peak_rss_mb": (max(c.max_rss_mb for c in runner.commands), "MB"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "diacorpus" / "cli.py").is_file():
        print(f"benchmark: no diacorpus sources under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    write_config(work, workload)
    runner = Runner(work)
    checks = Checks()
    traced = bool(args.trace)
    try:
        ctx = setup(runner, workload, args.seed, traced, 1 if traced else SETUP_REPEATS, checks)
        steps = list(workload.steps)
        n_queries = workload.trace_queries if traced else workload.queries
        if n_queries:
            steps += query_steps(ctx.get("vocabs"), args.seed, n_queries)
        passes: list[dict] = []
        if traced:
            for phase, pass_traced in (("untraced", False), ("traced", True)):
                if not workload.setup_ingest:
                    shutil.rmtree(work / "out", ignore_errors=True)
                passes.append(run_pass(runner, phase, steps, pass_traced, ctx, checks))
        else:
            while not passes or sum(p["flow_s"] for p in passes) < args.seconds:
                if not workload.setup_ingest:
                    shutil.rmtree(work / "out", ignore_errors=True)
                passes.append(run_pass(runner, "timed", steps, False, ctx, checks))
        for p in passes[1:]:
            checks.expect(p["digest"] == passes[0]["digest"], "artifacts differ between repetitions")
        budget = ctx["cbow_budget"] = cbow_budget(work / "out", workload.embedding["epochs"])
        cbow_rates = [budget / p["cbow_s"] for p in passes if p["cbow_s"]]
        if traced:
            metrics = per_layer_metrics(runner, passes, ctx, ctx["truth"]["documents"])
        else:
            metrics = end_to_end(workload, ctx, passes, runner)
    finally:
        shutil.rmtree(work / "corpus", ignore_errors=True)
        shutil.rmtree(work / "out", ignore_errors=True)

    failed_share = checks.failed / checks.attempted
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "why": workload.why,
        "environment": environment(),
        "passes": len(passes),
        "setup_s": ctx["setup_s"],
        "flow_s": [p["flow_s"] for p in passes],
        "query_samples": sum(len(p["queries_ms"]) for p in passes),
        "cbow_tokens_per_s": statistics.median(cbow_rates) if cbow_rates else None,
        "cbow_budget_tokens": budget,
        "failed_share": failed_share,
        "failures": checks.failures,
        "not_applicable": ctx.get("not_applicable"),
        "layer_shares": ctx.get("layer_shares"),
        "dominant_layer": ctx.get("dominant_layer"),
        "digests": {"corpus": ctx["corpus_digest"], "ingest": ctx["ingest_digest"],
                    "passes": [p["digest"] for p in passes]},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "commands": [
            {"phase": c.phase, "argv": c.argv, "wall_s": c.wall_s, "returncode": c.returncode,
             "max_rss_mb": c.max_rss_mb}
            for c in runner.commands
        ],
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({k: record[k] for k in ("workload", "seed", "trace", "passes", "query_samples",
                                             "cbow_tokens_per_s", "failed_share", "digests")}))
    print(f"record: {(results / f'{tag}.json').relative_to(ROOT)}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
