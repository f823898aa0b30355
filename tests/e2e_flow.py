"""The canonical end-to-end command flow over the bundled fixture.

Shared by the golden generator (tools/gen_goldens.py) and the acceptance
suite so the frozen outputs and the replayed run can never drift apart.
"""

from __future__ import annotations

import contextlib
import io

from diacorpus.cli import main

E2E_STEPS = [
    ["ingest"],
    ["analyze", "divergence", "--pair", "1930-1939", "1980-1989", "--top-k", "20"],
    ["analyze", "survived", "--base-period", "1930-1939"],
    ["analyze", "ortho"],
    ["analyze", "dict-crossover"],
    ["analyze", "freq", "--word", "belge", "--normalize"],
    ["embed", "ppmi"],
    ["embed", "svd"],
    ["embed", "cbow"],
    ["align", "--from", "1980-1989", "--to", "1930-1939", "--kind", "svd"],
    ["query", "most-similar", "--word", "kanun", "--period", "1930-1939"],
    [
        "query", "aligned-most-similar", "--word", "televizyon",
        "--target", "1980-1989", "--base", "1930-1939", "--top-k", "10",
    ],
    ["query", "semantic-change", "--word", "piyasa", "--periods", "1930-1939", "1980-1989"],
    ["query", "semantic-change", "--word", "kanun", "--periods", "1930-1939", "1980-1989"],
    ["query", "collocations", "--word", "kanun", "--period", "1930-1939"],
]

# Relative paths (within the output dir) frozen under tests/golden/ by name.
GOLDEN_FILES = [
    "vocab/1930-1939.lemma.tsv",
    "vocab/1980-1989.lemma.tsv",
    "vocab/1930-1939.surface.tsv",
    "vocab/1980-1989.surface.tsv",
    *(
        f"ngrams/{period}.n{order}.{level}.tsv"
        for period in ("1930-1939", "1980-1989")
        for order in (1, 2, 3)
        for level in ("surface", "lemma")
    ),
    "stats.json",
    "reports/jaccard.csv",
    "reports/jaccard.json",
    "reports/jsd.csv",
    "reports/jsd.json",
    "reports/jsd_contributions_1930-1939_1980-1989.csv",
    "reports/jsd_contributions_1930-1939_1980-1989.json",
    "reports/survived_1930-1939.csv",
    "reports/survived_1930-1939.json",
    "reports/ortho_ratio_b-p.csv",
    "reports/ortho_ratio_b-p.json",
    "reports/ortho_ratio_d-t.csv",
    "reports/ortho_ratio_d-t.json",
    "reports/circumflex.csv",
    "reports/circumflex.json",
    "reports/crossover.csv",
    "reports/crossover.json",
    "reports/freq_belge.csv",
    "reports/freq_belge.json",
    "reports/aligned_most_similar_televizyon_1980-1989_1930-1939.json",
    "reports/collocations_kanun_1930-1939.json",
]


def run_flow(config_path: str, output_dir: str) -> None:
    for step in E2E_STEPS:
        # command stdout goes to the report files anyway; keep the replay quiet
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["--config", config_path, "--output-dir", output_dir, *step])
        if code != 0:
            raise RuntimeError(f"end-to-end step {step} failed with exit code {code}")
