#!/usr/bin/env python3
"""Regenerate the frozen end-to-end outputs under tests/golden/.

Runs the canonical CLI flow over the bundled fixture into a scratch
directory and copies the report subset the acceptance suite compares
byte-for-byte. Run only when the fixture or the output formats change on
purpose, and re-verify the content oracles afterwards (pytest covers them).
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tests"))

from e2e_flow import GOLDEN_FILES, run_flow  # noqa: E402

CONFIG = REPO / "tests" / "fixtures" / "fixture_config.json"
GOLDEN = REPO / "tests" / "golden"


def main() -> None:
    # each golden is saved under its basename, so two entries must not share one
    names = [Path(rel).name for rel in GOLDEN_FILES]
    shared = sorted({name for name in names if names.count(name) > 1})
    if shared:
        sys.exit(f"GOLDEN_FILES entries share a basename: {', '.join(shared)}")
    with tempfile.TemporaryDirectory() as scratch:
        run_flow(str(CONFIG), scratch)
        for rel in GOLDEN_FILES:
            source = Path(scratch) / rel
            target = GOLDEN / Path(rel).name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(source, target)
            print("froze", target.relative_to(REPO))


if __name__ == "__main__":
    main()
