"""Print the peak resident memory of one diacorpus command, in MB.

Standard library only. The command runs as ``python -m diacorpus.cli <args>``
in a child of this small process, with this checkout's ``src`` first on
``PYTHONPATH``. Its stdout is discarded and its stderr passes through. When it
ends, ``peak_rss_mb <value>`` goes to stdout: the child's ``ru_maxrss`` in MB
(2**20 bytes), and this script exits with the child's exit code.

Linux keeps a process's peak across ``exec``, so a child's ``ru_maxrss`` never
reads below the resident memory of the process that started it. This parent
imports nothing heavy, so that floor is ~14 MB, what a bare interpreter takes
and below any command's own peak; the benchmark's per-command figures start
from its larger harness.

Usage, from the repository root (not part of CI):

    python tools/peak_rss.py --config CONFIG --output-dir OUT embed svd
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(cli_args: list[str]) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "diacorpus.cli", *cli_args]
    code = subprocess.run(command, env=env, stdout=subprocess.DEVNULL).returncode
    # the only child this process waits for, so the children's peak is its peak
    kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(f"peak_rss_mb {kib / 1024:.2f}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
