"""Print the executable lines of ``src/diacorpus/*.py`` that tier-1 never reaches.

Standard library only. A line tracer is installed (``sys.settrace`` and
``threading.settrace``) before anything imports ``diacorpus``; then tier-1
runs in this process through ``pytest.main``. A module's executable lines are
the line numbers of its compiled code objects (``co_lines``); each one no
traced frame ran is printed as ``path:line``, then a count per module and in
total. Tests that run a command in a subprocess are not traced, so a line
only they reach counts as unreached.

Usage, from the repository root (arguments go to pytest; it takes about
twice as long as plain tier-1):

    python tools/unreached_lines.py [pytest args]

CI runs it on one Python version and fails if the ``# total:`` count is
above 16, the count tier-1 leaves today.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "diacorpus"


def executable_lines(path: Path) -> set[int]:
    """The line numbers that the compiled code of ``path`` can run."""
    lines: set[int] = set()
    pending = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while pending:
        code = pending.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        pending.extend(const for const in code.co_consts if isinstance(const, CodeType))
    return lines


def main(pytest_args: list[str]) -> int:
    prefix = str(PACKAGE) + "/"
    reached: dict[str, set[int]] = {}

    def trace_lines(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None  # no line events for frames outside the package
        reached.setdefault(filename, set()).add(frame.f_lineno)
        return trace_lines

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        import pytest

        status = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args], plugins=[])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total_missed = total_lines = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        missed = sorted(lines - reached.get(str(path), set()))
        total_missed, total_lines = total_missed + len(missed), total_lines + len(lines)
        for line in missed:
            print(f"{path.relative_to(ROOT)}:{line}")
        print(f"# {path.name}: {len(missed)} of {len(lines)} executable lines unreached")
    print(f"# total: {total_missed} of {total_lines} executable lines unreached")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
