"""Print the executable lines of ``src/diacorpus/*.py`` that tier-1 never reaches,
and check them against the committed list of lines that may stay unreached.

Standard library only. A line tracer is installed (``sys.settrace`` and
``threading.settrace``) before anything imports ``diacorpus``; then tier-1
runs in this process through ``pytest.main``. A module's executable lines are
the line numbers of its compiled code objects (``co_lines``); each one no
traced frame ran is printed as ``path:line`` with its source text, then a
count per module and in total. Tests that run a command in a subprocess are
not traced, so a line only they reach counts as unreached.

``tools/unreached_lines.json`` lists the lines that may stay unreached, each
keyed by its file and its stripped source text (not by line number, so an edit
elsewhere in the file does not move it) and grouped under the reason no test
reaches it. Every unreached line not in the list, and every listed line that
was reached, is printed after a ``# not listed:`` or ``# listed but reached:``
marker, and the exit status is then 1; otherwise it is pytest's.

Usage, from the repository root (arguments go to pytest; it takes about
twice as long as plain tier-1, and the list holds for the whole suite only):

    python tools/unreached_lines.py [pytest args]

CI runs it on one Python version (3.11: the executable lines of a source
differ between versions) and fails on a nonzero exit status, so a change that
reaches one listed line and leaves another unreached cannot keep the count.
"""

from __future__ import annotations

import json
import sys
import threading
from collections import Counter
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "diacorpus"
ALLOWED = Path(__file__).with_suffix(".json")


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

    unreached: Counter[tuple[str, str]] = Counter()
    total_lines = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        missed = sorted(lines - reached.get(str(path), set()))
        total_lines += len(lines)
        source = path.read_text(encoding="utf-8").splitlines()
        name = path.relative_to(ROOT).as_posix()
        for line in missed:
            text = source[line - 1].strip()
            unreached[name, text] += 1
            print(f"{name}:{line}  {text}")
        print(f"# {path.name}: {len(missed)} of {len(lines)} executable lines unreached")
    print(f"# total: {unreached.total()} of {total_lines} executable lines unreached")

    allowed = Counter(
        (entry["file"], text)
        for entry in json.loads(ALLOWED.read_text(encoding="utf-8"))
        for text in entry["lines"]
    )
    differs = False
    for marker, lines in (
        ("not listed", unreached - allowed), ("listed but reached", allowed - unreached)
    ):
        for (name, text), count in sorted(lines.items()):
            print(f"# {marker}: {name}  {text}" + (f"  (x{count})" if count > 1 else ""))
            differs = True
    return int(status) or int(differs)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
