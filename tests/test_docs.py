"""The README names only code that exists."""

import importlib
import re
import shlex
from pathlib import Path

from diacorpus.cli import build_parser

README = Path(__file__).parents[1] / "README.md"


def test_readme_library_imports_resolve():
    library = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    imports = re.search(r"^from diacorpus import \([^)]*\)", library, re.MULTILINE)
    assert imports is not None, "no 'from diacorpus import (...)' in the README's Library section"
    exec(compile(imports.group(0), "README.md", "exec"), {})


def test_readme_module_attributes_resolve():
    names = re.findall(r"`diacorpus\.(\w+)\.(\w+)`", README.read_text(encoding="utf-8"))
    assert names, "the README names no `diacorpus.<module>.<name>`"
    missing = [
        f"diacorpus.{module}.{name}"
        for module, name in names
        if not hasattr(importlib.import_module(f"diacorpus.{module}"), name)
    ]
    assert missing == []


def test_readme_cli_examples_parse():
    cli_block = README.read_text(encoding="utf-8").split("## CLI", 1)[1].split("```")[1]
    lines = cli_block.replace("\\\n", " ")
    commands = re.findall(r"^diacorpus (--config run\.json .*)$", lines, re.MULTILINE)
    assert commands, "the README's CLI block has no 'diacorpus --config run.json ...' line"
    parser = build_parser()
    for command in commands:
        parser.parse_args(shlex.split(command))
