"""The README names only code that exists."""

import importlib
import re
from pathlib import Path

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
