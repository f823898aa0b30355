"""The README names only code that exists."""

import importlib
import json
import re
import shlex
from dataclasses import fields
from pathlib import Path

from diacorpus.cli import ARTIFACTS, EmbeddingConfig, RunConfig, build_parser
from diacorpus.preprocess import FilterConfig

from conftest import FIXTURES, PERIOD_1930, PERIOD_1980

README = Path(__file__).parents[1] / "README.md"


def test_readme_library_example_runs():
    library = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    example = library.split("```python\n", 1)[1].split("```", 1)[0]
    assert '"corpus_root"' in example, "the Library example no longer reads 'corpus_root'"
    corpus = repr(str(FIXTURES / "mini_corpus"))
    names = {}
    exec(compile(example.replace('"corpus_root"', corpus), "README.md", "exec"), names)
    assert [period for period, _ in names["series"]] == [PERIOD_1930, PERIOD_1980]
    assert isinstance(names["lemmas"], list)
    assert names["lemmas"] and all(isinstance(lemma, str) for lemma in names["lemmas"])


def test_readme_module_attributes_resolve():
    names = re.findall(r"`diacorpus\.(\w+)\.(\w+)`", README.read_text(encoding="utf-8"))
    assert names, "the README names no `diacorpus.<module>.<name>`"
    missing = [
        f"diacorpus.{module}.{name}"
        for module, name in names
        if not hasattr(importlib.import_module(f"diacorpus.{module}"), name)
    ]
    assert missing == []


def test_readme_config_example_names_every_key(tmp_path):
    section = README.read_text(encoding="utf-8").split("A run configuration is a single JSON", 1)[1]
    example = section.split("```json\n", 1)[1].split("```", 1)[0]
    raw = json.loads(example)
    for keys, cls in ((raw, RunConfig), (raw["filter"], FilterConfig),
                      (raw["embedding"], EmbeddingConfig)):
        assert sorted(keys) == sorted(f.name for f in fields(cls)), cls.__name__
    path = tmp_path / "run.json"
    path.write_text(example, encoding="utf-8")
    config = RunConfig.from_file(path)
    assert config.filter == FilterConfig(**raw["filter"])
    assert config.embedding == EmbeddingConfig(**raw["embedding"])
    assert config.ngram_orders == tuple(raw["ngram_orders"])


def test_readme_cli_examples_parse():
    cli_block = README.read_text(encoding="utf-8").split("## CLI", 1)[1].split("```")[1]
    lines = cli_block.replace("\\\n", " ")
    commands = re.findall(r"^diacorpus (--config run\.json .*)$", lines, re.MULTILINE)
    assert commands, "the README's CLI block has no 'diacorpus --config run.json ...' line"
    parser = build_parser()
    for command in commands:
        parser.parse_args(shlex.split(command))


def test_readme_lists_every_artifact():
    section = README.read_text(encoding="utf-8").split("## Output directory", 1)[1]
    lines = section.split("\n## ", 1)[0].replace("\n  ", " ").splitlines()
    items = [line for line in lines if line.startswith("- ")]
    for artifact, (path, _, command) in ARTIFACTS.items():
        path, command = (re.sub(r"\{(\w+)\}", r"<\1>", text) for text in (path, command))
        assert any(f"`{path}`" in i and i.endswith(f": `{command}`") for i in items), artifact


def test_readme_svd_routes_name_the_cutoffs():
    from diacorpus.embeddings import _DENSE_SVD_LIMIT, _GRAM_MIN_SIZE

    routes = README.read_text(encoding="utf-8").split("decides how they are computed:", 1)[1]
    routes = routes.lstrip("\n").split("\n\n", 1)[0]
    assert f"- n below {_GRAM_MIN_SIZE:,}, or" in routes
    assert f"- {_GRAM_MIN_SIZE:,} ≤ n ≤ {_DENSE_SVD_LIMIT:,} and" in routes
    assert f"- n above {_DENSE_SVD_LIMIT:,} (unless" in routes
