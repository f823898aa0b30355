import hashlib
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import unicodedata
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diacorpus
from diacorpus import cli, embeddings
from diacorpus.alignment import read_transform
from diacorpus.cli import _write_report, main, ranking_records, to_json
from diacorpus.corpus import csv_table
from diacorpus.embeddings import collocations, most_similar, read_embeddings, read_ppmi
from diacorpus.lexicon import read_vocabulary

from conftest import (
    EDGE_TOKENS,
    FIXTURES,
    GOLDEN,
    STORE_CORRUPTIONS,
    TRANSFORM_CORRUPTIONS,
    UNPICKLED,
    savez_bytes,
    store_arrays,
    with_edge_token,
    write_corrupt_store,
)
from e2e_flow import E2E_STEPS, run_flow

CONFIG = str(FIXTURES / "fixture_config.json")


def _child_env(**extra) -> dict:
    """Environment of a child interpreter that imports the package under test."""
    src = str(Path(diacorpus.__file__).parents[1])
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _fixture_config(tmp_path, embedding: str) -> str:
    """Write the fixture config, with absolute paths and the JSON text ``embedding``
    (which may hold ``NaN`` or ``1e400``) over its embedding settings; return its path."""
    raw = json.loads(Path(CONFIG).read_text(encoding="utf-8"))
    for key in ("corpus_root", "analyzer_tsv"):
        raw[key] = str(FIXTURES / raw[key])
    raw["embedding"] = "EMBEDDING"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw).replace('"EMBEDDING"', embedding), encoding="utf-8")
    return str(path)


def run_cli(out_dir, *args, capsys=None):
    code = main(["--config", CONFIG, "--output-dir", str(out_dir), *args])
    if capsys is not None:
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return code


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One full command flow over the fixture, reused by read-only assertions."""
    out = tmp_path_factory.mktemp("workspace")
    steps = [
        ["ingest"],
        ["analyze", "divergence", "--pair", "1930-1939", "1980-1989", "--top-k", "20"],
        ["analyze", "survived", "--base-period", "1930-1939"],
        ["analyze", "ortho"],
        ["analyze", "dict-crossover"],
        ["analyze", "freq", "--word", "belge", "--normalize"],
        ["embed", "ppmi"],
        ["embed", "svd"],
        ["align", "--from", "1980-1989", "--to", "1930-1939", "--kind", "svd"],
        ["query", "most-similar", "--word", "kanun", "--period", "1930-1939"],
        [
            "query", "aligned-most-similar", "--word", "televizyon",
            "--target", "1980-1989", "--base", "1930-1939", "--top-k", "10",
        ],
        ["query", "semantic-change", "--word", "piyasa", "--periods", "1930-1939", "1980-1989"],
        ["query", "collocations", "--word", "kanun", "--period", "1930-1939"],
    ]
    for step in steps:
        assert run_cli(out, *step) == 0, step
    return out


def _tree_digest(root: Path) -> dict:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestIngest:
    def test_stats_report_has_all_descriptive_fields(self, workspace):
        stats = json.loads((workspace / "stats.json").read_text(encoding="utf-8"))
        expected = {
            "The number of documents",
            "The number of words before filtering",
            "The number of words after filtering",
            "The number of unique surface level words",
            "The number of unique stems",
            "The number of unique stems after filtering",
            "Average token count per document",
        }
        for row in list(stats["periods"].values()) + [stats["total"]]:
            assert expected <= set(row)

    def test_artifact_files_written(self, workspace):
        assert (workspace / "vocab" / "1930-1939.lemma.tsv").is_file()
        assert (workspace / "ngrams" / "1980-1989.n3.surface.tsv").is_file()
        assert (workspace / "stats.csv").is_file()

    @pytest.mark.parametrize("level", ["surface", "lemma"])
    @pytest.mark.parametrize("period", ["1930-1939", "1980-1989"])
    def test_unigram_table_is_the_vocabulary(self, workspace, period, level):
        unigrams = workspace / "ngrams" / f"{period}.n1.{level}.tsv"
        assert unigrams.read_bytes() == (workspace / "vocab" / f"{period}.{level}.tsv").read_bytes()

    def test_rerun_is_bit_identical(self, tmp_path):
        first = tmp_path / "first"
        second = tmp_path / "second"
        assert run_cli(first, "ingest") == 0
        assert run_cli(second, "ingest") == 0
        digest_first = _tree_digest(first)
        digest_second = _tree_digest(second)
        assert {"tokens/1930-1939.npz", "tokens/1980-1989.npz"} <= set(digest_first)
        assert digest_first == digest_second
        assert run_cli(first, "ingest") == 0  # overwrite in place
        assert _tree_digest(first) == digest_first

    def test_rerun_leaves_unchanged_files_in_place(self, tmp_path):
        def identities():
            return {
                str(p.relative_to(out)): (p.stat().st_ino, p.stat().st_mtime_ns)
                for p in out.rglob("*") if p.is_file()
            }

        out = tmp_path / "out"
        run_flow(CONFIG, str(out))
        digest, before = _tree_digest(out), identities()
        stores = {f"embeddings/{p}.{kind}.npz" for p in (_P, _L) for kind in ("svd", "cbow")}
        stores.add(f"transforms/{_L}__to__{_P}.svd.npz")
        assert stores <= before.keys()
        run_flow(CONFIG, str(out))
        assert identities() == before
        assert _tree_digest(out) == digest
        assert run_cli(out, "analyze", "divergence", "--pair", "1930-1939", "1980-1989", "--top-k", "5") == 0
        after = identities()
        assert after.keys() == before.keys()
        assert sorted(k for k in after if after[k] != before[k]) == [
            f"reports/jsd_contributions_1930-1939_1980-1989.{ext}" for ext in ("csv", "json")
        ]

    def test_empty_manifest_gives_usage_error_json(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "manifest.json").write_text("[]", encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"corpus_root": str(corpus), "output_dir": str(tmp_path / "out")}),
            encoding="utf-8",
        )
        code = main(["--config", str(config), "ingest"])
        captured = capsys.readouterr()
        assert code == 2
        payload = json.loads(captured.err)
        assert payload["error"] == 2
        assert "manifest" in payload["message"]
        assert payload["context"]["command"] == "ingest"

    @staticmethod
    def _configured(tmp_path, **settings) -> list[str]:
        """argv of the fixture config with ``settings``, over ``tmp_path / "out"``."""
        raw = json.loads(Path(CONFIG).read_text(encoding="utf-8"))
        raw.update(
            settings,
            corpus_root=str(FIXTURES / "mini_corpus"),
            analyzer_tsv=str(FIXTURES / "analyzer_stub.tsv"),
        )
        config = tmp_path / "configured.json"
        config.write_text(json.dumps(raw), encoding="utf-8")
        return ["--config", str(config), "--output-dir", str(tmp_path / "out")]

    @pytest.mark.parametrize(
        "bucketing", [[[1930, 1949], [1980, 1989]], [[1980, 1989]]], ids=["overlapping", "fewer"]
    )
    def test_reingest_drops_the_periods_it_no_longer_has(self, tmp_path, capsys, bucketing):
        out = tmp_path / "out"
        assert run_cli(out, "ingest") == 0
        argv = self._configured(tmp_path, bucketing=bucketing)
        assert main([*argv, "ingest"]) == 0
        assert main([*argv, "analyze", "freq", "--word", "kanun"]) == 0
        labels = [f"{start}-{end}" for start, end in bucketing]
        report = json.loads((out / "reports" / "freq_kanun.json").read_text(encoding="utf-8"))
        assert [record["period"] for record in report] == labels
        for artifact in ("vocab", "tokens", "ngrams"):
            held = {path.name.split(".", 1)[0] for path in (out / artifact).iterdir()}
            assert held == set(labels), artifact

    @pytest.mark.parametrize(
        "bucketing", [[[-5, 1939], [1980, 1989]], [[1930, 1939], [1980, 12000]]], ids=["-5", "12000"]
    )
    def test_year_outside_a_label_is_usage_error_at_load(self, tmp_path, capsys, bucketing):
        code = main([*self._configured(tmp_path, bucketing=bucketing), "ingest"])
        payload = json.loads(capsys.readouterr().err)
        assert code == 2
        assert "outside 0-9999" in payload["message"]
        assert not (tmp_path / "out" / "vocab").exists()

    def test_reingest_drops_the_orders_it_no_longer_has(self, tmp_path):
        out = tmp_path / "out"
        assert main([*self._configured(tmp_path, ngram_orders=[1, 2, 3]), "ingest"]) == 0
        assert len(list((out / "ngrams").iterdir())) == 12
        assert main([*self._configured(tmp_path, ngram_orders=[1]), "ingest"]) == 0
        assert sorted(path.name for path in (out / "ngrams").iterdir()) == [
            f"{label}.n1.{level}.tsv" for label in ("1930-1939", "1980-1989")
            for level in ("lemma", "surface")
        ]

    def test_failed_reingest_keeps_the_previous_periods(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli(out, "ingest") == 0
        before = _tree_digest(out)
        shutil.rmtree(out / "ngrams")
        (out / "ngrams").write_bytes(b"")  # the n-gram writes fail after the vocabularies
        assert main([*self._configured(tmp_path, bucketing=[[1980, 1989]]), "ingest"]) == 1
        after = _tree_digest(out)
        assert {k: v for k, v in after.items() if k.startswith(("vocab/", "tokens/"))} == {
            k: v for k, v in before.items() if k.startswith(("vocab/", "tokens/"))
        }


class TestAnalyze:
    def test_divergence_outputs_match_library(self, workspace, fixture_tree):
        from diacorpus.divergence import jaccard_matrix

        expected = jaccard_matrix(fixture_tree).to_csv()
        actual = (workspace / "reports" / "jaccard.csv").read_text(encoding="utf-8")
        assert actual == expected

    def test_reversed_pair_report_ranks_the_first_period_first(self, workspace, tmp_path):
        shutil.copytree(workspace / "vocab", tmp_path / "vocab")
        assert run_cli(
            tmp_path, "analyze", "divergence", "--pair", "1980-1989", "1930-1939", "--top-k", "20"
        ) == 0

        def rows(path):
            return [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()[1:]]

        forward = rows(workspace / "reports" / "jsd_contributions_1930-1939_1980-1989.csv")
        reverse = rows(tmp_path / "reports" / "jsd_contributions_1980-1989_1930-1939.csv")
        assert [(lemma, -float(value), side) for lemma, value, side in forward] == [
            (lemma, float(value), side) for lemma, value, side in reverse
        ]

    def test_freq_series_has_two_entries(self, workspace):
        text = (workspace / "reports" / "freq_belge.csv").read_text(encoding="utf-8")
        lines = text.strip().split("\n")
        assert lines[0] == "period,normalized_frequency"
        assert len(lines) == 3

    def test_json_reports_accompany_csvs(self, workspace, fixture_tree):
        from diacorpus.divergence import jsd_matrix

        payload = json.loads((workspace / "reports" / "jsd.json").read_text(encoding="utf-8"))
        expected = jsd_matrix(fixture_tree)
        assert payload["metric"] == "jsd"
        assert payload["periods"] == [p.label for p in expected.periods]
        assert payload["values"] == [[float(v) for v in row] for row in expected.values]
        ortho = json.loads(
            (workspace / "reports" / "ortho_ratio_b-p.json").read_text(encoding="utf-8")
        )
        assert ortho[0]["class"] == "b-p"
        assert ortho[0]["ratio"] > ortho[1]["ratio"]
        assert (workspace / "reports" / "crossover.json").is_file()
        assert (workspace / "reports" / "circumflex.json").is_file()

    def test_semantic_change_flags_oov_periods(self, workspace, capsys):
        # televizyon does not exist in the base period, so every entry is
        # null and flagged rather than failing
        code = main(
            [
                "--config", CONFIG, "--output-dir", str(workspace),
                "query", "semantic-change", "--word", "televizyon",
                "--periods", "1930-1939", "1980-1989",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert all(row["value"] is None and row["oov"] for row in payload)

    def test_ortho_ratio_declines(self, workspace):
        lines = (
            (workspace / "reports" / "ortho_ratio_b-p.csv")
            .read_text(encoding="utf-8")
            .strip()
            .split("\n")[1:]
        )
        ratios = [float(line.split(",")[-1]) for line in lines]
        assert ratios[0] > ratios[1]

    def test_crossover_report_covers_sample_dictionary(self, workspace):
        lines = (
            (workspace / "reports" / "crossover.csv")
            .read_text(encoding="utf-8")
            .strip()
            .split("\n")[1:]
        )
        rows = {tuple(line.split(",")[:2]): line.split(",")[2] for line in lines}
        assert rows[("gerek", "mucip")] == "1980-1989"
        assert rows[("yıl", "sene")] == "1980-1989"
        assert rows[("bakan", "vekil")] == "none"

    def test_analyze_before_ingest_is_missing_artifact(self, tmp_path, capsys):
        code = main(
            ["--config", CONFIG, "--output-dir", str(tmp_path / "empty"), "analyze", "divergence"]
        )
        captured = capsys.readouterr()
        assert code == 3
        payload = json.loads(captured.err)
        assert payload["error"] == 3
        assert payload["context"]["run_first"] == "ingest"

    def test_ortho_failure_leaves_no_partial_reports(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        (corpus / "docs").mkdir(parents=True)
        (corpus / "docs" / "a.txt").write_text("kitab kitap kalem defter kalem.", encoding="utf-8")
        (corpus / "docs" / "b.txt").write_text("kitap kalem defter kitab.", encoding="utf-8")
        manifest = [
            {"id": "a", "date": "1931-01-01", "path": "docs/a.txt"},
            {"id": "b", "date": "1981-01-01", "path": "docs/b.txt"},
        ]
        (corpus / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        config = tmp_path / "config.json"
        out = tmp_path / "out"
        config.write_text(
            json.dumps({"corpus_root": str(corpus), "output_dir": str(out)}), encoding="utf-8"
        )

        def ortho(*classes):
            code = main(["--config", str(config), "analyze", "ortho", *classes])
            capsys.readouterr()
            return code

        assert main(["--config", str(config), "ingest"]) == 0
        assert ortho() == 2  # b-p pairs exist, d-t pairs do not
        assert ortho("--classes", "b-p", "x-y") == 2  # unknown class
        assert not (out / "reports").exists()
        assert ortho("--classes", "b-p") == 0
        assert sorted(p.name for p in (out / "reports").iterdir()) == [
            "circumflex.csv", "circumflex.json", "ortho_ratio_b-p.csv", "ortho_ratio_b-p.json"
        ]

    def test_embed_failure_leaves_no_partial_output(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        (corpus / "docs").mkdir(parents=True)
        words = {"a": [f"k{chr(97 + i)}" for i in range(23)], "b": [f"m{c}" for c in "abcdef"]}
        for doc, lemmas in words.items():
            (corpus / "docs" / f"{doc}.txt").write_text(" ".join(lemmas * 2), encoding="utf-8")
        manifest = [
            {"id": "a", "date": "1931-01-01", "path": "docs/a.txt"},
            {"id": "b", "date": "1981-01-01", "path": "docs/b.txt"},
        ]
        (corpus / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        config = tmp_path / "config.json"
        out = tmp_path / "out"
        settings = {"corpus_root": str(corpus), "output_dir": str(out), "embedding": {"dim": 10}}
        config.write_text(json.dumps(settings), encoding="utf-8")

        assert main(["--config", str(config), "ingest"]) == 0
        code = main(["--config", str(config), "embed", "svd"])  # 1930s: 23 lemmas, 1980s: 6
        payload = json.loads(capsys.readouterr().err)
        assert code == 2
        assert payload["message"] == "embedding dim 10 exceeds vocabulary size 6"
        assert not (out / "embeddings").exists()

    def test_word_cannot_escape_its_report_name(self, tmp_path):
        assert run_cli(tmp_path, "ingest") == 0
        before = set(tmp_path.rglob("*"))
        assert run_cli(tmp_path, "analyze", "freq", "--word", "../../escaped") == 0
        reports = tmp_path / "reports"
        assert set(tmp_path.rglob("*")) - before == {
            reports,
            reports / "freq_..%2F..%2Fescaped.csv",
            reports / "freq_..%2F..%2Fescaped.json",
        }

    def test_word_report_name_encodes_only_path_characters(self):
        from diacorpus.cli import _word_report_name

        assert _word_report_name("freq", "belge") == "freq_belge"
        assert _word_report_name("freq", "a%b/c\\d.ğ") == "freq_a%25b%2Fc%5Cd.ğ"
        assert (
            _word_report_name("aligned_most_similar", "televizyon", "1980-1989", "1930-1939")
            == "aligned_most_similar_televizyon_1980-1989_1930-1939"
        )


    @pytest.mark.parametrize(
        "command", [["analyze", "freq"], ["query", "most-similar", "--period", "1930-1939"]]
    )
    @pytest.mark.parametrize(
        "word,reason",
        [("a\x00b", "NUL"), ("k" * 300, "255 bytes"), ("ğ" * 123, "255 bytes")],
        ids=["nul", "300-chars", "256-bytes"],
    )
    def test_unusable_word_is_usage_error(self, workspace, capsys, command, word, reason):
        before = set(workspace.rglob("*"))
        code = main(
            ["--config", CONFIG, "--output-dir", str(workspace), *command, "--word", word]
        )
        payload = json.loads(capsys.readouterr().err)
        assert code == 2
        assert payload["error"] == 2
        assert reason in payload["message"]
        assert set(workspace.rglob("*")) == before

    def test_longest_word_that_fits_a_file_name(self, tmp_path):
        # freq_ + 122 two-byte letters + .json is 254 bytes
        assert run_cli(tmp_path, "ingest") == 0
        assert run_cli(tmp_path, "analyze", "freq", "--word", "ğ" * 122) == 0
        assert (tmp_path / "reports" / f"freq_{'ğ' * 122}.json").is_file()


def _corpus_config(tmp_path, manifest=None, document=b"kitap kalem", **settings):
    """``--config`` of a one-document corpus; ``manifest`` and ``document`` are raw bytes."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "manifest.json").write_bytes(
        manifest or b'[{"id": "a", "date": "1931-01-01", "path": "a.txt"}]'
    )
    (corpus / "a.txt").write_bytes(document)
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"corpus_root": str(corpus), "output_dir": str(tmp_path / "out"), **settings}),
        encoding="utf-8",
    )
    return ["--config", str(config)]


def _written(tmp_path, name, text) -> str:
    """The path of a new file ``name`` under ``tmp_path`` that holds ``text``."""
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _latin1_dictionary(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('[{"modern": "gün", "old": ["rûz"]}]'.encode("latin-1"))
    return str(path)


_P, _L, _P50 = "1930-1939", "1980-1989", "1950-1959"


def _fixture(*argv):
    """A table row's argv: the fixture config, then ``argv``."""
    return lambda t: ["--config", CONFIG, *argv]


# case -> (argv after --output-dir, given the test's tmp_path; text the message must hold)
_USAGE_ERRORS = {
    "unknown analysis": (lambda t: ["--config", CONFIG, "analyze", "bogus"], "'bogus'"),
    "no --config": (lambda t: ["analyze", "divergence"], "--config"),
    "ortho, a class listed twice": (
        _fixture("analyze", "ortho", "--classes", "b-p", "b-p"), "class b-p is listed twice"
    ),
    "query without --word": (
        lambda t: ["--config", CONFIG, "query", "most-similar", "--period", "1930-1939"],
        "--word",
    ),
    "non-UTF-8 document": (lambda t: [*_corpus_config(t, document=b"\xff"), "ingest"], "a.txt"),
    "non-UTF-8 manifest": (
        lambda t: [*_corpus_config(t, manifest=b"\xff"), "ingest"], "manifest.json"
    ),
    "missing analyzer table": (
        lambda t: [*_corpus_config(t, analyzer_tsv="stems.tsv"), "ingest"], "stems.tsv"
    ),
    # the .vec format separates a word from its values by a space
    "analyzer stem with a space": (
        lambda t: [*_corpus_config(t, analyzer_tsv=_written(t, "stems.tsv", "kitap\taaa bbb\n")),
                   "ingest"],
        "stems.tsv: line 1: stem has whitespace",
    ),
    "analyzer line without a tab": (
        lambda t: [*_corpus_config(t, analyzer_tsv=_written(t, "stems.tsv", "kitap kitap\n")),
                   "ingest"],
        "stems.tsv: line 1 is not 'surface<TAB>stem'",
    ),
    "config not JSON": (
        lambda t: ["--config", _written(t, "config.json", "{"), "ingest"], "is not valid JSON"
    ),
    "config without corpus_root": (
        lambda t: ["--config", _written(t, "config.json", '{"output_dir": "out"}'), "ingest"],
        "config must set corpus_root and output_dir",
    ),
    "manifest not JSON": (
        lambda t: [*_corpus_config(t, manifest=b"["), "ingest"], "manifest is not valid JSON"
    ),
    "manifest not an array": (
        lambda t: [*_corpus_config(t, manifest=b"{}"), "ingest"], "manifest must be a JSON array"
    ),
    "manifest entry not an object": (
        lambda t: [*_corpus_config(t, manifest=b"[5]"), "ingest"],
        "manifest entry 0 is not an object",
    ),
    "manifest entry without path": (
        lambda t: [*_corpus_config(t, manifest=b'[{"id": "a", "date": "1931-01-01"}]'), "ingest"],
        "manifest entry 0 misses required key 'path'",
    ),
    "overlapping bucketing": (
        lambda t: [*_corpus_config(t, bucketing=[[1930, 1939], [1935, 1944]]), "ingest"],
        "bucketing periods overlap: 1930-1939 and 1935-1944",
    ),
    "bucketing that no document falls into": (
        lambda t: [*_corpus_config(t, bucketing=[[1950, 1959]]), "ingest"],
        "no document fell into any bucket",
    ),
    "dict, dictionary not an array": (
        lambda t: ["--config", CONFIG, "dict", "--dictionary", _written(t, "d.json", "{}")],
        "dictionary must be a JSON array of entries",
    ),
    "dict, dictionary entry not an object": (
        lambda t: ["--config", CONFIG, "dict", "--dictionary", _written(t, "d.json", "[5]")],
        "entry 0 is not an object",
    ),
    "dict, old form not a string": (
        lambda t: [
            "--config", CONFIG, "dict", "--dictionary",
            _written(t, "d.json", '[{"modern": "gün", "old": [5]}]'),
        ],
        "entry 0: old form must be a non-empty string",
    ),
    "dict, senses not a list": (
        lambda t: [
            "--config", CONFIG, "dict", "--dictionary",
            _written(t, "d.json", '[{"modern": "gün", "old": ["rûz"], "senses": "day"}]'),
        ],
        "entry 0: 'senses' must be a list of strings",
    ),
    "dict, missing dictionary": (
        lambda t: ["--config", CONFIG, "dict", "--dictionary", str(t / "none.json")], "none.json"
    ),
    "dict, non-UTF-8 dictionary": (
        lambda t: ["--config", CONFIG, "dict", "--dictionary", _latin1_dictionary(t)],
        "latin1.json",
    ),
    "crossover, missing dictionary": (
        lambda t: [
            "--config", CONFIG, "analyze", "dict-crossover", "--dictionary", str(t / "none.json")
        ],
        "none.json",
    ),
    "crossover, non-UTF-8 dictionary": (
        lambda t: [
            "--config", CONFIG, "analyze", "dict-crossover", "--dictionary", _latin1_dictionary(t)
        ],
        "latin1.json",
    ),
    # the fixture has no g-k pair, so that ratio is undefined
    "undefined ortho class": (
        lambda t: ["--config", CONFIG, "analyze", "ortho", "--classes", "b-p", "g-k"], "g-k"
    ),
    # the embedding seed is set in the config only
    "--seed flag": (lambda t: ["--config", CONFIG, "--seed=5", "embed", "svd"], "--seed"),
    # each analysis and query accepts only the flags it reads
    "divergence, unread --word": (_fixture("analyze", "divergence", "--word", "x"), "--word"),
    "survived, unread --word": (
        _fixture("analyze", "survived", "--base-period", _P, "--word", "x"), "--word"
    ),
    "ortho, unread --top-k": (_fixture("analyze", "ortho", "--top-k", "3"), "--top-k"),
    "dict-crossover, unread --normalize": (
        _fixture("analyze", "dict-crossover", "--normalize"), "--normalize"
    ),
    "freq, unread --pair": (
        _fixture("analyze", "freq", "--word", "belge", "--pair", _P, _L), "--pair"
    ),
    "most-similar, unread --target": (
        _fixture("query", "most-similar", "--word", "kanun", "--period", _P, "--target", _L),
        "--target",
    ),
    "aligned-most-similar, unread --period": (
        _fixture(
            "query", "aligned-most-similar", "--word", "kanun",
            "--target", _L, "--base", _P, "--period", _P,
        ),
        "--period",
    ),
    "semantic-change, unread --top-k": (
        _fixture(
            "query", "semantic-change", "--word", "kanun", "--periods", _P, _L, "--top-k", "3"
        ),
        "--top-k",
    ),
    "collocations, unread --kind": (
        _fixture("query", "collocations", "--word", "kanun", "--period", _P, "--kind", "cbow"),
        "--kind",
    ),
    # a required flag left out, or given no value
    "survived without --base-period": (_fixture("analyze", "survived"), "--base-period"),
    "freq without --word": (_fixture("analyze", "freq"), "--word"),
    "most-similar without --period": (
        _fixture("query", "most-similar", "--word", "kanun"), "--period"
    ),
    "collocations without --period": (
        _fixture("query", "collocations", "--word", "kanun"), "--period"
    ),
    "collocations without --word": (_fixture("query", "collocations", "--period", _P), "--word"),
    "aligned-most-similar without --target": (
        _fixture("query", "aligned-most-similar", "--word", "kanun", "--base", _P), "--target"
    ),
    "aligned-most-similar without --base": (
        _fixture("query", "aligned-most-similar", "--word", "kanun", "--target", _L), "--base"
    ),
    "aligned-most-similar without --word": (
        _fixture("query", "aligned-most-similar", "--target", _L, "--base", _P), "--word"
    ),
    "semantic-change without --periods": (
        _fixture("query", "semantic-change", "--word", "kanun"), "--periods"
    ),
    "semantic-change without --word": (
        _fixture("query", "semantic-change", "--periods", _P, _L), "--word"
    ),
    "semantic-change, --periods without a label": (
        _fixture("query", "semantic-change", "--word", "kanun", "--periods"), "--periods"
    ),
    "align without --from": (_fixture("align", "--to", _P), "--from"),
    "align without --to": (_fixture("align", "--from", _L), "--to"),
    "freq, empty --word": (_fixture("analyze", "freq", "--word", ""), "--word"),
    "most-similar, empty --word": (
        _fixture("query", "most-similar", "--word", "", "--period", _P), "--word"
    ),
    # each flag has one spelling: a prefix of a flag is not that flag
    "survived, --base for --base-period": (
        _fixture("analyze", "survived", "--base", _P), "--base-period"
    ),
    "freq, --wo and --norm for --word and --normalize": (
        _fixture("analyze", "freq", "--wo", "belge", "--norm"), "--word"
    ),
    "--conf for --config": (lambda t: [f"--conf={CONFIG}", "analyze", "divergence"], "--config"),
    "most-similar, unparsable --period": (
        _fixture("query", "most-similar", "--word", "kanun", "--period", "1930"),
        "period label '1930'",
    ),
}


@pytest.mark.parametrize("case", _USAGE_ERRORS)
def test_usage_error_is_one_json_line(workspace, tmp_path, capsys, case):
    """Argument errors, unreadable input files and undefined computations exit 2
    with one JSON error line on stderr, nothing on stdout and no report."""
    make_argv, named = _USAGE_ERRORS[case]
    _assert_usage_error(workspace, tmp_path, capsys, make_argv(tmp_path), named)


_REPEATED_PERIOD = {
    "divergence": ["analyze", "divergence", "--periods", _P, _P],
    "divergence --pair": ["analyze", "divergence", "--pair", _P, _P],
    "survived": ["analyze", "survived", "--base-period", _P, "--periods", _P, _P],
    "ortho": ["analyze", "ortho", "--periods", _P, _P],
    "dict-crossover": ["analyze", "dict-crossover", "--periods", _P, _P],
    "freq": ["analyze", "freq", "--word", "belge", "--periods", _P, _P],
    "semantic-change": ["query", "semantic-change", "--word", "kanun", "--periods", _P, _P],
    "aligned-most-similar": [
        "query", "aligned-most-similar", "--word", "kanun", "--target", _P, "--base", _P
    ],
    "align": ["align", "--from", _P, "--to", _P],
}


@pytest.mark.parametrize("case", _REPEATED_PERIOD)
def test_repeated_period_is_usage_error(workspace, tmp_path, capsys, case):
    """A period listed twice is exit 2 naming it, whatever the command."""
    argv = ["--config", CONFIG, *_REPEATED_PERIOD[case]]
    _assert_usage_error(workspace, tmp_path, capsys, argv, f"period {_P} is listed twice")


@pytest.mark.parametrize("periods", [[_P, _P], [_P50]], ids=["repeated", "not-in-corpus"])
def test_range_of_an_empty_dictionary_is_still_checked(workspace, tmp_path, capsys, periods):
    """``dict-crossover`` checks its range before it reads the dictionary, so a
    dictionary of no entries, which asks no frequency, still gets exit 2."""
    (tmp_path / "empty.json").write_text("[]", encoding="utf-8")
    argv = ["--config", CONFIG, "analyze", "dict-crossover", "--dictionary",
            str(tmp_path / "empty.json"), "--periods", *periods]
    named = "listed twice" if len(periods) == 2 else "no corpus leaf"
    _assert_usage_error(workspace, tmp_path, capsys, argv, named)


@pytest.mark.parametrize("case", _REPEATED_PERIOD)
def test_repeated_period_with_no_vocabularies_is_missing_artifact(tmp_path, capsys, case):
    """The repeat is a rule of the range, checked once the corpus is read: with
    nothing ingested, the missing vocabularies come first (exit 3, run ingest),
    whatever the command."""
    argv = ["--config", CONFIG, "--output-dir", str(tmp_path / "out"), *_REPEATED_PERIOD[case]]
    assert main(argv) == 3
    payload = json.loads(capsys.readouterr().err)
    assert payload["context"]["run_first"] == "ingest"


_NOT_IN_CORPUS = {
    "align": ["align", "--from", _P50, "--to", _P],
    "most-similar": ["query", "most-similar", "--word", "kanun", "--period", _P50],
    "aligned-most-similar": [
        "query", "aligned-most-similar", "--word", "kanun", "--target", _P50, "--base", _P
    ],
    "semantic-change": ["query", "semantic-change", "--word", "kanun", "--periods", _P, _P50],
    "collocations": ["query", "collocations", "--word", "kanun", "--period", _P50],
}


@pytest.mark.parametrize("case", _NOT_IN_CORPUS)
def test_period_not_in_corpus_is_usage_error(workspace, tmp_path, capsys, case):
    """A period the corpus has no vocabulary for is exit 2, as in the analyses,
    not a missing artifact that no command could write."""
    argv = ["--config", CONFIG, *_NOT_IN_CORPUS[case]]
    _assert_usage_error(
        workspace, tmp_path, capsys, argv, f"no corpus leaf for period {_P50}",
        artifacts=("vocab", "embeddings", "transforms"),
    )


def test_vocabulary_named_by_no_period_label_fails_a_query(workspace, tmp_path, capsys):
    """A query reads the periods from every lemma vocabulary's file name, so one whose
    name is not a period label as ``TimePeriod.label`` writes it is exit 2 naming it."""
    out = tmp_path / "out"
    for artifact in ("vocab", "embeddings"):
        shutil.copytree(workspace / artifact, out / artifact)
    stray = out / "vocab" / "0930-1939.lemma.tsv"
    shutil.copy(out / "vocab" / f"{_P}.lemma.tsv", stray)
    argv = ["--config", CONFIG, "--output-dir", str(out),
            "query", "most-similar", "--word", "kanun", "--period", _P]
    assert main(argv) == 2
    payload = json.loads(capsys.readouterr().err)
    assert str(stray) in payload["message"]
    assert not (out / "reports").exists()


def _assert_usage_error(workspace, tmp_path, capsys, argv, named, artifacts=("vocab",)):
    """``argv`` over a copy of the workspace ``artifacts`` exits 2 with one JSON
    line naming ``named`` and the command, nothing on stdout and no report."""
    out = tmp_path / "out"
    for artifact in artifacts:
        shutil.copytree(workspace / artifact, out / artifact)
    code = main(["--output-dir", str(out), *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    payload = json.loads(captured.err)
    assert payload["error"] == 2
    assert named in payload["message"]
    command = next(a for a in argv if a in ("ingest", "analyze", "embed", "align", "query", "dict"))
    assert payload["context"]["command"] == command
    assert not (out / "reports").exists()


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """Every artifact the queries read, of both embedding kinds, and no report."""
    out = tmp_path_factory.mktemp("built")
    steps = [["ingest"], ["embed", "ppmi"], ["embed", "svd"], ["embed", "cbow"]]
    steps += [["align", "--from", _L, "--to", _P, "--kind", kind] for kind in ("svd", "cbow")]
    for step in steps:
        assert run_cli(out, *step) == 0, step
    return out


_ANALYSES = [
    ["analyze", "divergence"],
    ["analyze", "survived", "--base-period", _P],
    ["analyze", "ortho"],
    ["analyze", "dict-crossover"],
    ["analyze", "freq", "--word", "kanun"],
]
_EMBEDS = [["embed", kind] for kind in ("ppmi", "svd", "cbow")]
_ALIGNED = ["query", "aligned-most-similar", "--word", "televizyon", "--target", _L, "--base", _P]
_CHANGE = ["query", "semantic-change", "--word", "piyasa", "--periods", _P, _L]
_VECTOR_READERS = [
    ["align", "--from", _L, "--to", _P],
    ["query", "most-similar", "--word", "kanun", "--period", _P],
    _ALIGNED,
    _CHANGE,
]
_COLLOCATIONS = ["query", "collocations", "--word", "kanun", "--period", _P]
_NO_VOCABULARY = ("no lemma vocabulary artifacts under {out}/vocab", "ingest")
_NO_VECTORS = "no {kind} embeddings for period 1930-1939 at {out}/embeddings/1930-1939.{kind}.npz"
_NO_TRANSFORM = (
    "no transform 1980-1989->1930-1939 at {out}/transforms/1980-1989__to__1930-1939.svd.npz",
    f"align --from {_L} --to {_P} --kind svd",
)

# (removed file or directory, command, message, run_first); {out} is the output directory
_MISSING_ARTIFACTS = [
    *(("vocab", argv, *_NO_VOCABULARY) for argv in [*_ANALYSES, *_EMBEDS, *_VECTOR_READERS]),
    ("vocab", _COLLOCATIONS, *_NO_VOCABULARY),
    *(
        ("tokens/1980-1989.npz", argv,
         "no token ids for period 1980-1989 at {out}/tokens/1980-1989.npz", "ingest")
        for argv in _EMBEDS
    ),
    ("tokens/1930-1939.npz", _COLLOCATIONS,
     "no token ids for period 1930-1939 at {out}/tokens/1930-1939.npz", "ingest"),
    *(
        (f"embeddings/1930-1939.{kind}.npz", [*argv, "--kind", kind],
         _NO_VECTORS.replace("{kind}", kind), f"embed {kind}")
        for kind in ("svd", "cbow")
        for argv in _VECTOR_READERS
    ),
    ("transforms/1980-1989__to__1930-1939.svd.npz", _ALIGNED, *_NO_TRANSFORM),
    ("transforms/1980-1989__to__1930-1939.svd.npz", _CHANGE, *_NO_TRANSFORM),
    ("vocab/1980-1989.surface.tsv", ["analyze", "ortho"],
     "no surface vocabulary at {out}/vocab/1980-1989.surface.tsv", "ingest"),
]


@pytest.mark.parametrize(
    "removed, argv, message, run_first",
    _MISSING_ARTIFACTS,
    ids=[f"{removed} {' '.join(argv[:2])}" for removed, argv, *_ in _MISSING_ARTIFACTS],
)
def test_missing_artifact_is_one_json_line(built, tmp_path, capsys, removed, argv, message,
                                           run_first):
    """Each read site, without the file it reads, exits 3 with one JSON line
    naming the file and the command that writes it, nothing on stdout and no report."""
    out = tmp_path / "out"
    shutil.copytree(built, out)
    target = out / removed
    if target.is_dir():
        shutil.rmtree(target)
    else:
        target.unlink()
    code = main(["--config", CONFIG, "--output-dir", str(out), *argv])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert json.loads(captured.err) == {
        "error": 3,
        "message": message.format(out=out),
        "context": {"command": argv[0], "run_first": run_first},
    }
    assert not (out / "reports").exists()


def test_only_ortho_reads_the_surface_vocabularies(built, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(built, out)
    (out / "vocab" / "1980-1989.surface.tsv").unlink()
    assert run_cli(out, "analyze", "survived", "--base-period", _P) == 0


def test_following_run_first_of_a_missing_cbow_transform_succeeds(built, tmp_path, capsys):
    out = tmp_path / "out"
    shutil.copytree(built, out)
    (out / "transforms" / f"{_L}__to__{_P}.cbow.npz").unlink()
    assert run_cli(out, *_ALIGNED, "--kind", "cbow") == 3
    run_first = json.loads(capsys.readouterr().err)["context"]["run_first"]
    assert run_first == f"align --from {_L} --to {_P} --kind cbow"
    assert run_cli(out, *run_first.split()) == 0
    assert run_cli(out, *_ALIGNED, "--kind", "cbow") == 0


@pytest.mark.parametrize("argv", [_ALIGNED, _CHANGE], ids=lambda argv: argv[1])
def test_text_transform_of_an_older_version_is_not_read(built, tmp_path, capsys, argv):
    """A ``.txt`` transform in place of the store is a missing transform: exit 3
    asking for ``align``."""
    out = tmp_path / "out"
    shutil.copytree(built, out)
    store = out / "transforms" / f"{_L}__to__{_P}.svd.npz"
    store.with_suffix(".txt").write_text(
        "d=1 from=1980-1989 to=1930-1939\n1.0\n#shared=a\n", encoding="utf-8"
    )
    store.unlink()
    assert run_cli(out, *argv) == 3
    payload = json.loads(capsys.readouterr().err)
    assert payload["context"]["run_first"] == f"align --from {_L} --to {_P} --kind svd"
    assert str(store) in payload["message"]


@pytest.mark.parametrize("argv", [_ALIGNED, _CHANGE], ids=lambda argv: argv[1])
def test_transform_of_another_dim_is_usage_error(built, tmp_path, capsys, argv):
    """Vectors re-embedded at dim 8 after a dim-16 ``align`` leave its transform
    stale: exit 2 with one JSON line naming the transform and both dims,
    nothing on stdout and no report."""
    out = tmp_path / "out"
    shutil.copytree(built, out)
    raw = json.loads(Path(CONFIG).read_text(encoding="utf-8"))
    config = _fixture_config(tmp_path, json.dumps({**raw["embedding"], "dim": 8}))
    assert main(["--config", config, "--output-dir", str(out), "embed", "svd"]) == 0
    capsys.readouterr()
    code = main(["--config", config, "--output-dir", str(out), *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    payload = json.loads(captured.err)
    assert payload["error"] == 2
    assert f"transform {_L}->{_P} is 16-dim" in payload["message"]
    assert "embeddings are 8-dim" in payload["message"]
    assert payload["context"]["command"] == "query"
    assert not (out / "reports").exists()


@pytest.mark.parametrize("argv", [_ALIGNED, _CHANGE], ids=lambda argv: argv[1])
def test_transform_of_other_vectors_at_the_same_dim_is_usage_error(built, tmp_path, capsys, argv):
    """Vectors re-embedded at the same dim with another window after ``align`` leave
    its transform stale: exit 2 with one JSON line naming the transform and asking
    for ``align`` again, nothing on stdout and no report. Running ``align`` again
    fixes it."""
    out = tmp_path / "out"
    shutil.copytree(built, out)
    raw = json.loads(Path(CONFIG).read_text(encoding="utf-8"))
    config = _fixture_config(tmp_path, json.dumps({**raw["embedding"], "window": 4}))
    prefix = ["--config", config, "--output-dir", str(out)]
    assert main([*prefix, "embed", "svd"]) == 0
    capsys.readouterr()
    code = main([*prefix, *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    payload = json.loads(captured.err)
    assert payload["error"] == 2
    assert f"transform {_L}->{_P} was fitted on other embeddings" in payload["message"]
    assert f"run align --from {_L} --to {_P} --kind svd again" in payload["message"]
    assert payload["context"]["command"] == "query"
    assert not (out / "reports").exists()
    assert main([*prefix, "align", "--from", _L, "--to", _P]) == 0
    assert main([*prefix, *argv]) == 0


def _reference_vec(path: Path) -> tuple[dict, list[str], np.ndarray]:
    """A ``.vec`` export parsed one line and one value at a time: its header fields,
    its words and its rows."""
    header, *lines = path.read_text(encoding="utf-8").split("\n")[:-1]
    fields = dict(field.split("=") for field in header.split(" "))
    words = [line.split(" ")[0] for line in lines]
    rows = [[float(value) for value in line.split(" ")[1:]] for line in lines]
    return fields, words, np.array(rows, dtype=np.float64)


# (store, a command that reads it, a corruption, a fragment of its error message)
_CORRUPT_STORES = [
    *(
        pytest.param(
            "embeddings/1930-1939.svd.npz", ["query", "most-similar", "--word", "kanun", "--period", _P],
            *case, id=name,
        )
        for name, case in STORE_CORRUPTIONS.items()
    ),
    *(
        pytest.param(f"transforms/{_L}__to__{_P}.svd.npz", _ALIGNED, *case, id=f"transform-{name}")
        for name, case in TRANSFORM_CORRUPTIONS.items()
    ),
]


class TestVectorStore:
    @pytest.mark.parametrize("kind", ["svd", "cbow"])
    @pytest.mark.parametrize("period", [_P, _L])
    def test_store_equals_the_vec_export(self, built, period, kind):
        """Each store read back holds, bit for bit, what its ``.vec`` export says."""
        store = built / "embeddings" / f"{period}.{kind}.npz"
        loaded = read_embeddings(store)
        fields, words, rows = _reference_vec(store.with_suffix(".vec"))
        assert fields == {
            "dim": str(loaded.dim), "vocab": str(len(words)), "provenance": kind, "period": period,
        }
        assert loaded.words() == words and len(words) > 10
        assert loaded.matrix.dtype == rows.dtype and loaded.matrix.shape == rows.shape
        assert loaded.matrix.tobytes() == rows.tobytes()
        assert loaded.digest() == hashlib.sha256(store.read_bytes()).hexdigest()

    @pytest.mark.parametrize("store,argv,corrupt,fragment", _CORRUPT_STORES)
    def test_corrupt_store_is_usage_error_naming_the_file(
        self, workspace, tmp_path, capsys, store, argv, corrupt, fragment
    ):
        """A corrupt vector or transform store exits 2 with one JSON line naming it,
        nothing on stdout, no report, and nothing unpickled."""
        for artifacts in ("vocab", "tokens", "embeddings", "transforms"):
            shutil.copytree(workspace / artifacts, tmp_path / artifacts)
        path = tmp_path / store
        write_corrupt_store(path, corrupt)
        code, out, err = run_cli(tmp_path, *argv, capsys=capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        payload = json.loads(err)
        assert payload["error"] == 2
        assert f"{path}: " in payload["message"]
        assert fragment in payload["message"]
        assert "traceback" not in payload["context"]
        assert not (tmp_path / "reports").exists()
        assert UNPICKLED == []


class TestConfigErrors:
    def _config(self, tmp_path, **changes):
        raw = json.loads(Path(CONFIG).read_text(encoding="utf-8"))
        raw.update(changes)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize(
        "changes",
        [
            {"filter": {"threshold_divisor": 2500, "alphabetic": True}},
            {"embedding": {"dims": 16}},
            {"filter": 5},
            {"embedding": [16]},
            {"bucketing": "centuries"},
            {"bucketing": [1930, 1939]},
            {"bucketing": [[1930, 1939, 1949]]},
            {"bucketing": [["1930", "1939"]]},
            {"bucketing": [[1930.5, 1939]]},
            {"bucketing": [[True, 1939]]},
            {"bucketing": {"1930": 1939}},
            {"filter": {"threshold_divisor": "2500"}},
            {"filter": {"alphabetic_only": 1}},
            {"embedding": {"dim": "16"}},
            {"embedding": {"alpha": True}},
            {"embedding": {"seed": 1.5}},
            {"ngram_orders": 3},
            {"ngram_orders": [1, 4]},
        ],
        ids=lambda changes: json.dumps(changes),
    )
    def test_malformed_config_is_usage_error(self, tmp_path, capsys, changes):
        code = main(["--config", self._config(tmp_path, **changes), "dict"])
        payload = json.loads(capsys.readouterr().err)
        assert code == 2
        assert payload["error"] == 2
        assert payload["context"] == {"command": "dict"}

    @pytest.mark.parametrize(
        "key, value",
        [("corpus_root", 5), ("output_dir", None), ("analyzer_tsv", 7), ("analyzer_tsv", []),
         ("corpus_root", "c\0x"), ("output_dir", "o\0x"), ("analyzer_tsv", "a\0x")],
    )
    def test_mistyped_path_is_usage_error_naming_the_key(self, tmp_path, capsys, key, value):
        code = main(["--config", self._config(tmp_path, **{key: value}), "dict"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and captured.err.count("\n") == 1
        assert json.loads(captured.err)["message"] == f"config '{key}' must be a path string"
        assert [path.name for path in tmp_path.iterdir()] == ["config.json"]

    def test_nul_in_output_dir_flag_is_usage_error_naming_the_flag(self, tmp_path, capsys):
        code = main(["--config", self._config(tmp_path), "--output-dir", "a\0b", "dict"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and captured.err.count("\n") == 1
        assert json.loads(captured.err)["message"] == "--output-dir must be a path string"
        assert [path.name for path in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("read", ["config", "dictionary", "document"])
    def test_nul_in_an_input_path_is_usage_error_naming_it(self, workspace, tmp_path, capsys, read):
        """No file name holds NUL, so such a path is an input that cannot be read."""
        if read == "config":
            argv, named = ["--config", "c\0.json", "dict"], "config c\0.json"
        elif read == "dictionary":
            argv = ["--config", CONFIG, "--output-dir", str(workspace),
                    "analyze", "dict-crossover", "--dictionary", "x\0y"]
            named = "dictionary x\0y"
        else:
            records = [dict(FIXTURE_MANIFEST[0], path="docs/x\0y.txt"), *FIXTURE_MANIFEST[1:]]
            argv = [*_manifest_argv(tmp_path, records), "ingest"]
            named = f"document {records[0]['id']!r} {tmp_path / 'corpus' / records[0]['path']}"
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and captured.err.count("\n") == 1
        assert json.loads(captured.err)["message"] == f"cannot read {named}: embedded null byte"

    def test_config_must_be_an_object(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("5", encoding="utf-8")
        assert main(["--config", str(path), "dict"]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == 2

    def test_unknown_top_level_keys_are_ignored(self, tmp_path, capsys):
        assert main(["--config", self._config(tmp_path, workers=1), "dict"]) == 0

    def test_integer_for_a_real_setting_is_accepted(self, tmp_path, capsys):
        changes = {"embedding": {"alpha": 1, "downsample": 0}, "ngram_orders": []}
        assert main(["--config", self._config(tmp_path, **changes), "dict"]) == 0

    @pytest.mark.parametrize("kind", ["ppmi", "cbow"])
    @pytest.mark.parametrize(
        "key, literal", [("alpha", "NaN"), ("alpha", "1e400"), ("downsample", "NaN")]
    )
    def test_non_finite_real_is_usage_error_naming_the_key(
        self, tmp_path, capsys, kind, key, literal
    ):
        """json reads these literals as floats; an embedding built from them is not finite."""
        out = tmp_path / "out"
        assert run_cli(out, "ingest") == 0
        config = _fixture_config(tmp_path, f'{{"dim": 16, "{key}": {literal}}}')
        code = main(["--config", config, "--output-dir", str(out), "embed", kind])
        payload = json.loads(capsys.readouterr().err)
        assert code == 2
        assert payload["message"].endswith(f"non-finite values: {key}")
        assert not (out / "ppmi").exists() and not (out / "embeddings").exists()

    @pytest.mark.parametrize(
        "argv", [["embed", "svd"], ["embed", "cbow"], _COLLOCATIONS], ids=["svd", "cbow", "colloc"]
    )
    @pytest.mark.parametrize("alpha", ["1e6", "-1e6"])
    def test_overflowing_alpha_is_usage_error_naming_it(self, tmp_path, capsys, alpha, argv):
        """A context smoothing whose powers overflow or underflow is no distribution."""
        out = tmp_path / "out"
        assert run_cli(out, "ingest") == 0
        before = _tree_digest(out)
        config = _fixture_config(tmp_path, f'{{"dim": 16, "epochs": 1, "alpha": {alpha}}}')
        capsys.readouterr()
        code = main(["--config", config, "--output-dir", str(out), *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and captured.err.count("\n") == 1
        assert json.loads(captured.err)["message"] == (
            f"alpha {float(alpha)!r} gives no finite context distribution in period 1930-1939"
        )
        assert _tree_digest(out) == before

    def test_negative_seed_is_usage_error_naming_the_key(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli(out, "ingest") == 0
        config = _fixture_config(tmp_path, '{"dim": 16, "epochs": 1, "seed": -3}')
        code = main(["--config", config, "--output-dir", str(out), "embed", "cbow"])
        payload = json.loads(capsys.readouterr().err)
        assert code == 2
        assert "seed" in payload["message"]
        assert "traceback" not in payload["context"]
        assert not (out / "embeddings").exists()

    def test_no_negative_samples_is_usage_error_naming_the_key(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli(out, "ingest") == 0
        before = _tree_digest(out)
        config = _fixture_config(tmp_path, '{"dim": 16, "epochs": 1, "negatives": 0}')
        capsys.readouterr()
        code = main(["--config", config, "--output-dir", str(out), "embed", "cbow"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and captured.err.count("\n") == 1
        assert json.loads(captured.err)["message"] == "negatives must be at least 1"
        assert _tree_digest(out) == before

    @pytest.mark.parametrize("size", ["1000000000000", "100000000000000000000"])
    @pytest.mark.parametrize("key", ["dim", "negatives"])
    def test_huge_cbow_size_is_usage_error_naming_the_key(self, tmp_path, capsys, key, size):
        out = tmp_path / "out"
        assert run_cli(out, "ingest") == 0
        config = _fixture_config(tmp_path, f'{{"dim": 16, "epochs": 1, "{key}": {size}}}')
        code = main(["--config", config, "--output-dir", str(out), "embed", "cbow"])
        payload = json.loads(capsys.readouterr().err)
        assert code == 2
        assert f"{key} {size} is too large" in payload["message"]
        assert "traceback" not in payload["context"]
        assert not (out / "embeddings").exists()

    def test_cbow_window_past_the_longest_document_trains_alike(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli(out, "ingest") == 0
        longest = 0
        for store in (out / "tokens").glob("*.npz"):
            with np.load(store) as arrays:
                longest = max(longest, int(np.diff(arrays["offsets"]).max()))
        vectors = []
        for window in (longest, 1000000000000, 100000000000000000000):
            config = _fixture_config(tmp_path, f'{{"dim": 16, "epochs": 1, "window": {window}}}')
            assert main(["--config", config, "--output-dir", str(out), "embed", "cbow"]) == 0
            vectors.append(_tree_digest(out / "embeddings"))
        assert vectors[1:] == [vectors[0]] * 2


FIXTURE_MANIFEST = json.loads((FIXTURES / "mini_corpus" / "manifest.json").read_text("utf-8"))


def _manifest_argv(root: Path, records: list[dict]) -> list[str]:
    """``--config`` and ``--output-dir`` of the fixture flow under ``root``, over a
    corpus of the fixture documents listed by the manifest ``records``."""
    corpus = root / "corpus"
    corpus.mkdir(parents=True)
    shutil.copytree(FIXTURES / "mini_corpus" / "docs", corpus / "docs")
    (corpus / "manifest.json").write_text(json.dumps(records), encoding="utf-8")
    raw = json.loads(Path(CONFIG).read_text(encoding="utf-8"))
    raw.update(corpus_root=str(corpus), analyzer_tsv=str(FIXTURES / raw["analyzer_tsv"]))
    (root / "config.json").write_text(json.dumps(raw), encoding="utf-8")
    return ["--config", str(root / "config.json"), "--output-dir", str(root / "out")]


class TestManifestOrder:
    def test_permuted_manifest_writes_the_same_bytes(self, tmp_path):
        """Each period's documents are in id order, so manifest order changes no file."""
        manifest = FIXTURE_MANIFEST
        orders = {
            "given": manifest,
            "reversed": manifest[::-1],
            "shuffled": [manifest[i] for i in np.random.default_rng(7).permutation(len(manifest))],
        }
        digests = {}
        for name, records in orders.items():
            argv, out = _manifest_argv(tmp_path / name, records), tmp_path / name / "out"
            steps = (["ingest"], ["embed", "svd"], ["embed", "cbow"], ["analyze", "divergence"])
            for step in steps:
                assert main([*argv, *step]) == 0, (name, step)
            digests[name] = _tree_digest(out)
        assert {"tokens/1930-1939.npz", "embeddings/1980-1989.cbow.npz",
                "embeddings/1980-1989.cbow.vec"} <= set(digests["given"])
        assert digests["reversed"] == digests["given"]
        assert digests["shuffled"] == digests["given"]

    @pytest.mark.parametrize("field,value", [("id", "1"), ("date", "1931"), ("path", "null")])
    def test_field_that_is_no_string_is_usage_error(self, tmp_path, capsys, field, value):
        entry = {"id": '"a"', "date": '"1931-01-01"', "path": '"a.txt"', field: value}
        manifest = "[{" + ", ".join(f'"{k}": {v}' for k, v in entry.items()) + "}]"
        assert main([*_corpus_config(tmp_path, manifest.encode()), "ingest"]) == 2
        message = json.loads(capsys.readouterr().err)["message"]
        assert message == "manifest entry 0: id, date and path must be strings"


class TestDocumentsListedTwice:
    def test_counts_double_and_every_share_stays(self, tmp_path, capsys):
        """Each document listed twice, under a second id, doubles every vocabulary
        count, keeps the kept words, and changes no share, ratio or rate."""
        twice = [*FIXTURE_MANIFEST, *({**e, "id": e["id"] + "-again"} for e in FIXTURE_MANIFEST)]
        outs = {"once": tmp_path / "once", "twice": tmp_path / "twice" / "out"}
        argvs = {
            "once": ["--config", CONFIG, "--output-dir", str(outs["once"])],
            "twice": _manifest_argv(tmp_path / "twice", twice),
        }
        for name, argv in argvs.items():
            for step in E2E_STEPS[:7]:  # ingest, the five analyses and embed ppmi
                assert main([*argv, *step]) == 0, (name, step)
        once, twice = outs["once"], outs["twice"]
        vocabularies = sorted((once / "vocab").glob("*.tsv"))
        assert len(vocabularies) == 4  # both periods, lemma and surface
        for path in vocabularies:
            single, double = read_vocabulary(path), read_vocabulary(twice / "vocab" / path.name)
            assert double.entries == {word: 2 * count for word, count in single.entries.items()}
            assert double.token_total == 2 * single.token_total
        same = ["jaccard", "jsd", "jsd_contributions_1930-1939_1980-1989", "survived_1930-1939",
                "crossover", "freq_belge"]
        for name in (f"{stem}.{suffix}" for stem in same for suffix in ("csv", "json")):
            assert (twice / "reports" / name).read_bytes() == (once / "reports" / name).read_bytes()

        def records(out, name):
            return json.loads((out / "reports" / f"{name}.json").read_text(encoding="utf-8"))

        for name, totals, shares in [
            ("ortho_ratio_b-p", ("soft_total", "hard_total"), ("ratio",)),
            ("ortho_ratio_d-t", ("soft_total", "hard_total"), ("ratio",)),
            ("circumflex", ("raw",), ("per_million",)),
        ]:
            for single, double in zip(records(once, name), records(twice, name), strict=True):
                assert all(double[key] == 2 * single[key] for key in totals), name
                assert all(double[key] == single[key] for key in shares), name

        def ppmi(out, period):
            vocabulary = read_vocabulary(out / "vocab" / f"{period}.lemma.tsv")
            return read_ppmi(out / "ppmi" / f"{period}.tsv", vocabulary)

        for period in ("1930-1939", "1980-1989"):
            single, double = ppmi(once, period), ppmi(twice, period)
            assert (single.alpha, single.window) == (double.alpha, double.window)
            assert np.array_equal(single.values.indptr, double.values.indptr)
            assert np.array_equal(single.values.indices, double.values.indices)
            assert np.max(np.abs(single.values.data - double.values.data)) <= 1e-12


class TestDocumentOutsideEveryBucket:
    def test_only_stats_lists_it(self, tmp_path, capsys):
        """Under an explicit bucketing, a document dated outside every bucket changes
        no file but ``stats.json``, which lists it as unbucketed."""
        extra = {**FIXTURE_MANIFEST[0], "id": "doc-1955", "date": "1955-06-01"}
        manifests = {"given": FIXTURE_MANIFEST, "extra": [*FIXTURE_MANIFEST, extra]}
        digests, stats = {}, {}
        for name, records in manifests.items():
            argv = _manifest_argv(tmp_path / name, records)
            for step in E2E_STEPS:
                assert main([*argv, *step]) == 0, (name, step)
            out = tmp_path / name / "out"
            stats[name] = json.loads((out / "stats.json").read_text(encoding="utf-8"))
            digests[name] = _tree_digest(out)
            del digests[name]["stats.json"]
        assert len(digests["given"]) > 40 and digests["extra"] == digests["given"]
        assert stats["given"]["unbucketed_documents"] == []
        assert stats["extra"] == {**stats["given"], "unbucketed_documents": ["doc-1955"]}


class TestOneUnicodeForm:
    """Text enters as NFC: a decomposed (NFD) spelling is the precomposed word, in
    the documents, the analyzer table and ``--word``; file names are never changed."""

    def test_nfd_documents_and_analyzer_write_the_nfc_tree(self, tmp_path):
        digests = {}
        for form in ("NFC", "NFD"):
            root = tmp_path / form
            argv = _manifest_argv(root, FIXTURE_MANIFEST)
            texts = [*(root / "corpus" / "docs").iterdir(), root / "analyzer.tsv"]
            shutil.copyfile(FIXTURES / "analyzer_stub.tsv", texts[-1])
            for path in texts:
                text = path.read_text(encoding="utf-8")
                path.write_text(unicodedata.normalize(form, text), encoding="utf-8")
            config = json.loads((root / "config.json").read_text(encoding="utf-8"))
            config["analyzer_tsv"] = str(texts[-1])
            (root / "config.json").write_text(json.dumps(config), encoding="utf-8")
            for step in E2E_STEPS:
                assert main([*argv, *step]) == 0, (form, step)
            digests[form] = _tree_digest(root / "out")
        assert len(digests["NFC"]) > 40 and digests["NFD"] == digests["NFC"]

    def test_nfd_word_writes_the_nfc_words_report(self, tmp_path):
        word = "kâğıt"  # 50 in the 1930s and 10 in the 1980s
        assert run_cli(tmp_path, "ingest") == 0
        reports = {}
        for form in ("NFD", "NFC"):
            shutil.rmtree(tmp_path / "reports", ignore_errors=True)
            spelled = unicodedata.normalize(form, word)
            assert run_cli(tmp_path, "analyze", "freq", "--word", spelled) == 0
            reports[form] = {p.name: p.read_bytes() for p in (tmp_path / "reports").iterdir()}
        assert reports["NFD"] == reports["NFC"]
        counts = json.loads(reports["NFC"][f"freq_{word}.json"])
        assert [entry["value"] for entry in counts] == [50, 10]

    def test_document_with_an_nfd_file_name_still_opens(self, tmp_path):
        name = unicodedata.normalize("NFD", "kâğıt.txt")
        manifest = json.dumps([{"id": "a", "date": "1931-01-01", "path": name}])
        argv = _corpus_config(tmp_path, manifest.encode())
        (tmp_path / "corpus" / "a.txt").rename(tmp_path / "corpus" / name)
        assert main([*argv, "ingest"]) == 0


class TestStaleTempFiles:
    """Once a command holds the lock, a file named like a ``write_artifact``
    temp file is a killed writer's, and the command removes it first."""

    STALE = (".12-34.tmp", "reports/.5-6.tmp", "vocab/.7-8.tmp", "tokens/.9-10.tmp",
             "ngrams/.11-12.tmp", "ppmi/.13-14.tmp", "embeddings/.15-16.tmp",
             "transforms/.17-18.tmp")
    KEPT = (".keep.tmp", "notes.tmp", ".1-2.tmp.bak", "ngrams/.keep.tmp")

    @pytest.mark.parametrize(
        "argv,code",
        [
            (["ingest"], 0),
            (["dict"], 0),
            (["analyze", "survived", "--base-period", "1940-1949"], 2),  # fails after the sweep
        ],
    )
    def test_any_command_removes_exactly_the_stale_temp_files(self, tmp_path, argv, code):
        clean, out = tmp_path / "clean", tmp_path / "out"
        for root in (clean, out):
            assert run_cli(root, "ingest") == 0
        for name in self.STALE + self.KEPT:
            (out / name).parent.mkdir(parents=True, exist_ok=True)
            (out / name).write_bytes(b"partial")
        assert run_cli(out, *argv) == run_cli(clean, *argv) == code
        assert not any((out / name).exists() for name in self.STALE)
        digest = _tree_digest(out)
        assert {name: digest.pop(name) for name in self.KEPT} == {
            name: hashlib.sha256(b"partial").hexdigest() for name in self.KEPT
        }
        assert digest == _tree_digest(clean)


class TestEmbedReadsTokenStore:
    def test_embed_does_not_need_the_corpus(self, tmp_path):
        shutil.copytree(FIXTURES / "mini_corpus", tmp_path / "mini_corpus")
        for name in ("analyzer_stub.tsv", "fixture_config.json"):
            shutil.copy(FIXTURES / name, tmp_path / name)
        config = str(tmp_path / "fixture_config.json")

        def run(out, *args):
            with_out = ["--config", config, "--output-dir", str(out), *args]
            assert main(with_out) == 0, args

        run(tmp_path / "present", "ingest")
        run(tmp_path / "moved", "ingest")
        for kind in ("ppmi", "svd", "cbow"):
            run(tmp_path / "present", "embed", kind)
        (tmp_path / "mini_corpus").rename(tmp_path / "elsewhere")
        for kind in ("ppmi", "svd", "cbow"):
            run(tmp_path / "moved", "embed", kind)
        assert _tree_digest(tmp_path / "moved") == _tree_digest(tmp_path / "present")

    def test_embed_before_ingest_is_missing_artifact(self, tmp_path, capsys):
        code = main(["--config", CONFIG, "--output-dir", str(tmp_path), "embed", "svd"])
        payload = json.loads(capsys.readouterr().err)
        assert code == 3
        assert payload["context"]["run_first"] == "ingest"

    def test_missing_store_is_missing_artifact_and_writes_nothing(self, tmp_path, capsys):
        assert run_cli(tmp_path, "ingest") == 0
        (tmp_path / "tokens" / "1980-1989.npz").unlink()
        code, _, err = run_cli(tmp_path, "embed", "cbow", capsys=capsys)
        assert code == 3
        assert json.loads(err)["context"]["run_first"] == "ingest"
        assert not (tmp_path / "embeddings").exists()

    @pytest.mark.parametrize("argv", [["embed", "ppmi"], _COLLOCATIONS], ids=["embed", "query"])
    def test_corrupt_store_is_usage_error_naming_the_file(self, tmp_path, capsys, argv):
        assert run_cli(tmp_path, "ingest") == 0
        store = tmp_path / "tokens" / "1930-1939.npz"
        store.write_bytes(store.read_bytes()[:100])
        code, _, err = run_cli(tmp_path, *argv, capsys=capsys)
        assert code == 2
        assert "1930-1939.npz" in json.loads(err)["message"]

    def test_corrupt_vocabulary_is_usage_error_naming_the_line(self, tmp_path, capsys):
        assert run_cli(tmp_path, "ingest") == 0
        vocab = tmp_path / "vocab" / "1930-1939.lemma.tsv"
        vocab.write_text(vocab.read_text(encoding="utf-8") + "broken line\n", encoding="utf-8")
        code, _, err = run_cli(tmp_path, "embed", "svd", capsys=capsys)
        assert code == 2
        assert "1930-1939.lemma.tsv: line" in json.loads(err)["message"]


class TestCollocationsRebuildsPPMI:
    """``query collocations`` counts its period's matrix from the token store, with
    the configured window and alpha, as ``embed`` does; the PPMI export is not read."""

    REPORT = "collocations_kanun_1930-1939.json"

    def test_after_ingest_alone_writes_the_golden(self, tmp_path):
        assert run_cli(tmp_path, "ingest") == 0
        assert run_cli(tmp_path, *_COLLOCATIONS) == 0
        report = tmp_path / "reports" / self.REPORT
        assert report.read_bytes() == (GOLDEN / self.REPORT).read_bytes()
        assert not (tmp_path / "ppmi").exists()

    def test_report_equals_the_library_over_the_ppmi_export(self, tmp_path):
        config = _fixture_config(tmp_path, '{"dim": 16, "window": 1, "alpha": 1.0}')
        out = tmp_path / "out"
        for step in (["ingest"], ["embed", "ppmi"], _COLLOCATIONS):
            assert main(["--config", config, "--output-dir", str(out), *step]) == 0, step
        vocabulary = read_vocabulary(out / "vocab" / "1930-1939.lemma.tsv")
        ppmi = read_ppmi(out / "ppmi" / "1930-1939.tsv", vocabulary)
        assert (ppmi.window, ppmi.alpha) == (1, 1.0)
        expected = to_json(ranking_records(collocations("kanun", 10, ppmi), "association"))
        assert (out / "reports" / self.REPORT).read_text(encoding="utf-8") == expected
        assert expected != (GOLDEN / self.REPORT).read_text(encoding="utf-8")

    def test_no_command_calls_read_ppmi(self, tmp_path, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a command read the PPMI export")

        monkeypatch.setattr(embeddings, "read_ppmi", forbidden)
        run_flow(CONFIG, str(tmp_path))  # every step must exit 0
        assert "read_ppmi" not in Path(cli.__file__).read_text(encoding="utf-8")


class TestBlasThreads:
    def test_embeddings_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        """Dense SVD and CBOW vectors, stores and exports, are byte-identical with one
        and two BLAS threads."""
        vectors = {}
        for threads in ("1", "2"):
            env = _child_env(OPENBLAS_NUM_THREADS=threads)
            out = tmp_path / f"threads{threads}"
            for args in (["ingest"], ["embed", "svd"], ["embed", "cbow"]):
                result = subprocess.run(
                    [sys.executable, "-m", "diacorpus.cli", "--config", CONFIG,
                     "--output-dir", str(out), *args],
                    capture_output=True, text=True, env=env, timeout=300,
                )
                assert result.returncode == 0, (args, result.stderr)
            vectors[threads] = {p.name: p.read_bytes() for p in (out / "embeddings").iterdir()}
        assert sorted(vectors["1"]) == [
            f"{period}.{kind}.{suffix}"
            for period in ("1930-1939", "1980-1989")
            for kind in ("cbow", "svd")
            for suffix in ("npz", "vec")
        ]
        assert vectors["1"] == vectors["2"]


_IMPORT_PROBE = """
import contextlib, io, json, sys
import diacorpus.cli

def loaded(code):
    scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    return [code, scipy, "hashlib" in sys.modules, "numpy" in sys.modules]

steps = [loaded(0)]
for args in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        steps.append(loaded(diacorpus.cli.main(args)))
print(json.dumps(steps))
"""


class TestScipyImports:
    def test_only_embed_loads_scipy(self, workspace, tmp_path):
        """A fresh interpreter imports the CLI, prints ``--help``, fails one usage
        error and runs the vocabulary commands (``analyze freq``, ``survived``,
        ``ortho``, ``dict-crossover`` and ``dict``) without loading numpy. Then it
        runs every command but ``embed cbow`` without loading scipy; ``embed svd``
        loads it only for the sparse solver, and the fixture's 50-word vocabularies
        take the dense path. No command before ``align``, the first to compare
        store digests, loads hashlib.

        The pytest process has numpy and scipy loaded already, so the probe is a
        new process; the commands run in order, so a later entry sees what every
        earlier command loaded.
        """
        out = tmp_path / "out"
        shutil.copytree(workspace, out)
        prefix = ["--config", CONFIG, "--output-dir", str(out)]
        vocabulary_only = [
            ["analyze", "freq", "--word", "belge"],
            ["analyze", "survived", "--base-period", "1930-1939"],
            ["analyze", "ortho"],
            ["analyze", "dict-crossover"],
            ["dict"],
        ]
        commands = [
            ["ingest"],
            ["embed", "ppmi"],
            ["embed", "svd"],
            ["analyze", "freq", "--word", "belge"],
            ["analyze", "divergence", "--pair", "1930-1939", "1980-1989"],
            ["align", "--from", "1980-1989", "--to", "1930-1939", "--kind", "svd"],
            ["query", "most-similar", "--word", "kanun", "--period", "1930-1939"],
            ["query", "aligned-most-similar", "--word", "televizyon",
             "--target", "1980-1989", "--base", "1930-1939"],
            ["query", "semantic-change", "--word", "piyasa", "--periods", "1930-1939", "1980-1989"],
            ["dict"],
            ["query", "collocations", "--word", "kanun", "--period", "1930-1939"],
        ]
        steps = [
            ["--help"],
            prefix + ["analyze", "no-such-analysis"],
            *(prefix + c for c in vocabulary_only + commands),
        ]
        result = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, json.dumps(steps)],
            capture_output=True, text=True, env=_child_env(), timeout=300,
        )
        assert result.returncode == 0, result.stderr
        records = json.loads(result.stdout)
        labels = ["import diacorpus.cli", "--help", "a usage error",
                  *(" ".join(c) for c in vocabulary_only + commands)]
        assert len(records) == len(labels)
        for i, (label, (code, modules, _, numpy_loaded)) in enumerate(zip(labels, records)):
            assert code == (2 if label == "a usage error" else 0), label
            assert modules == [], label
            assert numpy_loaded == (i >= 3 + len(vocabulary_only)), label
        # hashlib (OpenSSL, a few MB resident) loads with the first digest compared
        hashing = [label for label, record in zip(labels, records) if record[2]]
        assert hashing[0].startswith("align")


_MODULES_PROBE = """
import contextlib, io, json, sys
import diacorpus.cli

with contextlib.redirect_stdout(io.StringIO()):
    code = diacorpus.cli.main(json.loads(sys.argv[1]))
package = sorted(m.removeprefix("diacorpus.") for m in sys.modules if m.startswith("diacorpus."))
print(json.dumps([code, package, "hashlib" in sys.modules, "scipy" in sys.modules]))
"""

_LOADED_BY_EVERY_COMMAND = ["cli", "corpus", "dictionary", "errors", "lexicon", "preprocess"]

# command -> (the diacorpus modules it loads beyond those above, hashlib loaded, scipy loaded).
# Each analysis loads only the module that computes it (dict-crossover reads the sample
# dictionary from the data package). Only the commands that compare digests (align and
# the aligned queries) hash a store; embed cbow's sparse products load scipy, and scipy
# loads hashlib (through hmac). The fixture's 50-word vocabularies take the full dense
# SVD, which needs no scipy.
_MODULES_LOADED = {
    "ingest": ([], False, False),
    "analyze divergence": (["divergence"], False, False),
    "analyze survived": (["divergence"], False, False),
    "analyze ortho": (["orthography"], False, False),
    "analyze dict-crossover": (["data"], False, False),
    "analyze freq": ([], False, False),
    "embed ppmi": (["embeddings"], False, False),
    "embed svd": (["embeddings"], False, False),
    "embed cbow": (["cbow", "embeddings"], True, True),
    "align": (["alignment", "embeddings"], True, False),
    "query most-similar": (["embeddings"], False, False),
    "query aligned-most-similar": (["alignment", "embeddings"], True, False),
    "query semantic-change": (["alignment", "embeddings"], True, False),
    "query collocations": (["embeddings"], False, False),
}


def _command_name(argv: list[str]) -> str:
    """``embed ppmi`` or ``query most-similar``: the command words, without flags."""
    return " ".join(a for a in argv[:2] if not a.startswith("-"))


class TestModulesLoaded:
    @pytest.fixture(scope="class")
    def out(self, built, tmp_path_factory):
        out = tmp_path_factory.mktemp("modules") / "out"
        shutil.copytree(built, out)
        return out

    @pytest.mark.parametrize(
        "argv", [["ingest"], *_ANALYSES, *_EMBEDS, *_VECTOR_READERS, _COLLOCATIONS],
        ids=_command_name,
    )
    def test_each_command_loads_only_its_modules(self, out, argv):
        """Each command runs in a fresh interpreter, which loads exactly the modules
        of its row: an analysis module only in its own analyses, no embeddings module
        before embed, and cbow only in embed cbow."""
        result = subprocess.run(
            [sys.executable, "-c", _MODULES_PROBE,
             json.dumps(["--config", CONFIG, "--output-dir", str(out), *argv])],
            capture_output=True, text=True, env=_child_env(), timeout=120,
        )
        assert result.returncode == 0, result.stderr
        code, package, hashing, scipy = json.loads(result.stdout)
        modules, hashes, uses_scipy = _MODULES_LOADED[_command_name(argv)]
        assert code == 0
        assert package == sorted(_LOADED_BY_EVERY_COMMAND + modules)
        assert (hashing, scipy) == (hashes, uses_scipy)

    def test_embed_svd_of_a_600_word_vocabulary_loads_no_scipy(self, tmp_path):
        """600 words at dim 100 factor through the Gram matrix, which needs numpy alone."""
        rng = random.Random(600)
        letters = "abcdefghijklmnopqrstuvwxyz"
        words = [f"k{a}{b}" for a in letters for b in letters][:600]
        tokens = [w for w in words for _ in range(3)]
        rng.shuffle(tokens)
        document = " ".join(tokens).encode()
        prefix = _corpus_config(tmp_path, document=document, embedding={"dim": 100})
        assert main([*prefix, "ingest"]) == 0
        result = subprocess.run(
            [sys.executable, "-c", _MODULES_PROBE, json.dumps([*prefix, "embed", "svd"])],
            capture_output=True, text=True, env=_child_env(), timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == [
            0, sorted(_LOADED_BY_EVERY_COMMAND + ["embeddings"]), False, False
        ]
        [store] = (tmp_path / "out" / "embeddings").glob("*.svd.npz")
        assert read_embeddings(store).matrix.shape == (600, 100)


# every name ``diacorpus/__init__.py`` exports, by module
_PACKAGE_EXPORTS = {
    "alignment": ["AlignmentTransform", "aligned_most_similar", "procrustes_align",
                  "semantic_change"],
    "cbow": ["train_cbow"],
    "corpus": ["CorpusStats", "DiachronicCorpus", "DocumentRecord", "PeriodCorpus", "TimePeriod",
               "build_corpus_tree", "decade_bucket", "load_manifest"],
    "dictionary": ["DictionaryEntry", "crossover_period", "load_dictionary",
                   "load_sample_dictionary"],
    "divergence": ["ContributionRanking", "DivergenceMatrix", "jaccard_matrix", "jensen_shannon",
                   "jsd_contributions", "jsd_matrix", "survived_words"],
    "embeddings": ["CooccurrenceMatrix", "EmbeddingSet", "PPMIMatrix", "build_ppmi",
                   "collocations", "count_cooccurrences", "most_similar", "svd_embeddings"],
    "errors": ["ComputationUndefinedError", "DiacorpusError", "DictionaryError", "IngestError",
               "MissingArtifactError", "OutOfVocabularyError", "ParameterError"],
    "lexicon": ["NgramTable", "Vocabulary", "cofrequency", "common_words", "create_ngrams",
                "create_vocabulary", "exists", "frequency", "merge_vocabulary",
                "morpheme_frequency", "vocab_metrics", "words_matching"],
    "orthography": ["circumflex_frequency", "detect_variant_pairs", "ending_ratio"],
    "preprocess": ["FilterConfig", "LookupAnalyzer", "filter_vocabulary", "frequency_threshold",
                   "lemma_surfaces", "load_analyzer_tsv", "normalize_text", "token_surfaces",
                   "turkish_lower"],
}

_EXPORTS_PROBE = """
import importlib, json, sys
import diacorpus

report = {"numpy": "numpy" in sys.modules, "not_the_definition": [], "not_in_dir": []}
for module, names in json.loads(sys.argv[1]).items():
    for name in names:
        namespace = {}
        exec(f"from diacorpus import {name}", namespace)
        if namespace[name] is not getattr(importlib.import_module(f"diacorpus.{module}"), name):
            report["not_the_definition"].append(name)
        if name not in dir(diacorpus):
            report["not_in_dir"].append(name)
try:
    diacorpus.no_such_name
except AttributeError as exc:
    report["unknown"] = str(exc)
print(json.dumps(report))
"""


class TestPackageExports:
    def test_every_export_resolves_to_its_definition(self):
        """In a fresh interpreter, ``import diacorpus`` loads no numpy, each exported
        name imports as the object its module defines and is listed by ``dir``, and
        an unknown name raises AttributeError."""
        result = subprocess.run(
            [sys.executable, "-c", _EXPORTS_PROBE, json.dumps(_PACKAGE_EXPORTS)],
            capture_output=True, text=True, env=_child_env(), timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == {
            "numpy": False,
            "not_the_definition": [],
            "not_in_dir": [],
            "unknown": "module 'diacorpus' has no attribute 'no_such_name'",
        }

    def test_all_is_the_export_table_and_dir_lists_it(self):
        import diacorpus

        exported = sorted(name for names in _PACKAGE_EXPORTS.values() for name in names)
        assert diacorpus.__all__ == exported
        assert len(exported) == 63
        assert set(exported) <= set(dir(diacorpus))


class TestEmbedAlignQuery:
    def test_cli_query_equals_library_bytes(self, workspace):
        embedding_set = read_embeddings(workspace / "embeddings" / "1930-1939.svd.npz")
        expected = to_json(ranking_records(most_similar("kanun", 10, embedding_set)))
        actual = (workspace / "reports" / "most_similar_kanun_1930-1939.json").read_text(
            encoding="utf-8"
        )
        assert actual == expected

    def test_aligned_query_recovers_planted_counterpart(self, workspace):
        payload = json.loads(
            (
                workspace
                / "reports"
                / "aligned_most_similar_televizyon_1980-1989_1930-1939.json"
            ).read_text(encoding="utf-8")
        )
        words = [row["lemma"] for row in payload]
        assert "radyo" in words
        media = {"radyo", "sinema", "tiyatro", "yayın", "haber", "müzik"}
        assert media & set(words[:5])

    def test_semantic_change_report(self, workspace):
        payload = json.loads(
            (workspace / "reports" / "semantic_change_piyasa.json").read_text(encoding="utf-8")
        )
        assert payload[0]["value"] == 0.0
        assert payload[1]["value"] > 0.2

    def test_align_same_period_is_usage_error(self, workspace, capsys):
        code = main(
            [
                "--config", CONFIG, "--output-dir", str(workspace),
                "align", "--from", "1930-1939", "--to", "1930-1939",
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert json.loads(captured.err)["error"] == 2

    def test_query_without_embeddings_is_missing_artifact(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli(out, "ingest") == 0
        code = main(
            [
                "--config", CONFIG, "--output-dir", str(out),
                "query", "most-similar", "--word", "kanun", "--period", "1930-1939",
            ]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert json.loads(captured.err)["context"]["run_first"] == "embed svd"

    def test_oov_query_word_is_usage_error(self, workspace, capsys):
        code = main(
            [
                "--config", CONFIG, "--output-dir", str(workspace),
                "query", "most-similar", "--word", "bilgisayar", "--period", "1930-1939",
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "bilgisayar" in json.loads(captured.err)["message"]

    def test_zero_dim_store_is_usage_error_naming_the_file(self, workspace, tmp_path, capsys):
        shutil.copytree(workspace / "vocab", tmp_path / "vocab")
        store = tmp_path / "embeddings" / "1930-1939.svd.npz"
        store.parent.mkdir()
        store.write_bytes(savez_bytes({
            "vectors": np.zeros((0, 0)), "words": np.zeros(0, dtype=np.uint8),
            "period": np.array("1930-1939"), "provenance": np.array("svd"),
        }))
        code, out, err = run_cli(
            tmp_path, "query", "most-similar", "--word", "kanun", "--period", "1930-1939",
            capsys=capsys,
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        payload = json.loads(err)
        assert payload["error"] == 2
        assert f"{store}: vectors must be a 2-D float64 array of at least one column" in (
            payload["message"]
        )
        assert "traceback" not in payload["context"]
        assert not (tmp_path / "reports").exists()



class TestThreePeriods:
    """The fixture re-dated into three decades: every other 1980s document moves
    to the 1950s, so ``semantic-change`` composes two consecutive transforms."""

    WORDS = ("kanun", "piyasa", "televizyon", "belge")

    @pytest.fixture(scope="class")
    def flow(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("three_periods")
        corpus = root / "corpus"
        shutil.copytree(FIXTURES / "mini_corpus" / "docs", corpus / "docs")
        manifest = json.loads((FIXTURES / "mini_corpus" / "manifest.json").read_text("utf-8"))
        eighties = [record for record in manifest if record["date"].startswith("198")]
        for record in eighties[1::2]:
            record["date"] = "195" + record["date"][3:]
        (corpus / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        config = json.loads(Path(CONFIG).read_text(encoding="utf-8"))
        config.update(
            corpus_root=str(corpus),
            output_dir=str(root / "out"),
            bucketing=[[1930, 1939], [1950, 1959], [1980, 1989]],
            analyzer_tsv=str(FIXTURES / config["analyzer_tsv"]),
        )
        config_path = root / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        argv = ["--config", str(config_path)]
        for step in (
            ["ingest"],
            ["embed", "svd"],
            ["align", "--from", _P50, "--to", _P],
            ["align", "--from", _L, "--to", _P50],
            *(["query", "semantic-change", "--word", w, "--periods", _P, _P50, _L]
              for w in self.WORDS),
        ):
            assert main(argv + step) == 0, step
        return argv, root / "out"

    def test_series_equal_an_independent_composition(self, flow):
        _, out = flow
        sets = [read_embeddings(out / "embeddings" / f"{p}.svd.npz") for p in (_P, _P50, _L)]
        step_1950 = read_transform(out / "transforms" / f"{_P50}__to__{_P}.svd.npz").matrix
        step_1980 = read_transform(out / "transforms" / f"{_L}__to__{_P50}.svd.npz").matrix
        # row vectors: a 1980s vector goes to the 1950s, then to the 1930s
        to_base = [np.eye(len(step_1950)), step_1950, step_1980 @ step_1950]
        for word in self.WORDS:
            values = self._values(out, word)
            base = sets[0].vocab_index.get(word)
            for value, current, matrix in zip(values, sets, to_base):
                row = current.vocab_index.get(word)
                if base is None or row is None:
                    assert value is None
                    continue
                a, b = current.matrix[row] @ matrix, sets[0].matrix[base]
                assert abs(value - (1 - a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))) <= 1e-12
        # the words reach the last period, so both steps of the chain are used
        assert all(self._values(out, w)[2] is not None for w in ("kanun", "piyasa"))

    @staticmethod
    def _values(out, word):
        report = out / "reports" / f"semantic_change_{word}.json"
        return [r["value"] for r in json.loads(report.read_text(encoding="utf-8"))]

    def test_reversed_periods_write_the_same_bytes(self, flow):
        argv, out = flow
        report = out / "reports" / "semantic_change_kanun.json"
        forward = report.read_bytes()
        command = ["query", "semantic-change", "--word", "kanun", "--periods", _L, _P50, _P]
        assert main(argv + command) == 0
        assert report.read_bytes() == forward

    def test_missing_step_asks_for_its_alignment(self, flow, tmp_path, capsys):
        argv, out = flow
        shutil.copytree(out, tmp_path / "out")
        (tmp_path / "out" / "transforms" / f"{_L}__to__{_P50}.svd.npz").unlink()
        command = ["query", "semantic-change", "--word", "kanun", "--periods", _P, _P50, _L]
        assert main([*argv, "--output-dir", str(tmp_path / "out"), *command]) == 3
        payload = json.loads(capsys.readouterr().err)
        assert payload["context"]["run_first"] == f"align --from {_L} --to {_P50} --kind svd"


class TestEdgeTokens:
    @pytest.mark.parametrize("token", EDGE_TOKENS)
    @pytest.mark.parametrize(
        "artifact,command",
        [("vocab/1930-1939.lemma.tsv", _COLLOCATIONS)],
        ids=["vocabulary-collocations"],
    )
    def test_edge_token_is_usage_error_naming_line_3(
        self, workspace, tmp_path, capsys, artifact, command, token
    ):
        _assert_line_3_error(workspace, tmp_path, capsys, artifact, command, token)

    @pytest.mark.parametrize(
        "artifact,command,token",
        [
            ("vocab/1930-1939.lemma.tsv", command, count)
            for command in (["analyze", "freq", "--word", "belge"], _COLLOCATIONS)
            for count in ("-5", "2_6_4")
        ],
        ids=[f"{name}-{count}" for name in ("freq", "collocations") for count in ("-5", "2_6_4")],
    )
    def test_bad_count_or_association_is_usage_error_naming_line_3(
        self, workspace, tmp_path, capsys, artifact, command, token
    ):
        _assert_line_3_error(workspace, tmp_path, capsys, artifact, command, token)


def _assert_line_3_error(workspace, tmp_path, capsys, artifact, command, token):
    """``command`` over a copy of the workspace artifacts, with the last value on line 3
    of ``artifact`` replaced by ``token``, exits 2 with one JSON line naming that line,
    nothing on stdout and no report."""
    for artifacts in ("vocab", "tokens", "embeddings", "transforms"):
        shutil.copytree(workspace / artifacts, tmp_path / artifacts)
    path = tmp_path / artifact
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(with_edge_token(lines, token)) + "\n", encoding="utf-8")
    code, out, err = run_cli(tmp_path, *command, capsys=capsys)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    payload = json.loads(err)
    assert payload["error"] == 2
    assert f"{Path(artifact).name}: line 3: " in payload["message"]
    assert not (tmp_path / "reports").exists()


class TestHeaderMismatch:
    @pytest.mark.parametrize(
        "artifact,old,new,command",
        [
            (
                "embeddings/1980-1989.svd.npz",
                "period=1980-1989", "period=1930-1939",
                ["query", "most-similar", "--word", "kanun", "--period", _L],
            ),
            (
                "embeddings/1930-1939.svd.npz",
                "provenance=svd", "provenance=cbow",
                ["query", "most-similar", "--word", "kanun", "--period", _P],
            ),
            (
                "vocab/1930-1939.lemma.tsv",
                "#period=1930-1939", "#period=1940-1949",
                ["analyze", "freq", "--word", "belge"],
            ),
            (
                "vocab/1930-1939.lemma.tsv",
                "#period=1930-1939", "#period=1940-1949",
                _COLLOCATIONS,
            ),
        ],
        ids=["store-period", "store-kind", "vocabulary-period", "vocabulary-period-collocations"],
    )
    def test_header_naming_another_artifact_is_usage_error(
        self, workspace, tmp_path, capsys, artifact, old, new, command
    ):
        """An artifact whose header (a store's 0-d string array) names another period
        or kind than its file exits 2 with one JSON line naming the file, and writes
        no report."""
        for artifacts in ("vocab", "tokens", "embeddings", "transforms"):
            shutil.copytree(workspace / artifacts, tmp_path / artifacts)
        path = tmp_path / artifact
        if path.suffix == ".npz":
            arrays = store_arrays(path)
            (key, held), (_, value) = old.split("="), new.split("=")
            assert str(arrays[key]) == held
            path.write_bytes(savez_bytes({**arrays, key: np.array(value)}))
        else:
            header, rest = path.read_text(encoding="utf-8").split("\n", 1)
            assert old in header
            path.write_text(header.replace(old, new) + "\n" + rest, encoding="utf-8")
        code, out, err = run_cli(tmp_path, *command, capsys=capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        payload = json.loads(err)
        assert payload["error"] == 2
        assert str(path) in payload["message"]
        assert new.split("=")[1] in payload["message"]
        assert not (tmp_path / "reports").exists()

    def test_vocabulary_file_name_that_is_no_period_is_usage_error(
        self, workspace, tmp_path, capsys
    ):
        shutil.copytree(workspace / "vocab", tmp_path / "vocab")
        path = tmp_path / "vocab" / "thirties.lemma.tsv"
        (tmp_path / "vocab" / "1930-1939.lemma.tsv").rename(path)
        code, out, err = run_cli(tmp_path, "analyze", "freq", "--word", "belge", capsys=capsys)
        assert code == 2
        assert out == ""
        assert str(path) in json.loads(err)["message"]
        assert not (tmp_path / "reports").exists()


class TestDuplicateRecords:
    @pytest.mark.parametrize(
        "artifact,command,message",
        [
            (
                "vocab/1930-1939.lemma.tsv",
                ["analyze", "divergence"],
                r"1930-1939\.lemma\.tsv: line 3: word '[^']+' listed twice",
            ),
            (
                "vocab/1930-1939.lemma.tsv",
                _COLLOCATIONS,
                r"1930-1939\.lemma\.tsv: line 3: word '[^']+' listed twice",
            ),
        ],
        ids=["vocabulary-divergence", "vocabulary-collocations"],
    )
    def test_duplicated_line_is_usage_error(
        self, workspace, tmp_path, capsys, artifact, command, message
    ):
        for artifacts in ("vocab", "tokens"):
            shutil.copytree(workspace / artifacts, tmp_path / artifacts)
        path = tmp_path / artifact
        lines = path.read_text(encoding="utf-8").splitlines()
        lines.insert(2, lines[1])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, err = run_cli(tmp_path, *command, capsys=capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") <= 1
        payload = json.loads(err)
        assert payload["error"] == 2
        assert re.search(message, payload["message"])
        assert not (tmp_path / "reports").exists()


_WORDS = st.text("abcçdefgğhıijklmnoöprsştuüvyzâîû", min_size=1, max_size=8)
_CELLS = st.one_of(
    _WORDS, st.integers(), st.floats(allow_nan=False, allow_infinity=False), st.none()
)


class TestWriteReport:
    @settings(max_examples=60, deadline=None)
    @given(keys=st.lists(_WORDS, min_size=1, max_size=5, unique=True), data=st.data())
    def test_csv_is_the_leading_values_and_json_the_records(self, tmp_path_factory, keys, data):
        records = data.draw(st.lists(st.fixed_dictionaries({k: _CELLS for k in keys}), max_size=6))
        header = data.draw(st.lists(_WORDS, max_size=len(keys)))
        reports = tmp_path_factory.mktemp("reports")
        text = _write_report(reports, "report", records, header)
        assert (reports / "report.json").read_text(encoding="utf-8") == text
        # the same records, keys in the same order
        assert [list(r.items()) for r in json.loads(text)] == [list(r.items()) for r in records]
        if not header:
            assert not (reports / "report.csv").exists()
            return
        width = len(header)
        csv_text = (reports / "report.csv").read_text(encoding="utf-8")
        assert csv_text == csv_table(header, [list(r.values())[:width] for r in records])
        # no value of a key past the header reaches the CSV
        assert [len(line.split(",")) for line in csv_text.splitlines()] == [width] * (
            len(records) + 1
        )


class TestDictCommand:
    def test_bundled_sample_summary(self, tmp_path, capsys):
        code, out, _ = run_cli(tmp_path, "dict", capsys=capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["entries"] == 12
        assert payload["pairs"] == 14

    def test_invalid_dictionary_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('[{"modern": "", "old": ["x"]}]', encoding="utf-8")
        code = main(
            ["--config", CONFIG, "--output-dir", str(tmp_path), "dict", "--dictionary", str(bad)]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert json.loads(captured.err)["error"] == 2


# A child that takes the output directory's lock, says so, and holds it
# until its stdin closes.
_HOLD_LOCK = """
import sys
from pathlib import Path
from diacorpus.cli import _Lock
with _Lock(Path(sys.argv[1])):
    print("locked", flush=True)
    sys.stdin.read()
"""


def _lock_holder(out: Path) -> subprocess.Popen:
    """A child process that holds the lock of ``out`` until its stdin closes."""
    child = subprocess.Popen(
        [sys.executable, "-c", _HOLD_LOCK, str(out)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=_child_env(),
    )
    assert child.stdout.readline() == "locked\n"
    return child


_SURVIVED = ("analyze", "survived", "--base-period", "1930-1939")


class TestLock:
    """The output directory's lock is held by the operating system for the
    life of the process that took it, and only a live holder blocks."""

    @pytest.fixture
    def out(self, workspace, tmp_path):
        out = tmp_path / "out"
        shutil.copytree(workspace / "vocab", out / "vocab")
        return out

    def test_live_holder_in_another_process_blocks(self, out, capsys):
        child = _lock_holder(out)
        try:
            code, stdout, err = run_cli(out, *_SURVIVED, capsys=capsys)
        finally:
            child.stdin.close()
            child.wait()
            child.stdout.close()
        assert code == 1
        assert stdout == ""
        assert err.count("\n") == 1
        payload = json.loads(err)
        assert payload["error"] == 1
        assert "holds the lock" in payload["message"]
        assert not (out / "reports").exists()
        assert run_cli(out, *_SURVIVED) == 0  # the holder has exited
        assert (out / "reports" / "survived_1930-1939.json").is_file()

    @pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs POSIX signals")
    def test_killed_holder_never_blocks(self, out):
        child = _lock_holder(out)
        os.kill(child.pid, signal.SIGKILL)
        child.wait()
        child.stdin.close()
        child.stdout.close()
        assert run_cli(out, *_SURVIVED) == 0

    def test_pid_file_of_a_live_process_does_not_block(self, out):
        """A ``.lock`` written by the PID-file protocol, naming a live process."""
        (out / ".lock").write_text(str(os.getpid()), encoding="utf-8")
        assert run_cli(out, *_SURVIVED) == 0

    def test_lock_file_stays_empty_after_run(self, out):
        assert run_cli(out, *_SURVIVED) == 0
        assert (out / ".lock").read_bytes() == b""
        assert run_cli(out, *_SURVIVED) == 0


class TestProcessSurface:
    def test_unexpected_exception_is_json_error(self, tmp_path, capsys):
        regular_file = tmp_path / "file"
        regular_file.write_text("", encoding="utf-8")
        code, out, err = run_cli(regular_file / "out", "dict", capsys=capsys)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        payload = json.loads(err)
        assert payload["error"] == 1
        assert payload["context"]["command"] == "dict"
        assert payload["context"]["exception"] == "NotADirectoryError"

    @pytest.mark.parametrize(
        "argv, code",
        [(["dict"], 0), (["analyze", "no-such-analysis"], 2),
         (["query", "most-similar", "--word", "kanun", "--period", _P], 3)],
        ids=["success", "usage error", "missing artifact"],
    )
    def test_module_entry_point(self, tmp_path, capsys, argv, code):
        """``python -m diacorpus.cli`` exits, prints and reports as ``main`` does."""
        argv = ["--config", CONFIG, "--output-dir", str(tmp_path / "out"), *argv]
        result = subprocess.run(
            [sys.executable, "-m", "diacorpus.cli", *argv],
            capture_output=True, text=True, env=_child_env(), timeout=60,
        )
        assert main(argv) == result.returncode == code
        captured = capsys.readouterr()
        assert (result.stdout, result.stderr) == (captured.out, captured.err)
        if code:
            assert result.stdout == "" and result.stderr.count("\n") == 1
            assert json.loads(result.stderr)["error"] == code
        else:
            assert json.loads(result.stdout)["entries"] == 12 and result.stderr == ""

    def test_usage_error_without_command(self):
        assert main(["--config", CONFIG]) == 2
