"""The benchmark tracer's wrap points must stay on the CLI's call path.

``benchmark/trace_cli.py`` times layers by replacing module attributes from
outside the package. A refactor that renames such an attribute, or stops
calling through it, would make a ``--trace 1`` run crash or silently lose
spans, so every target is wrapped here and must be reached by the canonical
end-to-end flow, except the one listed below that no command calls.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from diacorpus import embeddings

from conftest import FIXTURES
from e2e_flow import run_flow

TRACE_CLI = Path(__file__).resolve().parent.parent / "benchmark" / "trace_cli.py"


def _load_trace_cli():
    spec = importlib.util.spec_from_file_location("trace_cli", TRACE_CLI)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_is_reached_by_the_cli(tmp_path, monkeypatch):
    trace_cli = _load_trace_cli()
    assert isinstance(embeddings._DENSE_SVD_LIMIT, int)
    tracer = trace_cli.Tracer()
    targets = set()
    for module, attr, _, counts in trace_cli.TARGETS:
        target = f"{module.__name__}.{attr}"
        assert callable(getattr(module, attr, None)), f"{target} no longer exists"
        # one span name per target, so a sibling sharing a layer name cannot hide it
        monkeypatch.setattr(module, attr, tracer.wrap(getattr(module, attr), target, counts))
        targets.add(target)
    run_flow(str(FIXTURES / "fixture_config.json"), str(tmp_path))
    reached = {span[2] for span in tracer.spans}
    # no command reads the PPMI export back (each rebuilds the matrix from token
    # ids), so the tracer's `embeddings.ppmi_read` target is never reached; it
    # must still exist, since a traced run looks every target up by name
    assert targets - reached == {"diacorpus.embeddings.read_ppmi"}
