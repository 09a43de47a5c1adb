"""The benchmark's traced run looks library functions up by name: every name
it traces must exist, or ``perfbench/run.py --trace 1`` fails."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    spans = _load_spans()
    missing = [
        f"{mod}.{attr}"
        for mod, attr in spans.TRACED
        if not callable(getattr(importlib.import_module(f"urmatch.{mod}"), attr, None))
    ]
    assert missing == []
    # Graph.from_edges is traced as a classmethod
    graph_cls = importlib.import_module("urmatch.graph_core").Graph
    assert isinstance(graph_cls.__dict__["from_edges"], classmethod)
    assert spans.FROM_EDGES == "graph_core.Graph.from_edges"
