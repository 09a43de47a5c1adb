"""A graph is its adjacency: no decider, and no ``check`` run, builds the
``edges`` view of the graph, or a graph for gb.  The samples come from the
benchmark's four workload shapes."""

import functools
import importlib.util
import sys
from pathlib import Path

import pytest

from urmatch import cli
from urmatch.decomposition import gallai_edmonds
from urmatch.graph_core import Graph
from urmatch.recognition import allowed_edges, every_ur, some_ur

GEN = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"


@functools.cache
def _load_gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up
    spec.loader.exec_module(module)
    return module


def _sample(workload: str):
    """Every instance of the smaller workloads at seed 1, about 24 of the
    larger ones."""
    instances = _load_gen().WORKLOADS[workload](1)
    return instances[::max(1, len(instances) // 24)]


WORKLOADS = ["sparse_random", "rigid_chains", "triangle_trees", "small_exhaustive"]


def _assert_no_edge_view(g, ge):
    assert "edges" not in vars(g)
    assert not [v for v in vars(ge).values() if isinstance(v, Graph)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_deciders_build_no_edge_view(workload):
    for inst in _sample(workload):
        g = Graph.from_edges(inst.n, inst.edges)
        ge = gallai_edmonds(g)
        for decide in (some_ur, every_ur):
            decide(g, ge=ge, all_failures=True)
            _assert_no_edge_view(g, ge)
        allowed_edges(g, ge)
        _assert_no_edge_view(g, ge)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_check_builds_no_edge_view(workload, tmp_path, capsys, monkeypatch):
    seen = []
    parse_graph = cli.parse_graph

    def parse(text):
        seen.append(parse_graph(text))
        return seen[-1]

    def decompose(g):
        seen.append(gallai_edmonds(g))
        return seen[-1]

    monkeypatch.setattr(cli, "parse_graph", parse)
    monkeypatch.setattr(cli, "gallai_edmonds", decompose)
    path = tmp_path / "g.txt"
    for inst in _sample(workload):
        path.write_text(f"n {inst.n}\n" + "".join(f"{u} {v}\n" for u, v in inst.edges), encoding="utf-8")
        seen.clear()
        assert cli.main(["check", str(path), "--property", "both", "--json"]) == 0
        g, ge = seen
        _assert_no_edge_view(g, ge)
    capsys.readouterr()
