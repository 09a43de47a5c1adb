"""Tests of the benchmark's own code: generators, workloads and output.

Run with ``python3 -m pytest perfbench/test_perfbench.py``.
"""

from __future__ import annotations

import json
import random
import sys
from collections import deque
from pathlib import Path

import pytest

import gen
import run
import spans

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _check_simple(n, edges):
    assert all(0 <= u < v < n for u, v in edges)
    assert len(set(edges)) == len(edges)


def _connected(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    queue = deque([0])
    while queue:
        for w in adj[queue.popleft()]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == n


@pytest.mark.parametrize("name", sorted(gen.WORKLOADS))
def test_workloads_are_deterministic_per_seed(name):
    assert gen.WORKLOADS[name](7) == gen.WORKLOADS[name](7)


@pytest.mark.parametrize("name", sorted(gen.WORKLOADS))
def test_workloads_change_with_the_seed(name):
    assert gen.WORKLOADS[name](1) != gen.WORKLOADS[name](2)


def test_gnm_counts():
    for n, m in ((32, 48), (200, 300), (1000, 1500)):
        got_n, edges = gen.gnm(n, m, random.Random(n))
        assert got_n == n and len(edges) == m
        _check_simple(n, edges)
    with pytest.raises(ValueError):
        gen.gnm(10, 20, random.Random(0))


@pytest.mark.parametrize("n", [1, 2, 3, 10, 257])
def test_random_tree_is_a_spanning_tree(n):
    got_n, edges = gen.random_tree(n, random.Random(n))
    assert got_n == n and len(edges) == n - 1
    _check_simple(n, edges)
    assert _connected(n, edges)


def test_random_tree_reaches_every_shape_on_four_vertices():
    # 16 labelled trees on 4 vertices (Cayley); Pruefer decoding is a bijection
    rng = random.Random(0)
    shapes = {frozenset(gen.random_tree(4, rng)[1]) for _ in range(2000)}
    assert len(shapes) == 16


def test_corona_path_cycle_counts():
    n, edges = gen.corona(*gen.random_tree(50, random.Random(0)))
    assert n == 100 and len(edges) == 99
    _check_simple(n, [(min(e), max(e)) for e in edges])
    assert _connected(n, edges)
    assert gen.path(8) == (8, [(i, i + 1) for i in range(7)])
    n, edges = gen.cycle(9)
    assert n == 9 and len(edges) == 9 and _connected(n, edges)
    _check_simple(n, edges)


def test_triangle_tree_counts():
    n, edges = gen.triangle_tree(40, 0.25, random.Random(3))
    assert n == 40 + 2 * 10 and len(edges) == 39 + 3 * 10
    _check_simple(n, edges)
    assert _connected(n, edges)


def test_all_graphs_count():
    assert [sum(1 for _ in gen.all_graphs(n)) for n in range(5)] == [1, 1, 2, 8, 64]


def test_workload_shapes():
    sizes = {}
    for inst in gen.sparse_random(0):
        sizes[inst.label] = sizes.get(inst.label, 0) + 1
        assert len(inst.edges) == 3 * inst.n // 2
    assert sizes == {f"gnm_{n}": c for n, c in gen.SPARSE_LADDER}
    for inst in gen.rigid_chains(0):
        kind, size = inst.label.split("_")
        assert inst.n == int(size)
        assert len(inst.edges) == {"path": inst.n - 1, "corona": inst.n - 1, "cycle": inst.n}[kind]
        assert inst.n % 2 == (1 if kind == "cycle" else 0)
    exhaustive = [i for i in gen.small_exhaustive(0) if i.label.startswith("all_")]
    assert len(exhaustive) == sum(2 ** (n * (n - 1) // 2) for n in range(gen.SMALL_NMAX + 1))


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(gen.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == spans.LAYER_UNITS


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink the workloads, keep span files out of the tree, and restore
    sys.path and the urmatch modules that the benchmark re-imports."""
    monkeypatch.setattr(gen, "RIGID_SIZES", (10, 20))
    monkeypatch.setattr(gen, "SMALL_NMAX", 3)
    monkeypatch.setattr(gen, "SMALL_RANDOM", 3)
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_REPS", 2)
    monkeypatch.setattr(sys, "path", list(sys.path))
    saved = {k: sys.modules[k] for k in run._urmatch_modules()}
    yield tmp_path
    for k in run._urmatch_modules():
        del sys.modules[k]
    sys.modules.update(saved)


def _run(capsys, *argv):
    assert run.main(list(argv)) == 0
    lines = capsys.readouterr().out.splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", ["rigid_chains", "small_exhaustive"])
def test_end_to_end_output(tiny, capsys, workload):
    lines, result = _run(capsys, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.E2E_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = dict(run.E2E_UNITS, error_rate="ratio")
    if workload == "small_exhaustive":
        printed["selftest_s"] = "s"
    for name, unit in printed.items():
        assert any(line.startswith(name + " ") and f" {unit}" in line for line in lines[:-1]), name


def test_traced_output(tiny, capsys):
    lines, result = _run(capsys, "--workload", "small_exhaustive", "--seed", "3",
                         "--seconds", "1", "--trace", "1")
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spans.LAYER_UNITS
    for name, unit in spans.LAYER_UNITS.items():
        assert any(line.startswith(name + " ") and line.endswith(f" {unit}") for line in lines), name
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["oracle.oracle_some_ur.s"] > 0
    assert metrics["decomposition.gallai_edmonds.s"] >= metrics["decomposition.gallai_edmonds.self_s"] > 0
    assert 0 < metrics["graph_core.induced_subgraph.kept_frac"] <= 1
    table = (tiny / "spans-small_exhaustive-3.tsv").read_text().splitlines()
    assert table[0].split("\t") == ["id", "name", "start", "end", "parent", "graph"]
    assert len(table) > 1


def test_tracer_restores_the_library(tiny):
    sys.path.insert(0, str(run.SRC))
    cli = run._import_urmatch()
    recognition = sys.modules["urmatch.recognition"]
    graph_cls = sys.modules["urmatch.graph_core"].Graph
    before = (recognition.some_ur, recognition.unique_perfect_matching,
              graph_cls.__dict__["from_edges"], cli.parse_graph)
    tracer = spans.Tracer()
    with tracer:
        assert recognition.some_ur is not before[0]
        g = graph_cls.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert tracer.call(spans.CHECK, recognition.some_ur, g).answer
    after = (recognition.some_ur, recognition.unique_perfect_matching,
             graph_cls.__dict__["from_edges"], cli.parse_graph)
    assert after == before
    calls, total, self_total = tracer.totals()
    assert calls[spans.CHECK] == 1 and calls["recognition.some_ur"] == 1
    assert calls["decomposition.gallai_edmonds"] == 1
    assert total[spans.CHECK] >= total["recognition.some_ur"] >= self_total["recognition.some_ur"]
