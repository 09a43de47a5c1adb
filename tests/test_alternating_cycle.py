"""The alternating-cycle kernel ``matching._m_alternating_cycle``.

It is held to the Kotzig peel it replaced (``peel_reference._peel``) on
every labelled graph with at most 6 vertices under each of its perfect
matchings, and on seeded random graphs with random live sets; on bipartite
input, to the acyclicity of D(M).  Each cycle it returns must alternate
inside the live vertices.  The nested-bridge family N_k
(``strategies.nested_bridges``), the peel's quadratic case, takes one
kernel call per uniqueness test and work linear in its size.
"""

import random
import sys

import pytest

from lemma_helpers import is_alternating_cycle
from peel_reference import _peel
from strategies import nested_bridges, random_graph_nm
from urmatch import matching, recognition, ur_core
from urmatch.decomposition import gallai_edmonds
from urmatch.families import cycle_graph, path_graph
from urmatch.graph_core import Graph
from urmatch.matching import InternalCheckError, _m_alternating_cycle, _max_match_array, unique_perfect_matching
from urmatch.oracle import (
    count_perfect_matchings,
    enumerate_labeled_graphs,
    enumerate_matchings,
    oracle_every_ur,
    oracle_some_ur,
)
from urmatch.recognition import every_ur, some_ur
from urmatch.ur_core import _arcs, is_acyclic, is_uniquely_restricted


def _check(adj, match, alive, live):
    """The kernel on the vertices in ``live`` (ascending), held to the
    peel; a cycle must alternate under ``match`` inside ``live``."""
    cycle = _m_alternating_cycle(adj, match, alive, live)
    assert (cycle is None) == (not _peel(adj, match, alive, live))
    if cycle is not None:
        assert is_alternating_cycle(adj, match, cycle)
        assert set(cycle) <= set(live)
    return cycle


def _perfect_matchings(g):
    for edges in enumerate_matchings(g).all_matchings:
        if 2 * len(edges) == g.n:
            match = [-1] * g.n
            for u, v in edges:
                match[u], match[v] = v, u
            yield match


def test_kernel_equals_the_peel_under_every_perfect_matching_exhaustive():
    seen = set()
    for n in range(0, 7, 2):
        for g in enumerate_labeled_graphs(n):
            for match in _perfect_matchings(g):
                seen.add(_check(g.adj, match, [True] * n, list(range(n))) is None)
    assert seen == {True, False}


def test_kernel_equals_the_peel_on_random_graphs_and_live_sets():
    # live sets closed under the matching, from nearly empty to all of the
    # matched vertices
    rng = random.Random(26)
    seen = set()
    for _ in range(1200):
        n = rng.randrange(2, 61)
        g = random_graph_nm(n, min(rng.choice((n, 3 * n // 2, 2 * n, 3 * n)), n * (n - 1) // 2), rng)
        match = _max_match_array(g)
        keep = rng.random()
        alive = [False] * n
        for v, w in enumerate(match):
            if v < w and rng.random() < keep:
                alive[v] = alive[w] = True
        live = [v for v in range(n) if alive[v]]
        seen.add(_check(g.adj, match, alive, live) is None)
    assert seen == {True, False}


def test_small_live_sets_of_a_large_graph():
    # 500 disjoint copies of a 4-cycle with a pendant edge at each of two
    # opposite corners, matched by the pendants: the kernel visits only a
    # live set, here one copy's cycle, under 1/128 of the graph
    edges, match = [], []
    for c in range(500):
        a, b, x, y, p, q = range(6 * c, 6 * c + 6)
        edges += [(a, b), (b, x), (x, y), (y, a), (a, p), (x, q)]
        match += [b, a, y, x, -1, -1]
    g = Graph.from_edges(3000, edges)
    alive = [v % 6 < 4 for v in range(3000)]
    for c in (0, 7, 499):
        live = list(range(6 * c, 6 * c + 4))
        cycle = _check(g.adj, match, alive, live)
        assert cycle is not None and sorted(cycle) == live
    pendants = [v for v in range(12) if v % 6 in (0, 2, 4, 5)]  # a-p and x-q in copies 0 and 1
    pm = [4, -1, 5, -1, 0, 2, 10, -1, 11, -1, 6, 8] + [-1] * 2988
    assert _check(g.adj, pm, [v in pendants for v in range(3000)], pendants) is None


def test_c_test_calls_each_other_component_on_its_own_copy(monkeypatch):
    # 400 C components, none with a vertex of degree 1, so that the seed
    # forces no pair: every 50th is a 4-cycle, with two perfect matchings,
    # and the others paths a-b-x-y with a triangle hung at a and at y,
    # with one
    edges, cycles = [], []
    for c in range(400):
        a, b, x, y, p, q, r, s = range(8 * c, 8 * c + 8)
        edges += [(a, b), (b, x), (x, y)]
        if c % 50 == 3:
            cycles.append(a)
            edges.append((y, a))
        else:
            edges += [(a, p), (p, q), (q, a), (y, r), (r, s), (s, y)]
    g = Graph.from_edges(3200, edges)
    sizes = []
    real = recognition._m_alternating_cycle
    monkeypatch.setattr(recognition, "_m_alternating_cycle",
                        lambda adj, *rest: sizes.append(len(adj)) or real(adj, *rest))
    ge = gallai_edmonds(g)
    assert len(ge.c_members) == 400 and ge.forced.count(-1) == g.n
    left = recognition._c_left(g, ge)
    assert left == {-4 - ge.comp[a] for a in cycles}
    assert left == {-4 - ge.comp[v] for v in _peel(g.adj, ge.match, [c <= -4 for c in ge.comp])}
    # the first call spans the graph, each later one only its component
    assert sizes[0] == g.n and len(sizes) == 400 and max(sizes[1:]) == 8


def test_kernel_equals_acyclic_dm_on_bipartite_graphs():
    # on a bipartite graph an M-alternating cycle is a directed cycle of
    # D(M), restricted here to the vertices that M covers
    rng = random.Random(260)
    seen = set()
    for _ in range(600):
        a, b, p = rng.randrange(1, 20), rng.randrange(1, 20), rng.choice((0.1, 0.2, 0.35))
        g = Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b) if rng.random() < p])
        match = _max_match_array(g)
        alive = [m != -1 for m in match]
        adj = [[w for w in row if alive[w]] if alive[v] else [] for v, row in enumerate(g.adj)]
        acyclic = is_acyclic(_arcs(adj, [v < a for v in range(g.n)], match, True))
        live = [v for v in range(g.n) if alive[v]]
        assert (_check(g.adj, match, alive, live) is None) == acyclic
        seen.add(acyclic)
    assert seen == {True, False}


def test_dumbbell_arc_cycle_is_no_alternating_cycle():
    # two 5-cycles on 0-4 and 7-11 joined by the path 0-5-6-7, with 0-5 and
    # 6-7 matched: one perfect matching, although the digraph with an arc
    # u -> match[w] per non-matching edge uw has a directed cycle through 0
    # and its mate 5
    edges = [(i, (i + 1) % 5) for i in range(5)] + [(7 + i, 7 + (i + 1) % 5) for i in range(5)]
    g = Graph.from_edges(12, [*edges, (0, 5), (5, 6), (6, 7)])
    match = [5, 2, 1, 4, 3, 0, 7, 6, 9, 8, 11, 10]
    assert g.n == 12 and count_perfect_matchings(g) == 1
    arcs = {(u, match[w]) for u in range(12) for w in g.adj[u] if w != match[u]}
    walk = [0, 2, 4, 5, 7, 9, 11, 6]
    assert all((u, v) in arcs for u, v in zip(walk, walk[1:] + walk[:1]))
    assert {0, match[0]} <= set(walk)
    assert _check(g.adj, match, [True] * 12, list(range(12))) is None
    assert unique_perfect_matching(g) is not None


def test_kernel_leaves_its_arguments_alone_and_checks_its_input():
    g = cycle_graph(6)
    match = (1, 0, 3, 2, 5, 4)
    alive = [True] * 6
    cycle = _m_alternating_cycle(g.adj, match, alive, range(6))
    assert is_alternating_cycle(g.adj, match, cycle)
    assert match == (1, 0, 3, 2, 5, 4) and alive == [True] * 6
    # masked vertices are not there: the path 1-2-3-4 of C6
    assert _m_alternating_cycle(g.adj, [-1, 2, 1, 4, 3, -1], [0 < v < 5 for v in range(6)], [1, 2, 3, 4]) is None
    # a matching that is not perfect on the live vertices is refused
    with pytest.raises(InternalCheckError, match="not perfect"):
        _m_alternating_cycle(path_graph(4).adj, [1, 0, -1, -1], [True] * 4, range(4))


def test_every_returned_cycle_is_checked(monkeypatch):
    g = cycle_graph(6)
    match = [1, 0, 3, 2, 5, 4]
    for bogus in ([0, 1, 2, 3], [0, 1, 2, 3, 4, 5, 0, 1], [1, 0, 3, 2, 5, 4]):
        monkeypatch.setattr(matching, "_cycle_or_none", lambda *args, c=bogus: c)
        with pytest.raises(InternalCheckError, match="does not alternate"):
            _m_alternating_cycle(g.adj, match, [True] * 6, range(6))
    # a cycle outside the live vertices is refused too
    monkeypatch.setattr(matching, "_cycle_or_none", lambda *args: [0, 1, 2, 3, 4, 5])
    with pytest.raises(InternalCheckError, match="does not alternate"):
        _m_alternating_cycle(g.adj, match, [True] * 6, range(5))


def test_nested_bridges_have_one_perfect_matching():
    for k in range(4):
        g = nested_bridges(k, k)
        assert g.n == 4 * k + 6 and min(map(len, g.adj)) == 2
        assert count_perfect_matchings(g, max_n=18, max_m=25) == 1
        assert unique_perfect_matching(g) is not None


def test_nested_bridges_answers_agree_with_the_oracle():
    for k in range(3):
        for seed in range(3):
            g = nested_bridges(k, seed)
            some, every = some_ur(g), every_ur(g)
            assert some.answer and every.answer
            assert (some.answer, every.answer) == (oracle_some_ur(g), oracle_every_ur(g))
            assert is_uniquely_restricted(g, some.witness)


def test_nested_bridges_take_one_kernel_call_per_test(monkeypatch):
    calls = []
    for module in (matching, recognition, ur_core):
        real = module._m_alternating_cycle
        monkeypatch.setattr(module, "_m_alternating_cycle",
                            lambda adj, match, alive, live, m=module.__name__, f=real:
                            calls.append(m) or f(adj, match, alive, live))
    g = nested_bridges(500, 1)
    ge = gallai_edmonds(g)
    assert len(ge.c_members) == 1 and -1 not in ge.match and ge.forced.count(-1) == g.n
    r = some_ur(g, ge=ge)
    assert r.answer and calls == ["urmatch.recognition"]
    calls.clear()
    assert unique_perfect_matching(g) is not None and calls == ["urmatch.matching"]
    calls.clear()
    assert is_uniquely_restricted(g, r.witness) and calls == ["urmatch.ur_core"]


def _kernel_lines(g):
    """The lines of Python that one kernel call runs on g under its unique
    perfect matching, in every function it calls: the searches, the
    blossom walks of ``_shrink`` and ``_walk`` and the union-find steps."""
    match = _max_match_array(g)
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        count += event == "line"
        return trace

    before = sys.gettrace()
    sys.settrace(trace)
    try:
        cycle = _m_alternating_cycle(g.adj, match, [True] * g.n, range(g.n))
    finally:
        sys.settrace(before)
    assert cycle is None
    return count


def test_kernel_work_on_nested_bridges_is_linear():
    # the peel ran k + 1 bridge searches over all that was left; the
    # kernel runs 60 to 170 lines per vertex at each of these sizes, where
    # a quadratic one would run 16 times as many per vertex at the largest
    for seed in (1, 2):
        for k in (250, 1000, 4000):
            assert _kernel_lines(nested_bridges(k, seed)) < 250 * (4 * k + 6)
