"""The alternating-cycle kernel ``matching._m_alternating_cycle``.

It is held to the Kotzig peel it replaced (``peel_reference._peel``) on
every labelled graph with at most 6 vertices under each of its perfect
matchings, and on seeded random graphs with random live sets; on bipartite
input, to the acyclicity of D(M).  Each cycle it returns must alternate
inside the live vertices.  The nested-bridge family N_k
(``strategies.nested_bridges``), the peel's quadratic case, takes one
kernel call per uniqueness test and work linear in its size.  The
settled-pair pass (``matching._settle_pairs``) takes out only pairs that
every perfect matching holds, and it leaves nothing of a tree with pendant
triangles, so the C test there runs no Edmonds search.
"""

import inspect
import random
import sys

import pytest
from hypothesis import given, settings

from lemma_helpers import is_alternating_cycle
from peel_reference import _peel
from strategies import corona, graphs, linear_triangle_tree, nested_bridges, random_graph_nm, random_tree_edges
from urmatch import matching, recognition, ur_core
from urmatch.decomposition import gallai_edmonds
from urmatch.families import cycle_graph, path_graph
from urmatch.graph_core import Graph, induced_subgraph
from urmatch.matching import (
    _DEAD_ODD,
    _UNLABELLED,
    InternalCheckError,
    _m_alternating_cycle,
    _max_match_array,
    _settle_pairs,
    unique_perfect_matching,
)
from urmatch.oracle import (
    count_perfect_matchings,
    enumerate_labeled_graphs,
    enumerate_matchings,
    oracle_every_ur,
    oracle_some_ur,
)
from urmatch.recognition import every_ur, some_ur
from urmatch.ur_core import _arcs, is_acyclic, is_uniquely_restricted


def _check(adj, match, live):
    """The kernel on the vertices in ``live`` (ascending), held to the
    peel; a cycle must alternate under ``match`` inside ``live``."""
    cycle = _m_alternating_cycle(adj, match, live)
    alive = [False] * len(adj)
    for v in live:
        alive[v] = True
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
                seen.add(_check(g.adj, match, list(range(n))) is None)
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
        seen.add(_check(g.adj, match, live) is None)
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
    for c in (0, 7, 499):
        live = list(range(6 * c, 6 * c + 4))
        cycle = _check(g.adj, match, live)
        assert cycle is not None and sorted(cycle) == live
    pendants = [v for v in range(12) if v % 6 in (0, 2, 4, 5)]  # a-p and x-q in copies 0 and 1
    pm = [4, -1, 5, -1, 0, 2, 10, -1, 11, -1, 6, 8] + [-1] * 2988
    assert _check(g.adj, pm, pendants) is None


def test_c_test_takes_one_kernel_call(monkeypatch):
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
    real = matching._m_alternating_cycle
    monkeypatch.setattr(matching, "_m_alternating_cycle",
                        lambda adj, match, live: sizes.append((len(adj), len(live))) or real(adj, match, live))
    ge = gallai_edmonds(g)
    assert len(ge.c_members) == 400 and ge.forced.count(-1) == g.n
    failing = {-4 - ge.comp[a] for a in cycles}
    assert len(failing) == 8
    assert failing == {-4 - ge.comp[v] for v in _peel(g.adj, ge.match, [c <= -4 for c in ge.comp])}
    # one call, over all of C on g's arrays, names one of the 4-cycles
    failure = recognition._c_failure(g, ge)
    assert failure in failing
    assert sizes == [(g.n, sum(map(len, ge.c_members)))]
    # the deciders read the memo
    assert some_ur(g, ge=ge).failure == every_ur(g, ge=ge).failure == "c_component_pm_not_unique"
    assert len(sizes) == 1


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
        assert (_check(g.adj, match, live) is None) == acyclic
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
    assert _check(g.adj, match, list(range(12))) is None
    assert unique_perfect_matching(g) is not None


def test_kernel_leaves_its_arguments_alone_and_checks_its_input():
    g = cycle_graph(6)
    match = [1, 0, 3, 2, 5, 4]
    cycle = _m_alternating_cycle(g.adj, match, range(6))
    assert is_alternating_cycle(g.adj, match, cycle)
    assert match == [1, 0, 3, 2, 5, 4]
    # vertices outside ``live`` are not there: the path 1-2-3-4 of C6
    assert _m_alternating_cycle(g.adj, [-1, 2, 1, 4, 3, -1], [1, 2, 3, 4]) is None
    # a matching that is not perfect on the live vertices is refused
    with pytest.raises(InternalCheckError, match="not perfect"):
        _m_alternating_cycle(path_graph(4).adj, [1, 0, -1, -1], range(4))


def test_every_returned_cycle_is_checked(monkeypatch):
    g = cycle_graph(6)
    match = [1, 0, 3, 2, 5, 4]
    for bogus in ([0, 1, 2, 3], [0, 1, 2, 3, 4, 5, 0, 1], [1, 0, 3, 2, 5, 4]):
        monkeypatch.setattr(matching, "_cycle_or_none", lambda *args, c=bogus: c)
        with pytest.raises(InternalCheckError, match="does not alternate"):
            _m_alternating_cycle(g.adj, match, range(6))
    # a cycle outside the live vertices is refused too
    monkeypatch.setattr(matching, "_cycle_or_none", lambda *args: [0, 1, 2, 3, 4, 5])
    with pytest.raises(InternalCheckError, match="does not alternate"):
        _m_alternating_cycle(g.adj, match, range(5))


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
                            lambda adj, match, live, m=module.__name__, f=real:
                            calls.append(m) or f(adj, match, live))
    g = nested_bridges(500, 1)
    ge = gallai_edmonds(g)
    assert len(ge.c_members) == 1 and -1 not in ge.match and ge.forced.count(-1) == g.n
    r = some_ur(g, ge=ge)
    assert r.answer and calls == ["urmatch.matching"]  # the C test's, in _unforced_cycle
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
        cycle = _m_alternating_cycle(g.adj, match, range(g.n))
    finally:
        sys.settrace(before)
    assert cycle is None
    return count


def test_kernel_work_on_nested_bridges_is_linear():
    # the peel ran k + 1 bridge searches over all that was left; the
    # kernel runs about 54 lines per vertex at each of these sizes, where
    # a quadratic one would run 16 times as many per vertex at the largest
    for seed in (1, 2):
        for k in (250, 1000, 4000):
            assert _kernel_lines(nested_bridges(k, seed)) < 250 * (4 * k + 6)


def test_edmonds_phase_work_on_nested_bridges_is_linear(monkeypatch):
    # the settled-pair pass clears N_k; without it the Edmonds phase
    # settles the nesting at the contracted level, in 60 to 170 lines per
    # vertex at each of these sizes
    monkeypatch.setattr(matching, "_settle_pairs", lambda adj, match, label, live: len(live))
    for seed in (1, 2):
        for k in (250, 1000, 4000):
            assert _kernel_lines(nested_bridges(k, seed)) < 250 * (4 * k + 6)


def _settled(adj, match, live):
    """The vertices that ``_settle_pairs`` takes out of play among ``live``,
    on labels as the kernel sets them; the count of those it leaves in
    play, which it returns, is checked."""
    label = [_DEAD_ODD] * len(adj)
    for v in live:
        label[v] = _UNLABELLED
    left = _settle_pairs(adj, match, label, live)
    out = {v for v in live if label[v] != _UNLABELLED}
    assert left == len(live) - len(out)
    return out


def _matched_live(g, rng=None):
    """A maximum matching of g and the vertices it covers, or a random
    part of them closed under the matching."""
    match = _max_match_array(g)
    kept = {v for v, w in enumerate(match) if w > v and (rng is None or rng.random() < 0.8)}
    return match, sorted(kept | {match[v] for v in kept})


@settings(deadline=None, max_examples=300)
@given(graphs(max_n=10))
def test_settled_pairs_lie_in_every_perfect_matching(g):
    # each pair that leaves is in every perfect matching of the live
    # vertices, so no alternating cycle uses it; the kernel with the pass
    # equals the peel
    match, live = _matched_live(g)
    settled = _settled(g.adj, match, live)
    sub, back = induced_subgraph(g, live)
    pos = {v: i for i, v in enumerate(back)}
    for x in settled:
        y = match[x]
        assert y in settled
        if x < y:
            without = Graph.from_edges(sub.n, sub.edges - {(pos[x], pos[y])})
            assert count_perfect_matchings(without, max_n=10, max_m=45) == 0
    _check(g.adj, match, live)


def _chorded(g, chords, rng):
    """g with ``chords`` random extra edges."""
    edges = set(g.edges)
    while len(edges) < g.m + chords:
        u, v = rng.sample(range(g.n), 2)
        edges.add((min(u, v), max(u, v)))
    return Graph.from_edges(g.n, edges)


def test_kernel_equals_the_peel_on_chorded_triangle_trees_and_coronas():
    # trees with pendant triangles and tree coronas, which the pass clears,
    # with a few chords, which leave it cycles to keep
    rng = random.Random(34)
    seen, cleared = set(), 0
    for _ in range(150):
        n = rng.randrange(4, 40)
        base = linear_triangle_tree(n, 0.25, rng) if rng.random() < 0.5 else \
            corona(Graph.from_edges(n, random_tree_edges(n, rng)))
        g = _chorded(base, rng.choice((0, 1, 2, 4, 8)), rng)
        match, live = _matched_live(g, rng)
        settled = _settled(g.adj, match, live)
        cleared += settled == set(live)
        seen.add(_check(g.adj, match, live) is None)
    assert seen == {True, False} and cleared > 10


def _edmonds_lines(call):
    """The lines of ``_cycle_or_none``'s Edmonds phase, from the test of
    its first matched edge on, that ``call()`` runs."""
    lines, start = inspect.getsourcelines(matching._cycle_or_none)
    first = start + next(i for i, line in enumerate(lines) if "t = match[r]" in line)
    code, hits = matching._cycle_or_none.__code__, []

    def trace(frame, event, arg):
        if frame.f_code is not code:
            return None
        if event == "line" and frame.f_lineno >= first:
            hits.append(frame.f_lineno)
        return trace

    before = sys.gettrace()
    sys.settrace(trace)
    try:
        call()
    finally:
        sys.settrace(before)
    return hits


def test_c_test_on_triangle_trees_runs_no_edmonds_search(monkeypatch):
    # C of a tree with pendant triangles has no even cycle: its pendant
    # triangles' pairs and then its tree pairs, from the leaves in, leave
    # play, and the kernel returns before its Edmonds phase
    left = []
    monkeypatch.setattr(matching, "_settle_pairs",
                        lambda *args: left.append(_settle_pairs(*args)) or left[-1])
    live_sizes = []
    for n in (100, 400, 1600):
        g = linear_triangle_tree(n, 0.25, random.Random(n))
        ge = gallai_edmonds(g)
        live_sizes.append(sum(c <= -4 and ge.forced[v] == -1 for v, c in enumerate(ge.comp)))
        assert _edmonds_lines(lambda: recognition._c_failure(g, ge)) == []
        assert ge.upms["c"] is None
    assert min(live_sizes) > 0 and left == [0] * 3
    # where pairs stay in play the phase runs: the dumbbell of two 5-cycles
    # joined by the path 0-5-6-7, whose every pair sees two vertices
    edges = [(i, (i + 1) % 5) for i in range(5)] + [(7 + i, 7 + (i + 1) % 5) for i in range(5)]
    g = Graph.from_edges(12, [*edges, (0, 5), (5, 6), (6, 7)])
    match = [5, 2, 1, 4, 3, 0, 7, 6, 9, 8, 11, 10]
    assert _settled(g.adj, match, range(12)) == set()
    assert _edmonds_lines(lambda: _m_alternating_cycle(g.adj, match, range(12))) != []


def test_pendant_triangle_pair_settles_and_a_pair_seeing_two_vertices_does_not():
    # the 4-cycle 0-1-2-3 matched 0-1 and 2-3, with the triangle 0-4-5
    # hung at 0 and matched 4-5: the pair 4-5 sees only 0 outside it, the
    # 4-cycle's pairs each see two vertices and carry its alternating cycle
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (0, 5), (4, 5)])
    match = [1, 0, 3, 2, 5, 4]
    assert _settled(g.adj, match, range(6)) == {4, 5}
    assert sorted(_check(g.adj, match, list(range(6)))) == [0, 1, 2, 3]
    # a pair whose ends each see one vertex outside it settles when it is
    # the same one: 0-1 in the triangle 0-1-2 with the pendant edge 2-3,
    # and then 2-3, which sees nothing; it stays when they differ, as 0-1
    # in the 4-cycle 0-1-3-2 matched 0-1 and 2-3
    tri = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    assert _settled(tri.adj, [1, 0, 3, 2], range(4)) == {0, 1, 2, 3}
    square = Graph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert _settled(square.adj, [1, 0, 3, 2], range(4)) == set()
    # a pendant edge settles, and what it leaves settles after it: the path
    # P_6 matched as its unique perfect matching
    assert _settled(path_graph(6).adj, [1, 0, 3, 2, 5, 4], range(6)) == set(range(6))
