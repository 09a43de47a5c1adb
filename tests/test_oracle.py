import gc
import math
import sys
from collections import Counter

import pytest
from hypothesis import given, settings

from strategies import graphs
from urmatch import oracle, selftest
from urmatch.families import complete_graph, cycle_graph, path_graph, petersen_graph, star_graph
from urmatch.graph_core import Graph, induced_subgraph
from urmatch.matching import Matching
from urmatch.selftest import _random_instances
from urmatch.oracle import (
    GuardLimitError,
    _maximum_ur_profile,
    count_perfect_matchings,
    enumerate_labeled_graphs,
    enumerate_matchings,
    oracle_every_ur,
    oracle_is_ur,
    oracle_some_ur,
)


def _is_matching(edges):
    covered = [v for e in edges for v in e]
    return len(covered) == len(set(covered))


def test_enumerate_matchings_p3():
    enum = enumerate_matchings(path_graph(3))
    assert set(enum.all_matchings) == {frozenset(), frozenset({(0, 1)}), frozenset({(1, 2)})}
    assert enum.maximum_size == 1
    assert len(enum.maximum_matchings) == 2


def test_petersen_counts():
    # frozen: derived by this enumerator and double-checked against the
    # matching polynomial of the Petersen graph
    enum = enumerate_matchings(petersen_graph())
    assert len(enum.all_matchings) == 332
    assert enum.maximum_size == 5
    assert len(enum.maximum_matchings) == 6
    assert count_perfect_matchings(petersen_graph()) == 6


def test_enumerations_leave_no_reference_cycle():
    # the recursions take their state as arguments, so a call leaves no
    # garbage that only the cycle collector could free
    g = petersen_graph()
    gc.collect()
    gc.disable()
    try:
        enumerate_matchings(g)
        count_perfect_matchings(g)
        _maximum_ur_profile(g, 16, 24)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_count_perfect_matchings_families():
    assert count_perfect_matchings(cycle_graph(6)) == 2
    assert count_perfect_matchings(cycle_graph(5)) == 0
    assert count_perfect_matchings(path_graph(4)) == 1
    # K_{2k} has (2k-1)!! perfect matchings
    for k in (1, 2, 3):
        expected = math.prod(range(1, 2 * k, 2))
        assert count_perfect_matchings(complete_graph(2 * k)) == expected


@settings(deadline=None, max_examples=150)
@given(graphs(max_n=7))
def test_enumeration_is_sound_and_complete(g):
    enum = enumerate_matchings(g)
    seen = set(enum.all_matchings)
    assert len(seen) == len(enum.all_matchings)
    for edges in enum.all_matchings:
        assert edges <= g.edges and _is_matching(edges)
    for edges in enum.maximum_matchings:
        assert len(edges) == enum.maximum_size
    # downward closed: dropping any edge of a matching stays enumerated
    for edges in enum.all_matchings:
        for e in edges:
            assert edges - {e} in seen


def test_oracle_is_ur_by_definition():
    g = cycle_graph(4)
    m = Matching.from_edges(g, [(0, 1)])
    assert oracle_is_ur(g, m)
    m2 = Matching.from_edges(g, [(0, 1), (2, 3)])
    assert not oracle_is_ur(g, m2)  # the swap (1,2),(3,0) covers the same set
    assert oracle_is_ur(g, Matching.from_edges(g, []))


@settings(deadline=None, max_examples=100)
@given(graphs(max_n=6))
def test_oracle_is_ur_equals_induced_pm_count(g):
    enum = enumerate_matchings(g)
    for edges in enum.all_matchings:
        m = Matching.from_edges(g, edges)
        sub, _ = induced_subgraph(g, m.covered)
        assert oracle_is_ur(g, m) == (count_perfect_matchings(sub) == 1)


@settings(deadline=None, max_examples=100)
@given(graphs(max_n=6))
def test_oracle_some_every_from_first_principles(g):
    enum = enumerate_matchings(g)
    flags = [
        oracle_is_ur(g, Matching.from_edges(g, edges))
        for edges in enum.maximum_matchings
    ]
    assert oracle_some_ur(g) == any(flags)
    assert oracle_every_ur(g) == all(flags)


def test_guard_limits():
    g = complete_graph(17)
    with pytest.raises(GuardLimitError):
        enumerate_matchings(g)
    sparse = path_graph(30)
    with pytest.raises(GuardLimitError):
        enumerate_matchings(sparse)  # m exceeds the edge guard
    assert oracle_some_ur(sparse, max_n=40, max_m=40)


def _profile_by_enumeration(g, max_n, max_m):
    """(some, every) read off every maximum matching that
    ``enumerate_matchings`` lists: a matching is uniquely restricted iff no
    other maximum matching covers its vertex set."""
    enum = enumerate_matchings(g, max_n=max_n, max_m=max_m)
    covers = Counter(frozenset(v for e in edges for v in e) for edges in enum.maximum_matchings)
    return 1 in covers.values(), max(covers.values()) == 1


def test_streaming_profile_equals_the_enumerated_one():
    # every graph on at most 6 vertices, and the self-test's seeded random
    # graphs on 7 to 10 vertices with its limits
    for n in range(7):
        for g in enumerate_labeled_graphs(n):
            assert _maximum_ur_profile(g, 16, 24) == _profile_by_enumeration(g, 16, 24)
    for g in _random_instances(500, 0):
        assert 7 <= g.n <= 10
        assert _maximum_ur_profile(g, 12, 64) == _profile_by_enumeration(g, 12, 64)


def test_selftest_enumerates_each_graph_once(monkeypatch, capsys):
    # the oracle keeps the last graph's profile, so the self-test's two
    # questions of a graph cost one enumeration, and it lists no matchings
    roots = []
    real = oracle._count_largest

    def spy(edges, i, covered, size, best):
        if i == 0:
            roots.append(len(edges))
        real(edges, i, covered, size, best)

    monkeypatch.setattr(oracle, "_count_largest", spy)
    monkeypatch.setattr(oracle, "_extend", None)
    assert selftest.run(3, 5, 0) == 0
    assert "0 disagreements" in capsys.readouterr().out
    assert len(roots) == 1 + 1 + 2 + 8 + 5


def test_recursions_past_the_recursion_limit_are_refused():
    # with the size guard lifted, a recursion of one call per edge, or per
    # matched pair, that would pass the interpreter's limit is refused
    # before it starts (P_1500 has 1499 edges), and the limit is left as it
    # was; the deepest one allowed runs
    limit = sys.getrecursionlimit()
    unguarded = {"max_n": sys.maxsize, "max_m": sys.maxsize}
    p1500 = path_graph(1500)
    for run in (enumerate_matchings, oracle_some_ur, oracle_every_ur):
        with pytest.raises(GuardLimitError, match="recursion limit"):
            run(p1500, **unguarded)
        with pytest.raises(GuardLimitError, match="recursion limit"):
            run(star_graph(limit - 200), **unguarded)
    assert len(enumerate_matchings(star_graph(limit - 201), **unguarded).all_matchings) == limit - 200
    assert oracle_every_ur(star_graph(limit - 201), **unguarded)
    with pytest.raises(GuardLimitError, match="recursion limit"):
        count_perfect_matchings(path_graph(2 * (limit - 200)), **unguarded)
    assert count_perfect_matchings(path_graph(2 * (limit - 201)), **unguarded) == 1
    assert sys.getrecursionlimit() == limit


def test_enumerate_labeled_graphs_counts():
    for n, want in [(0, 1), (1, 1), (2, 2), (3, 8), (4, 64)]:
        gs = list(enumerate_labeled_graphs(n))
        assert len(gs) == want
        assert len({g.edges for g in gs}) == want
        assert all(g.n == n for g in gs)
