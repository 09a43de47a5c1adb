import gc
import math

import pytest
from hypothesis import given, settings

from strategies import graphs
from urmatch.families import complete_graph, cycle_graph, path_graph, petersen_graph
from urmatch.graph_core import Graph, induced_subgraph
from urmatch.matching import Matching
from urmatch.oracle import (
    GuardLimitError,
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


def test_enumerate_labeled_graphs_counts():
    for n, want in [(0, 1), (1, 1), (2, 2), (3, 8), (4, 64)]:
        gs = list(enumerate_labeled_graphs(n))
        assert len(gs) == want
        assert len({g.edges for g in gs}) == want
        assert all(g.n == n for g in gs)
