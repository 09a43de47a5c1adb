import pytest
from hypothesis import given, settings

from lemma_helpers import edge_exchanges, konig_maximality_check
from strategies import bipartite_graphs
from urmatch.families import cycle_graph, path_graph
from urmatch.graph_core import bipartition, induced_subgraph
from urmatch.matching import Matching, maximum_matching
from urmatch.oracle import count_perfect_matchings, enumerate_matchings, oracle_is_ur
from urmatch.ur_core import build_matching_digraph, is_acyclic, is_uniquely_restricted


def test_is_uniquely_restricted_basics():
    c6 = cycle_graph(6)
    m = Matching.from_edges(c6, [(0, 1), (2, 3), (4, 5)])
    assert not is_uniquely_restricted(c6, m)  # the rotated matching covers V(C6) too
    assert is_uniquely_restricted(c6, Matching.from_edges(c6, [(0, 1), (3, 4)]))
    p4 = path_graph(4)
    assert is_uniquely_restricted(p4, Matching.from_edges(p4, [(0, 1), (2, 3)]))
    assert is_uniquely_restricted(p4, Matching.from_edges(p4, []))


@settings(deadline=None, max_examples=120)
@given(bipartite_graphs(max_side=4))
def test_ur_equals_acyclic_equals_pm_count(gs):
    # on bipartite graphs: M restricted-unique  <=>  its digraph is acyclic
    # <=>  the covered subgraph has exactly one perfect matching
    g, sides = gs
    enum = enumerate_matchings(g, max_n=8, max_m=16)
    for edges in enum.all_matchings:
        m = Matching.from_edges(g, edges)
        md = build_matching_digraph(g, sides, m)
        ur = is_uniquely_restricted(g, m)
        assert ur == is_acyclic(md.succ)
        assert ur == oracle_is_ur(g, m)
        sub, _ = induced_subgraph(g, m.covered)
        assert ur == (count_perfect_matchings(sub) == 1)


@settings(deadline=None, max_examples=120)
@given(bipartite_graphs(max_side=5))
def test_digraph_lists_orient_every_edge_once(gs):
    # A -> B off the matching, B -> A on it; pred is the transpose of succ
    g, sides = gs
    m = maximum_matching(g)
    md = build_matching_digraph(g, sides, m)
    arcs = {(u, w) for u in range(g.n) for w in md.succ[u]}
    assert arcs == {(u, w) for w in range(g.n) for u in md.pred[w]}
    expected = set()
    for u, w in g.edges:
        a, b = (u, w) if u in sides[0] else (w, u)
        expected.add((b, a) if (u, w) in m.edges else (a, b))
    assert arcs == expected
    assert all(list(x) == sorted(x) for x in md.succ + md.pred)


@settings(deadline=None, max_examples=120)
@given(bipartite_graphs(max_side=4))
def test_konig_check_equals_maximality(gs):
    g, sides = gs
    nu = len(maximum_matching(g))
    enum = enumerate_matchings(g, max_n=8, max_m=16)
    for edges in enum.all_matchings:
        m = Matching.from_edges(g, edges)
        md = build_matching_digraph(g, sides, m)
        assert konig_maximality_check(md) == (len(edges) == nu)


@settings(deadline=None, max_examples=100)
@given(bipartite_graphs(max_side=4))
def test_v_plus_minus_invariant_across_maximum_matchings(gs):
    g, sides = gs
    enum = enumerate_matchings(g, max_n=8, max_m=16)
    seen = set()
    for edges in enum.maximum_matchings:
        md = build_matching_digraph(g, sides, Matching.from_edges(g, edges))
        seen.add((md.v_plus, md.v_minus))
    assert len(seen) <= 1


def test_exhaustive_bipartite_agreement_small():
    # all bipartite labeled graphs on <= 5 vertices, all their matchings
    from urmatch.oracle import enumerate_labeled_graphs

    for n in range(6):
        for g in enumerate_labeled_graphs(n):
            sides = bipartition(g)
            if sides is None:
                continue
            nu = len(maximum_matching(g))
            enum = enumerate_matchings(g)
            for edges in enum.all_matchings:
                m = Matching.from_edges(g, edges)
                md = build_matching_digraph(g, sides, m)
                ur = is_uniquely_restricted(g, m)
                assert ur == is_acyclic(md.succ)
                assert konig_maximality_check(md) == (len(edges) == nu)


def test_edge_exchanges_requires_maximum():
    g = path_graph(4)
    with pytest.raises(ValueError):
        edge_exchanges(g, bipartition(g), Matching.from_edges(g, [(1, 2)]))


@settings(deadline=None, max_examples=80)
@given(bipartite_graphs(max_side=4))
def test_exchange_results_are_maximum_matchings(gs):
    g, sides = gs
    nu = len(maximum_matching(g))
    enum = enumerate_matchings(g, max_n=8, max_m=16)
    for edges in enum.maximum_matchings:
        m = Matching.from_edges(g, edges)
        for m2 in edge_exchanges(g, sides, m):
            assert m2.edges <= g.edges
            assert len(m2) == nu


@settings(deadline=None, max_examples=80)
@given(bipartite_graphs(max_side=4))
def test_exchange_closure_visits_all_when_acyclic(gs):
    # starting from a restricted-unique maximum matching, repeated single-edge
    # exchanges reach every maximum matching
    g, sides = gs
    enum = enumerate_matchings(g, max_n=8, max_m=16)
    target = {frozenset(e) for e in enum.maximum_matchings}
    start = None
    for edges in enum.maximum_matchings:
        if is_uniquely_restricted(g, Matching.from_edges(g, edges)):
            start = frozenset(edges)
            break
    if start is None:
        return
    seen = {start}
    frontier = [start]
    while frontier:
        cur = frontier.pop()
        for m2 in edge_exchanges(g, sides, Matching.from_edges(g, cur)):
            key = frozenset(m2.edges)
            if key not in seen:
                seen.add(key)
                frontier.append(key)
    assert seen == target
