import dataclasses
import random
import tracemalloc
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lemma_helpers import delete_edge, delete_vertex
from strategies import graphs
from urmatch import decomposition, graph_core
from urmatch.decomposition import gallai_edmonds
from urmatch.families import (
    bowtie_graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    star_graph,
)
from urmatch.graph_core import (
    Graph,
    bipartition,
    blocks_are_odd_cycles,
    connected_components,
    edge_key,
    induced_subgraph,
    is_forest,
    validate_bipartition,
)


def test_from_edges_rejects_loops_and_range():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(-1, 0)])


def test_edges_normalized():
    g = Graph.from_edges(3, [(2, 0), (1, 2)])
    assert g.edges == frozenset({(0, 2), (1, 2)})
    assert g.adj[2] == (0, 1)
    assert g.has_edge(0, 2) and g.has_edge(2, 0)
    assert not g.has_edge(0, 1)
    assert g.degree(2) == 2
    assert edge_key(2, 0) == (0, 2)


def test_from_edges_keeps_a_repeated_pair_once():
    g = Graph.from_edges(3, [(0, 1), (1, 0), (0, 1)])
    assert g == Graph.from_edges(3, [(0, 1)])
    assert g.adj == ((1,), (0,), ()) and g.m == 1
    assert hash(g) == hash(Graph.from_edges(3, [(1, 0)]))


def test_from_edges_star_given_in_both_orientations():
    # every pair twice, all in the centre's row: one linear pass per row
    k = 10**5
    edges = [(0, v) for v in range(1, k + 1)] + [(v, 0) for v in range(k, 0, -1)]
    g = Graph.from_edges(k + 1, edges)
    assert g.adj[0] == tuple(range(1, k + 1))
    assert all(g.adj[v] == (0,) for v in range(1, k + 1))
    assert g.m == k


def test_graph_is_its_adjacency():
    g = Graph.from_edges(4, [(3, 0), (1, 2), (0, 1)])
    assert [f.name for f in dataclasses.fields(Graph)] == ["n", "adj"]
    assert g == Graph(4, ((1, 3), (0, 2), (1,), (0,)))
    assert "edges" not in vars(g)
    assert g.sorted_edges() == [(0, 1), (0, 3), (1, 2)] and g.m == 3
    assert "edges" not in vars(g)
    assert g.edges == frozenset(g.sorted_edges())


def test_has_edge_outside_the_vertex_range():
    g = path_graph(4)
    for u in (-1, g.n, g.n + 5):
        for v in range(g.n):
            assert not g.has_edge(u, v) and not g.has_edge(v, u)
    # adj[-1] is vertex 3's row, which lists 2
    assert not g.has_edge(-1, 2)
    assert [g.has_edge(0, v) for v in range(4)] == [False, True, False, False]


def test_from_edges_holds_no_edge_set():
    # P_10^5 as an adjacency holds about 12 MiB; an edge set beside it, 21.6
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g = path_graph(10**5)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert g.m == 10**5 - 1
    assert held < 15 * 2**20


def test_induced_subgraph_relabels_in_order():
    g = cycle_graph(5)
    sub, id_map = induced_subgraph(g, {1, 3, 4})
    assert sub.n == 3
    assert id_map == (1, 3, 4)  # new id -> original id
    assert sub.edges == frozenset({(1, 2)})  # only edge 3-4 survives


def _induced_by_edge_scan(g, vertices):
    # reference: scan every edge of the host graph
    keep = sorted(set(vertices))
    pos = {v: i for i, v in enumerate(keep)}
    edges = [(pos[u], pos[v]) for u, v in g.edges if u in pos and v in pos]
    return Graph.from_edges(len(keep), edges), tuple(keep)


@settings(deadline=None, max_examples=200)
@given(graphs(max_n=12), st.data())
def test_induced_subgraph_matches_edge_scan(g, data):
    keep = data.draw(st.sets(st.integers(0, g.n - 1))) if g.n else set()
    assert induced_subgraph(g, keep) == _induced_by_edge_scan(g, keep)


def test_induced_subgraph_rejects_out_of_range():
    with pytest.raises(ValueError):
        induced_subgraph(cycle_graph(4), {0, 4})


def test_delete_vertex_and_edge():
    g = cycle_graph(4)
    h, id_map = delete_vertex(g, 2)
    assert h.n == 3 and h.edges == frozenset({(0, 1), (0, 2)})
    assert 2 not in id_map
    k = delete_edge(g, (0, 1))
    assert k.n == 4 and (0, 1) not in k.edges


def test_one_component_search(monkeypatch):
    # _classes is the library's one component search: the component views
    # and the decomposition each number their components with it
    calls = []
    real = graph_core._classes

    def spy(adj, comp):
        calls.append(adj)
        return real(adj, comp)

    monkeypatch.setattr(graph_core, "_classes", spy)
    monkeypatch.setattr(decomposition, "_classes", spy)
    g = petersen_graph()
    for f in (connected_components, is_forest, gallai_edmonds):
        calls.clear()
        f(g)
        assert calls == [g.adj], f.__name__


def test_connected_components_order():
    g = Graph.from_edges(6, [(4, 5), (1, 2)])
    comps = connected_components(g)
    assert comps == [frozenset({0}), frozenset({1, 2}), frozenset({3}), frozenset({4, 5})]


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_connected_components_of_vertex_set_matches_induced_route(data):
    # the old route: build g[vertices], split it, map the ids back
    g = data.draw(graphs(max_n=12))
    vertices = data.draw(st.frozensets(st.integers(0, max(g.n - 1, 0)))) if g.n else frozenset()
    sub, back = induced_subgraph(g, vertices)
    expected = [frozenset(back[x] for x in comp) for comp in connected_components(sub)]
    assert connected_components(g, vertices) == expected
    assert connected_components(g, range(g.n)) == connected_components(g)


def test_connected_components_of_vertex_set_rejects_out_of_range():
    g = path_graph(4)
    assert connected_components(g, {0, 2, 3}) == [frozenset({0}), frozenset({2, 3})]
    assert connected_components(g, ()) == []
    for bad in (4, -1):
        with pytest.raises(ValueError):
            connected_components(g, {0, bad})


def test_is_forest_families():
    assert is_forest(path_graph(7))
    assert is_forest(star_graph(5))
    assert not is_forest(cycle_graph(3))
    assert not is_forest(petersen_graph())
    assert is_forest(Graph.from_edges(0, []))


def _networkx_agrees(g):
    """Whether ``is_forest`` and ``connected_components`` agree with
    networkx, which has no forest answer for the empty graph."""
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    comps = sorted(map(frozenset, nx.connected_components(h)), key=min)
    return connected_components(g) == comps and is_forest(g) == (g.n == 0 or nx.is_forest(h))


@settings(deadline=None, max_examples=200)
@given(graphs(max_n=12))
def test_is_forest_matches_networkx(g):
    assert _networkx_agrees(g)


def test_is_forest_thousand_random():
    rng = random.Random(42)
    for _ in range(1000):
        n = rng.randrange(13)
        pairs = list(combinations(range(n), 2))
        edges = [e for e in pairs if rng.random() < rng.choice([0.08, 0.15, 0.3])]
        assert _networkx_agrees(Graph.from_edges(n, edges))


def _two_color(g):
    color = {}
    for comp in connected_components(g):
        root = min(comp)
        color[root] = 0
        stack = [root]
        while stack:
            u = stack.pop()
            for w in g.adj[u]:
                if w not in color:
                    color[w] = 1 - color[u]
                    stack.append(w)
                elif color[w] == color[u]:
                    return None
    return color


@settings(deadline=None, max_examples=200)
@given(graphs(max_n=10))
def test_bipartition_agrees_with_two_coloring(g):
    parts = bipartition(g)
    color = _two_color(g)
    if color is None:
        assert parts is None
    else:
        assert parts is not None
        validate_bipartition(g, parts)
        a, b = parts
        assert a | b == frozenset(range(g.n)) and not (a & b)


def test_bipartition_rejects_odd_cycle():
    assert bipartition(cycle_graph(5)) is None
    assert bipartition(cycle_graph(6)) is not None


def test_validate_bipartition_rejects_bad_sides():
    g = path_graph(3)
    with pytest.raises(ValueError):
        validate_bipartition(g, (frozenset({0, 1}), frozenset({2})))
    with pytest.raises(ValueError):
        validate_bipartition(g, (frozenset({0}), frozenset({2})))


def test_blocks_are_odd_cycles():
    assert blocks_are_odd_cycles(cycle_graph(5))
    assert blocks_are_odd_cycles(bowtie_graph())
    assert not blocks_are_odd_cycles(cycle_graph(4))
    assert not blocks_are_odd_cycles(complete_graph(4))
    assert not blocks_are_odd_cycles(path_graph(2))  # bridge block is K2
    assert blocks_are_odd_cycles(Graph.from_edges(1, []))
    with pytest.raises(ValueError):
        blocks_are_odd_cycles(Graph.from_edges(2, []))  # disconnected


def test_families_shapes():
    assert path_graph(1).m == 0
    assert cycle_graph(3).m == 3
    assert complete_graph(5).m == 10
    assert complete_bipartite(2, 3).m == 6
    assert star_graph(4).m == 4
    p = petersen_graph()
    assert p.n == 10 and p.m == 15
    assert all(p.degree(v) == 3 for v in range(10))
    with pytest.raises(ValueError):
        cycle_graph(2)
