"""The every route against the object routes it replaces
(``every_reference``): the bipartite D(M) test on bipartite graphs and on
gb, and the block search on D; the one-pass block and bridge searches
against the block lists they replace, and gb's union-find flags against gb
itself; and the two structure-theorem facts that spare the every route a
matching of gb, against the object route and the Koenig set."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from every_reference import (
    blocks_odd_by_networkx,
    closure,
    every_bipartite_by_objects,
    matched_bridges_by_blocks,
    odd_cycle_blocks_by_blocks,
)
from ge_reference import class_sets, gb_graph, gb_sides
from peel_reference import _matched_bridges, _peel
from strategies import bipartite_graphs, giant, graphs, linear_triangle_tree, seeded_random_graphs, sparse_graph_nm
from urmatch.decomposition import gallai_edmonds
from urmatch.families import bowtie_graph, complete_graph, cycle_graph, path_graph
from urmatch.graph_core import Graph, _odd_cycle_blocks, bipartition, blocks_are_odd_cycles, induced_subgraph, is_forest
from urmatch.matching import (
    _max_match_array,
    max_independent_set_bipartite,
    maximum_matching_bipartite,
)
from urmatch.oracle import enumerate_labeled_graphs
from urmatch.recognition import (
    D_COMPONENT_BLOCKS_NOT_ODD_CYCLES,
    GB_EDGE_MULTIPLE_NEIGHBORS,
    GB_EVERY_MAX_MATCHING_NOT_UR,
    every_ur,
    every_ur_bipartite,
)
from urmatch.ur_core import build_matching_digraph


def _check_bipartite(g, sides):
    """``every_ur``'s answer on bipartite g against the object route's,
    from either side, and ``every_ur_bipartite``'s report against
    ``every_ur``'s; the answer."""
    want = not every_bipartite_by_objects(g, sides)
    assert (not every_bipartite_by_objects(g, sides[::-1])) == want
    for all_failures in (False, True):
        report = every_ur(g, all_failures=all_failures)
        assert report.answer == want
        assert every_ur_bipartite(g, sides, all_failures=all_failures) == report
    return want


@settings(deadline=None, max_examples=200)
@given(bipartite_graphs(max_side=6))
def test_every_ur_on_bipartite_graphs_equals_object_route(gs):
    _check_bipartite(*gs)


def test_every_ur_on_bipartite_graphs_equals_object_route_exhaustive():
    # every bipartite labelled graph on at most 6 vertices
    answers = [_check_bipartite(g, sides) for n in range(7) for g in enumerate_labeled_graphs(n)
               if (sides := bipartition(g)) is not None]
    assert set(answers) == {True, False}


@settings(deadline=None, max_examples=100)
@given(bipartite_graphs(max_side=6))
def test_reach_masks_equal_closures_of_the_digraph(gs):
    # D(M)'s lists orient each edge of g by the rule of D(M), and V+ and
    # V- are their closures from the free vertices of the two sides
    g, sides = gs
    m = maximum_matching_bipartite(g, sides)
    md = build_matching_digraph(g, sides, m)
    arcs = {(u, w) if (u in sides[0]) != ((u, w) in m.edges) else (w, u) for u, w in g.edges}
    assert {(u, w) for u, ws in enumerate(md.succ) for w in ws} == arcs
    assert {(u, w) for w, us in enumerate(md.pred) for u in us} == arcs
    assert all(list(ws) == sorted(ws) for ws in md.succ + md.pred)
    assert (md.a0, md.b0) == (frozenset(sides[0]) - m.covered, frozenset(sides[1]) - m.covered)
    assert md.v_plus == closure(md.succ, md.a0) and md.v_minus == closure(md.pred, md.b0)


def _gb_facts(ge):
    """Whether gb is a forest, after checking the two facts that the
    deciders read off the structure theorem instead of matching gb: every
    maximum matching of gb is uniquely restricted (by the object route's
    D(M) test) iff gb is a forest, and the component side is the Koenig
    independent set of gb."""
    gb = gb_graph(ge)
    forest = is_forest(gb)
    assert (every_bipartite_by_objects(gb, gb_sides(ge)) == []) == forest
    assert max_independent_set_bipartite(gb, gb_sides(ge)) == frozenset(range(len(ge.a_list), gb.n))
    return forest


def test_gb_facts_exhaustive():
    forests = {_gb_facts(gallai_edmonds(g)) for n in range(7) for g in enumerate_labeled_graphs(n)}
    assert forests == {True, False}  # K_{2,3} is its own gb


def test_every_bipartite_on_gb_of_sparse_graphs():
    # the gb of giants of G(n, 1.5n) and of trees with pendant triangles
    graphs_ = [giant(sparse_graph_nm(n, 3 * n // 2, random.Random(seed)))
               for n, seed in ((2000, 0), (4000, 3), (8000, 0))]
    graphs_ += [linear_triangle_tree(n, 0.25, random.Random(n)) for n in (1334, 2667, 5334)]
    answers = []
    for g in graphs_:
        ge = gallai_edmonds(g)
        answers.append(_gb_facts(ge))
        assert _check_bipartite(gb_graph(ge), gb_sides(ge)) == answers[-1]
    assert True in answers and False in answers


def _mask(n, verts):
    keep = [False] * n
    for v in verts:
        keep[v] = True
    return keep


def _check_blocks(g):
    """The block search on each D component's mask, and on all of D,
    against the induced-graph and networkx routes."""
    ge = gallai_edmonds(g)
    per_comp = []
    for comp in ge.d_members:
        got = _odd_cycle_blocks(g.adj, _mask(g.n, comp))
        assert got == blocks_are_odd_cycles(induced_subgraph(g, comp)[0]) == blocks_odd_by_networkx(g, comp)
        per_comp.append(got)
    assert _odd_cycle_blocks(g.adj, _mask(g.n, class_sets(ge)[0])) == all(per_comp)
    tags = every_ur(g, ge=ge, all_failures=True).failures
    assert (D_COMPONENT_BLOCKS_NOT_ODD_CYCLES in tags) == (not all(per_comp))
    return per_comp


def _union(*parts):
    edges, n = [], 0
    for h in parts:
        edges += [(u + n, v + n) for u, v in h.edges]
        n += h.n
    return Graph.from_edges(n, edges)


def test_block_search_on_named_graphs():
    assert _check_blocks(Graph.from_edges(1, [])) == [True]
    assert _check_blocks(bowtie_graph()) == [True]
    assert _check_blocks(complete_graph(5)) == [False]
    # only the later D component fails: a triangle, then K5
    assert _check_blocks(_union(cycle_graph(3), complete_graph(5))) == [True, False]
    # the same joined through one A-vertex, which the search must not enter
    joined = Graph.from_edges(9, [*((u + 1, v + 1) for u, v in cycle_graph(3).edges),
                                  *((u + 4, v + 4) for u, v in complete_graph(5).edges),
                                  (0, 1), (0, 4)])
    assert _check_blocks(joined) == [True, False]
    # P_3: its ends are single-vertex D components
    assert _check_blocks(path_graph(3)) == [True, True]


def test_block_search_on_cactus_graphs():
    # two 4-cycles sharing a vertex, and a 4-cycle and a triangle sharing one
    even = Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 0)])
    mixed = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 0)])
    odd = Graph.from_edges(7, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 5), (5, 6), (6, 0)])
    for g, want in ((even, False), (mixed, False), (odd, True)):
        every = _mask(g.n, range(g.n))
        assert _odd_cycle_blocks(g.adj, every) == want == blocks_odd_by_networkx(g, range(g.n))
        _check_blocks(g)


def test_block_search_exhaustive_and_random():
    for n in range(6):
        for g in enumerate_labeled_graphs(n):
            _check_blocks(g)
    for g in seeded_random_graphs(300, (7, 12), [0.15, 0.3, 0.5], seed=5):
        _check_blocks(g)


@settings(deadline=None, max_examples=150)
@given(graphs(max_n=12, max_density=0.4))
def test_block_search_on_any_mask(g):
    # the subgraphs induced by the prefixes of the vertices, connected or not
    for k in range(g.n + 1):
        assert _odd_cycle_blocks(g.adj, _mask(g.n, range(k))) == blocks_odd_by_networkx(g, range(k))


def _check_kernels(g, keep, rng):
    """The one-pass block and bridge searches on the mask ``keep`` against
    the block-list forms, with the matcher's mate array and with one that
    names a random neighbor of each vertex, so that many bridges count as
    matched."""
    assert _odd_cycle_blocks(g.adj, keep) == odd_cycle_blocks_by_blocks(g.adj, keep)
    for match in (_max_match_array(g), [rng.choice(row) if row else -1 for row in g.adj]):
        want = matched_bridges_by_blocks(g.adj, match, keep)
        assert _matched_bridges(g.adj, match, keep, range(g.n)) == want
        # from the marked vertices alone, as the peel roots its searches
        assert set(_matched_bridges(g.adj, match, keep, [v for v in range(g.n) if keep[v]])) == set(want)


def test_one_pass_kernels_equal_block_lists_exhaustive():
    # every labelled graph on at most 6 vertices, on all of it and on two
    # random masks
    rng = random.Random(6)
    for n in range(7):
        for g in enumerate_labeled_graphs(n):
            for keep in ([True] * n, [rng.random() < 0.7 for _ in range(n)], [rng.random() < 0.5 for _ in range(n)]):
                _check_kernels(g, keep, rng)


@settings(deadline=None, max_examples=300)
@given(graphs(max_n=12, max_density=0.5), st.randoms(use_true_random=False), st.floats(0.3, 1.0))
def test_one_pass_kernels_equal_block_lists(g, rng, density):
    _check_kernels(g, [rng.random() < density for _ in range(g.n)], rng)


def test_one_pass_kernels_equal_block_lists_at_scale():
    # the masks the deciders pass: D, and C as the peel first sees it and
    # as it leaves it
    for n in (2000, 4000, 8000):
        rng = random.Random(n)
        for g in (giant(sparse_graph_nm(n, 3 * n // 2, rng)), linear_triangle_tree(2 * n // 3, 0.25, rng)):
            ge = gallai_edmonds(g)
            in_c = [c <= -4 for c in ge.comp]
            _check_kernels(g, [c >= 0 for c in ge.comp], rng)
            _check_kernels(g, in_c, rng)
            rest = set(_peel(g.adj, ge.match, in_c))
            _check_kernels(g, [v in rest for v in range(g.n)], rng)


def _check_gb_flags(g):
    # the union-find pass over the attachments against gb itself
    ge = gallai_edmonds(g)
    tags = every_ur(g, ge=ge, all_failures=True).failures
    cyclic, multiple = GB_EVERY_MAX_MATCHING_NOT_UR in tags, GB_EDGE_MULTIPLE_NEIGHBORS in tags
    assert cyclic == (not is_forest(gb_graph(ge)))
    # an A-vertex with two neighbors in one D component, read off g
    d_nbrs = [[ge.comp[w] for w in g.adj[a] if ge.comp[w] >= 0] for a in ge.a_list]
    assert multiple == any(len(cs) > len(set(cs)) for cs in d_nbrs)
    return cyclic, multiple


def test_gb_flags_equal_gb_itself():
    flags = {_check_gb_flags(g) for n in range(7) for g in enumerate_labeled_graphs(n)}
    flags |= {_check_gb_flags(g) for g in seeded_random_graphs(300, (7, 12), [0.15, 0.3], seed=7)}
    for n in (2000, 4000, 8000):
        rng = random.Random(n)
        for g in (giant(sparse_graph_nm(n, 3 * n // 2, rng)), linear_triangle_tree(2 * n // 3, 0.25, rng)):
            flags.add(_check_gb_flags(g))
    # dense random bipartite graphs, halves of 300 and 600, whose gb has
    # more edges than vertices, so the edge count alone makes it cyclic;
    # with a triangle on vertex 300 of the large half, joined to 0 of the
    # small one, an A-vertex has two neighbors in one D component
    rng = random.Random(8)
    edges = [(u, 300 + v) for u in range(300) for v in range(600) if rng.random() < 0.02]
    for extra in ([], [(0, 300), (0, 900), (300, 900), (300, 901), (900, 901)]):
        g = Graph.from_edges(902, edges + extra)
        ge = gallai_edmonds(g)
        assert len(ge.attachments) >= len(ge.a_list) + ge.counts[0] > 0
        assert _check_gb_flags(g) == (True, bool(extra))
    assert flags == {(False, False), (False, True), (True, False), (True, True)}
