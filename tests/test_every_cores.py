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
from ge_reference import class_sets, gb_sides
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
from urmatch.ur_core import _reach, build_matching_digraph


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
    g, sides = gs
    md = build_matching_digraph(g, sides, maximum_matching_bipartite(g, sides))
    in_a = [v in sides[0] for v in range(g.n)]
    mate = _max_match_array(g)
    for forward, lists, sources, want in ((True, md.succ, md.a0, md.v_plus),
                                          (False, md.pred, md.b0, md.v_minus)):
        mask = _reach(g.adj, in_a, mate, forward)
        assert frozenset(v for v in range(g.n) if mask[v]) == closure(lists, sources) == want


def _gb_facts(ge):
    """Whether gb is a forest, after checking the two facts that the
    deciders read off the structure theorem instead of matching gb: every
    maximum matching of gb is uniquely restricted (by the object route's
    D(M) test) iff gb is a forest, and the component side is the Koenig
    independent set of gb."""
    forest = is_forest(ge.gb)
    assert (every_bipartite_by_objects(ge.gb, gb_sides(ge)) == []) == forest
    assert max_independent_set_bipartite(ge.gb, gb_sides(ge)) == frozenset(range(len(ge.a_list), ge.gb.n))
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
        assert _check_bipartite(ge.gb, gb_sides(ge)) == answers[-1]
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
    assert cyclic == (not is_forest(ge.gb))
    assert multiple == any(len(nbrs) > 1 for nbrs in ge.attachments.values())
    return cyclic, multiple


def test_gb_flags_equal_gb_itself():
    flags = {_check_gb_flags(g) for n in range(7) for g in enumerate_labeled_graphs(n)}
    flags |= {_check_gb_flags(g) for g in seeded_random_graphs(300, (7, 12), [0.15, 0.3], seed=7)}
    for n in (2000, 4000, 8000):
        rng = random.Random(n)
        for g in (giant(sparse_graph_nm(n, 3 * n // 2, rng)), linear_triangle_tree(2 * n // 3, 0.25, rng)):
            flags.add(_check_gb_flags(g))
    assert flags == {(False, False), (False, True), (True, False), (True, True)}
