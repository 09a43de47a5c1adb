import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings

from ge_reference import gb_graph
from lemma_helpers import induced_matching_edges, is_accessibility_ordering
from ordering_reference import a_side_rows, core_ordering, counter_ordering, rescanning_ordering
from strategies import bipartite_graphs, giant, linear_triangle_tree, sparse_graph_nm
from urmatch.accessibility import _e_good_ordering, find_e_good_ordering
from urmatch.decomposition import gallai_edmonds
from urmatch.families import cycle_graph, path_graph, star_graph
from urmatch.graph_core import Graph, bipartition, edge_key
from urmatch.matching import max_independent_set_bipartite, maximum_matching
from urmatch.recognition import allowed_edges


def _is_matching(edges):
    covered = [v for e in edges for v in e]
    return len(covered) == len(set(covered))


def test_ordering_basics():
    g = path_graph(5)
    i_set = frozenset({0, 2, 4})
    assert is_accessibility_ordering(g, i_set, (0, 2, 4))
    # placing 2 first exposes both neighbors 1 and 3 at once
    assert not is_accessibility_ordering(g, i_set, (2, 0, 4))
    assert induced_matching_edges(g, i_set, (0, 2, 4)) == {(0, 1), (2, 3)}


def test_ordering_validation():
    g = path_graph(3)
    with pytest.raises(ValueError):
        is_accessibility_ordering(g, {0, 1}, (0, 1))  # not independent
    with pytest.raises(ValueError):
        is_accessibility_ordering(g, {0, 2}, (0, 0))  # not a permutation


@settings(deadline=None, max_examples=120)
@given(bipartite_graphs(max_side=3))
def test_definitional_equivalence(gs):
    # prefix growth <= 1 at every step  <=>  earliest-neighbor map is a matching
    g, _sides = gs
    for size in range(min(g.n, 4) + 1):
        for verts in combinations(range(g.n), size):
            if any(g.has_edge(u, v) for u, v in combinations(verts, 2)):
                continue
            for sigma in permutations(verts):
                lhs = is_accessibility_ordering(g, verts, sigma)
                rhs = _is_matching(induced_matching_edges(g, verts, sigma))
                assert lhs == rhs


def test_definitional_equivalence_exhaustive_small():
    # all orderings of all independent sets of all labeled graphs on <= 4
    # vertices, bipartite or not
    from urmatch.oracle import enumerate_labeled_graphs

    for n in range(5):
        for g in enumerate_labeled_graphs(n):
            for size in range(n + 1):
                for verts in combinations(range(n), size):
                    if any(g.has_edge(u, v) for u, v in combinations(verts, 2)):
                        continue
                    for sigma in permutations(verts):
                        lhs = is_accessibility_ordering(g, verts, sigma)
                        rhs = _is_matching(induced_matching_edges(g, verts, sigma))
                        assert lhs == rhs


def _oracle_has_e_good(g, i_set, allowed_set):
    for sigma in permutations(sorted(i_set)):
        if not is_accessibility_ordering(g, i_set, sigma):
            continue
        edges = induced_matching_edges(g, i_set, sigma)
        if edges <= allowed_set:
            return True
    return False


@settings(deadline=None, max_examples=100)
@given(bipartite_graphs(max_side=3))
def test_greedy_is_complete(gs):
    # the greedy search finds an ordering within the allowed edges exactly
    # when one exists at all
    g, sides = gs
    i_set = max_independent_set_bipartite(g, sides)
    rng = random.Random(5)
    subsets = [g.edges, frozenset()]
    edge_list = sorted(g.edges)
    for _ in range(3):
        subsets.append(frozenset(e for e in edge_list if rng.random() < 0.5))
    for allowed in subsets:
        got = find_e_good_ordering(g, sides, i_set, allowed)
        want = _oracle_has_e_good(g, i_set, allowed)
        assert (got is not None) == want
        if got is not None:
            assert is_accessibility_ordering(g, i_set, got.sequence)
            assert got.induced_matching.edges <= allowed
            m = induced_matching_edges(g, i_set, got.sequence)
            assert m == got.induced_matching.edges


@settings(deadline=None, max_examples=100)
@given(bipartite_graphs(max_side=4))
def test_size_identity(gs):
    # |I| + |induced matching| = n whenever an ordering exists; the induced
    # matching is then maximum (every vertex outside a maximum independent
    # set has a neighbor inside it, so the earliest-neighbor map covers all)
    g, sides = gs
    i_set = max_independent_set_bipartite(g, sides)
    got = find_e_good_ordering(g, sides, i_set, g.edges)
    if got is None:
        return  # no ordering at all, e.g. an even cycle
    assert len(i_set) + len(got.induced_matching) == g.n
    assert len(got.induced_matching) == len(maximum_matching(g))


def test_no_ordering_on_even_cycles():
    # the first placed vertex always exposes two neighbors at once
    for k in (4, 6, 8):
        g = cycle_graph(k)
        sides = bipartition(g)
        i_set = max_independent_set_bipartite(g, sides)
        assert find_e_good_ordering(g, sides, i_set, g.edges) is None


def test_rng_tie_break_agreement():
    # existence must not depend on which safe vertex the greedy picks; the
    # library picks the lowest, the reference a random one
    g = path_graph(8)
    sides = bipartition(g)
    i_set = frozenset({0, 2, 4, 6})
    allowed = frozenset({(0, 1), (2, 3), (4, 5), (6, 7)})
    base = find_e_good_ordering(g, sides, i_set, allowed)
    assert base is not None
    for seed in range(10):
        got = rescanning_ordering(g, i_set, allowed, rng=random.Random(seed))
        assert got is not None
        assert got.induced_matching.edges <= allowed


def test_star_leaves_ordering():
    g = star_graph(3)  # center 0
    sides = bipartition(g)
    got = find_e_good_ordering(g, sides, {1, 2, 3}, g.edges)
    assert got is not None
    assert got.sequence == (1, 2, 3)
    assert got.induced_matching.edges == frozenset({(0, 1)})


def test_c4_has_no_ordering():
    g = cycle_graph(4)
    sides = bipartition(g)
    i_set = max_independent_set_bipartite(g, sides)
    assert find_e_good_ordering(g, sides, i_set, g.edges) is None


def test_p3_restricted_allowed_set():
    # with only the right edge allowed the greedy must start at vertex 2
    g = path_graph(3)
    sides = bipartition(g)
    got = find_e_good_ordering(g, sides, {0, 2}, {(1, 2)})
    assert got is not None
    assert got.sequence == (2, 0)
    assert got.induced_matching.edges == frozenset({(1, 2)})


def _all_maximum_independent_sets(g):
    best = []
    best_size = -1
    for mask in range(1 << g.n):
        verts = [v for v in range(g.n) if mask >> v & 1]
        if any(g.has_edge(u, w) for i, u in enumerate(verts) for w in verts[i + 1:]):
            continue
        if len(verts) > best_size:
            best, best_size = [frozenset(verts)], len(verts)
        elif len(verts) == best_size:
            best.append(frozenset(verts))
    return best


@settings(deadline=None, max_examples=60)
@given(bipartite_graphs(max_side=3))
def test_success_independent_of_independent_set_choice(gs):
    # existence depends only on the graph and the allowed edges, never on
    # which maximum independent set the caller supplies
    g, sides = gs
    rng = random.Random(13)
    subsets = [g.edges, frozenset(e for e in sorted(g.edges) if rng.random() < 0.5)]
    sets_ = _all_maximum_independent_sets(g)
    for allowed in subsets:
        answers = {
            find_e_good_ordering(g, sides, i_set, allowed) is not None
            for i_set in sets_
        }
        assert len(answers) == 1


def _member(edges):
    """The predicate the orderings ask, in g's ids: is edge (y, x) in ``edges``?"""
    return lambda y, x: edge_key(y, x) in edges


def _same_ordering(got, want):
    """``got``, the core's ``(sequence, p_map)`` or None, against the
    reference's ordering; the ordering edges are read off ``p_map``."""
    if want is None:
        return got is None
    return got is not None and got == (want.sequence, want.p_map) and {
        edge_key(y, x) for y, x in got[1].items()} == want.induced_matching.edges


@settings(deadline=None, max_examples=80)
@given(bipartite_graphs(max_side=4))
def test_counter_core_equals_rescanning_reference(gs):
    # every maximum independent set, so sets with vertices on both sides too:
    # a neighbor of a newly seen vertex may then lie outside the set
    g, _sides = gs
    rng = random.Random(g.n)
    edge_list = sorted(g.edges)
    subsets = [set(edge_list), set(), {e for e in edge_list if rng.random() < 0.6}]
    for i_set in _all_maximum_independent_sets(g):
        for allowed in subsets:
            want = rescanning_ordering(g, i_set, allowed)
            got = core_ordering(g.adj, i_set, _member(allowed))
            assert _same_ordering(got, want)
            assert got == counter_ordering(g.adj, i_set, _member(allowed))


def test_mixed_side_set_counts_only_its_own_vertices():
    # I = {1, 2, 3} holds 3 from the far side; seeing 4 must not make the
    # cover vertex 0 placeable, nor enter 0's XOR: 0 is in no row
    g = Graph.from_edges(5, [(0, 3), (0, 4), (1, 4)])
    got = core_ordering(g.adj, frozenset({1, 2, 3}), _member(g.edges))
    assert got is not None and got[0] == (1, 2, 3)
    assert _same_ordering(got, rescanning_ordering(g, {1, 2, 3}, g.edges))
    assert got == counter_ordering(g.adj, frozenset({1, 2, 3}), _member(g.edges))


def test_counter_core_equals_reference_on_gb_of_sparse_graphs():
    # the orderings some_ur asks for, on giants of G(n, 1.5n) and on trees
    # with pendant triangles; the giant at 4000 with seed 0 has none.  The
    # core runs on gb's ids and on the rows some_ur hands it, the A side's,
    # with the D components numbered from 0
    graphs = [giant(sparse_graph_nm(n, 3 * n // 2, random.Random(seed)))
              for n, seed in ((2000, 0), (4000, 0), (4000, 3), (8000, 0))]
    graphs += [linear_triangle_tree(n, 0.25, random.Random(n)) for n in (1334, 2667, 5334)]
    answers = []
    for g in graphs:
        ge = gallai_edmonds(g)
        eligible, gb = allowed_edges(g, ge), gb_graph(ge)
        i_max = range(len(ge.a_list), gb.n)  # the component side, as in some_ur
        want = rescanning_ordering(gb, i_max, eligible)
        got = core_ordering(gb.adj, i_max, _member(eligible))
        assert _same_ordering(got, want) and got == counter_ordering(gb.adj, i_max, _member(eligible))
        k = len(ge.a_list)
        local = _e_good_ordering(a_side_rows(ge), ge.counts[0], lambda y, x: edge_key(y, k + x) in eligible)
        assert local == (None if got is None else
                         (tuple(x - k for x in got[0]), {y: x - k for y, x in got[1].items()}))
        answers.append(want is None)
    assert answers[1] and answers.count(True) < len(answers)


def test_validation_rejects_bad_inputs():
    g = star_graph(3)
    sides = bipartition(g)
    with pytest.raises(ValueError):
        find_e_good_ordering(g, sides, {1, 2}, g.edges)  # independent but not maximum
    with pytest.raises(ValueError):
        find_e_good_ordering(g, sides, {1, 2, 3}, {(1, 2)})  # allowed edge not in graph


def test_p_map_is_earliest_neighbor():
    g = path_graph(6)
    sides = bipartition(g)
    i_set = frozenset({0, 2, 4})  # size 3 = n - nu
    got = find_e_good_ordering(g, sides, i_set, g.edges)
    assert got is not None
    for y, x in got.p_map.items():
        assert edge_key(x, y) in g.edges
        earlier = got.sequence[: got.sequence.index(x)]
        assert all(not g.has_edge(z, y) for z in earlier)
