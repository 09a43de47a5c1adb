"""The matcher's labelling against the per-vertex reference and against the
labelling search it replaces, and known answers at sizes the per-vertex
route cannot reach in the fast suite."""

import random

import pytest
from hypothesis import given, settings

from ge_reference import class_sets, classes_by_a_pass, edmonds_labels, matcher_searching_all, reference_classes
from lemma_helpers import is_factor_critical
from strategies import giant, graphs, linear_triangle_tree, random_graph_nm, sparse_graph_nm
from urmatch import matching
from urmatch.decomposition import gallai_edmonds
from urmatch.families import cycle_graph, path_graph
from urmatch.graph_core import Graph
from urmatch.matching import (
    InternalCheckError,
    Matching,
    _DEAD_EVEN,
    _DEAD_ODD,
    _EVEN,
    _ODD,
    _UNLABELLED,
    _matcher,
    _max_match_array,
    _search,
)
from urmatch.oracle import enumerate_labeled_graphs, enumerate_matchings


def _label_classes(g, match=None):
    """(even, odd, unlabelled) of the reference labelling grown from
    ``match``, or the matcher's own (dead-even, dead-odd, unlabelled)."""
    if match is None:
        label, kinds = _matcher(g)[1], (_DEAD_EVEN, _DEAD_ODD, _UNLABELLED)
    else:
        label, kinds = edmonds_labels(g.adj, match), (_EVEN, _ODD, _UNLABELLED)
    return tuple(frozenset(v for v in range(g.n) if label[v] == kind) for kind in kinds)


def _check_against_reference(g):
    expected = reference_classes(g)
    assert _label_classes(g) == expected
    assert _label_classes(g, _max_match_array(g)) == expected
    ge = gallai_edmonds(g)
    assert class_sets(ge) == expected


def _match_array(n, pairs):
    match = [-1] * n
    for u, v in pairs:
        match[u], match[v] = v, u
    return match


def test_classes_match_reference_exhaustive_n6():
    for n in range(7):
        for g in enumerate_labeled_graphs(n):
            _check_against_reference(g)


@settings(deadline=None, max_examples=200)
@given(graphs(max_n=10))
def test_classes_match_reference_hypothesis(g):
    _check_against_reference(g)


@settings(deadline=None, max_examples=100)
@given(graphs(max_n=7))
def test_labels_independent_of_maximum_matching(g):
    # Gallai-Edmonds: the classes do not depend on which maximum matching
    # the forest is grown from
    expected = _label_classes(g)
    for edges in enumerate_matchings(g, max_n=7, max_m=21).maximum_matchings:
        assert _label_classes(g, _match_array(g.n, edges)) == expected


def test_classes_match_reference_sparse_random():
    rng = random.Random(2)
    for n in range(50, 201, 10):
        _check_against_reference(random_graph_nm(n, 3 * n // 2, rng))


def test_non_maximum_matching_raises():
    # the reference labelling: both ends of the edge are free, an augmenting
    # path between two trees
    with pytest.raises(InternalCheckError):
        edmonds_labels(path_graph(2).adj, [-1, -1])
    # P_4 matched in the middle: 0-1=2-3 augments
    with pytest.raises(InternalCheckError):
        edmonds_labels(path_graph(4).adj, [-1, 2, 1, -1])


_LIVE = {_DEAD_EVEN: _EVEN, _DEAD_ODD: _ODD, _UNLABELLED: _UNLABELLED}


def _check_matcher_labels(g):
    # the failed searches' trees label every vertex as one more search from
    # all free vertices of the final matching does
    match, label, _, _ = _matcher(g)
    assert [_LIVE[x] for x in label] == edmonds_labels(g.adj, match)


@settings(deadline=None, max_examples=300)
@given(graphs(max_n=12))
def test_matcher_labels_equal_the_reference_labelling_hypothesis(g):
    _check_matcher_labels(g)


def test_matcher_labels_equal_the_reference_labelling_at_scale():
    for n in (2000, 4000, 8000):
        rng = random.Random(n)
        for g in (giant(sparse_graph_nm(n, 3 * n // 2, rng)), linear_triangle_tree(2 * n // 3, 0.25, rng)):
            assert g.n >= 1500
            _check_matcher_labels(g)


def _assert_classes(g, d_set, a_set, c_set):
    assert _label_classes(g) == (d_set, a_set, c_set)
    ge = gallai_edmonds(g)  # D through missable_vertices
    assert class_sets(ge) == (d_set, a_set, c_set)


def test_long_odd_cycle_is_all_d():
    g = cycle_graph(20001)
    _assert_classes(g, frozenset(range(g.n)), frozenset(), frozenset())


def _triangle_chain(k):
    """k triangles (2i, 2i+1, 2i+2), consecutive ones sharing a cut vertex."""
    edges = []
    for i in range(k):
        a, b, c = 2 * i, 2 * i + 1, 2 * i + 2
        edges += [(a, b), (a, c), (b, c)]
    return Graph.from_edges(2 * k + 1, edges)


def test_long_triangle_chain_is_factor_critical():
    g = _triangle_chain(5000)
    assert g.n == 10001
    _assert_classes(g, frozenset(range(g.n)), frozenset(), frozenset())
    assert is_factor_critical(g)


def test_long_path_is_all_c():
    g = path_graph(10000)
    _assert_classes(g, frozenset(), frozenset(), frozenset(range(g.n)))


def _flower(levels):
    """A stem r-p=q into nested blossoms, with its intended maximum matching.

    q, x_0 = 3 and y_0 = 4 form a triangle (x_0=y_0 matched).  Level k adds
    a matched pair x_k=y_k with x_k adjacent to x_{k-1} and y_k to y_{k-1}:
    the odd cycle x_{k-1} x_k y_k y_{k-1} closes only once the
    level below is contracted, so every contraction creates the next.
    """
    r, p, q = 0, 1, 2
    xs, ys = [3], [4]
    edges = [(r, p), (p, q), (q, 3), (q, 4), (3, 4)]
    pairs = [(p, q), (3, 4)]
    for k in range(levels):
        x, y = 5 + 2 * k, 6 + 2 * k
        edges += [(xs[-1], x), (ys[-1], y), (x, y)]
        pairs.append((x, y))
        xs.append(x)
        ys.append(y)
    n = 5 + 2 * levels
    return Graph.from_edges(n, edges), _match_array(n, pairs)


@pytest.mark.parametrize("levels", [0, 1, 2, 1000])
def test_nested_blossom_flower(levels):
    g, match = _flower(levels)
    expected = (frozenset(range(g.n)) - {1}, frozenset({1}), frozenset())
    # the stem vertex p is the only odd vertex; every blossom vertex is even
    assert _label_classes(g, match) == expected
    _assert_classes(g, *expected)
    if levels <= 2:
        assert reference_classes(g) == expected


@pytest.mark.parametrize("levels", [0, 1, 2, 1000])
def test_search_augments_through_nested_blossoms(levels):
    # a free pendant z on the deepest y_k: the only augmenting path from the
    # free root r ends at z and runs through every nested blossom
    g, match = _flower(levels)
    z = g.n
    g = Graph.from_edges(g.n + 1, g.edges | {(4 + 2 * levels, z)})
    match.append(-1)
    assert _search(g.adj, match, [0]) is None
    assert all(match[match[v]] == v for v in range(g.n) if match[v] != -1)
    # a valid matching of g, one edge larger than the flower's: perfect
    m = Matching.from_edges(g, ((v, match[v]) for v in range(g.n) if match[v] > v))
    assert 2 * len(m) == g.n


def test_odd_cycles_joined_by_paths():
    # triangles T1 = {0,1,2}, T2 = {4,5,6}, T3 = {8,9,10} joined by the
    # paths 2-3-4 and 6-7-8, and the pendant edge 11-12 hung on 3
    edges = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (4, 6), (5, 6),
             (6, 7), (7, 8), (8, 9), (8, 10), (9, 10), (3, 11), (11, 12)]
    g = Graph.from_edges(13, edges)
    # nu = 6 with one vertex of the triangles free; deleting 3 or 7 splits off
    # two odd parts, deleting 11 or 12 strands the other one of the pair
    expected = (
        frozenset({0, 1, 2, 4, 5, 6, 8, 9, 10}),
        frozenset({3, 7}),
        frozenset({11, 12}),
    )
    _assert_classes(g, *expected)
    assert reference_classes(g) == expected


def test_long_chain_of_pentagons():
    # k five-cycles joined by paths of length two: the cycles are D, the
    # path middles A (deficiency k - (k - 1) = 1)
    k = 1000
    edges = []
    middles = set()
    for i in range(k):
        base = 6 * i
        edges += [(base + j, base + (j + 1) % 5) for j in range(5)]
        if i + 1 < k:
            mid = base + 5
            middles.add(mid)
            edges += [(base + 2, mid), (mid, base + 6)]
    g = Graph.from_edges(6 * k - 1, edges)
    _assert_classes(g, frozenset(range(g.n)) - middles, frozenset(middles), frozenset())


def _check_label_route(g):
    # the classes read off the labels, and the matcher that labels isolated
    # vertices without a search, against the A pass and the searches from
    # every free vertex
    match, label, parent, forced = matcher_searching_all(g)
    assert _matcher(g) == (match, label, parent, forced)
    ge = gallai_edmonds(g)
    assert ge.comp == tuple(classes_by_a_pass(g, {v for v, x in enumerate(label) if x == _DEAD_EVEN}))
    assert (ge.match, ge.parent, ge.forced) == (tuple(match), tuple(parent), tuple(forced))


@settings(deadline=None, max_examples=200)
@given(graphs(max_n=11, max_density=0.4))
def test_classes_from_labels_equal_the_a_pass_route(g):
    _check_label_route(g)


def test_classes_from_labels_equal_the_a_pass_route_at_scale():
    for n in (2000, 4000, 8000):
        rng = random.Random(n)
        for g in (giant(sparse_graph_nm(n, 3 * n // 2, rng)), linear_triangle_tree(2 * n // 3, 0.25, rng)):
            _check_label_route(g)


def test_isolated_vertices_take_no_search(monkeypatch):
    # 0 and 4 are isolated; the triangle 1, 2, 3 leaves one vertex free,
    # which is searched from
    g = Graph.from_edges(7, [(1, 2), (2, 3), (1, 3), (5, 6)])
    roots = []
    real = matching._search
    monkeypatch.setattr(matching, "_search", lambda adj, match, r, *rest: roots.extend(r) or real(adj, match, r, *rest))
    match, label, _, _ = _matcher(g)
    assert roots == [3]
    assert label[0] == label[4] == _DEAD_EVEN and match[0] == match[4] == -1
    assert class_sets(gallai_edmonds(g)) == (frozenset({0, 1, 2, 3, 4}), frozenset(), frozenset({5, 6}))
