import random

import pytest
from hypothesis import given, settings

from ge_reference import missable_vertex, unique_perfect_matching_by_deletion
from lemma_helpers import delete_vertex, is_alternating_cycle, is_factor_critical, konig_independent_set_by_search
import peel_reference
from peel_reference import _alternating_cycle, _peel
from strategies import (
    bipartite_graphs,
    corona,
    graphs,
    random_graph_nm,
    random_tree_edges,
    seeded_random_graphs,
    sparse_graph_nm,
)
from urmatch.families import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    star_graph,
)
from urmatch import matching
from urmatch.graph_core import Graph, bipartition
from urmatch.matching import (
    InternalCheckError,
    Matching,
    _greedy_seed,
    _matching_from_array,
    _max_match_array,
    _search,
    edge_in_some_maximum_matching,
    max_independent_set_bipartite,
    maximum_matching,
    maximum_matching_bipartite,
    missable_vertices,
    unique_perfect_matching,
)
from urmatch.oracle import enumerate_labeled_graphs, enumerate_matchings


def _check_matching(g, m):
    assert m.edges <= g.edges
    covered = [v for e in m.edges for v in e]
    assert len(covered) == len(set(covered))
    assert m.covered == frozenset(covered)


def test_matching_validation():
    g = path_graph(4)
    with pytest.raises(ValueError):
        Matching.from_edges(g, [(0, 2)])  # not an edge
    with pytest.raises(ValueError):
        Matching.from_edges(g, [(0, 1), (1, 2)])  # shares vertex 1
    m = Matching.from_edges(g, [(1, 0)])
    assert m.edges == frozenset({(0, 1)})
    assert m.mate[0] == 1 and m.mate[1] == 0
    assert len(m) == 1


def test_matching_from_a_mate_array():
    g = path_graph(4)
    assert _matching_from_array(g, [1, 0, -1, -1]) == Matching.from_edges(g, [(0, 1)])
    m = _matching_from_array(g, [1, 0, 3, 2])
    assert m == Matching.from_edges(g, [(0, 1), (2, 3)]) and m.mate == {0: 1, 1: 0, 2: 3, 3: 2}
    for arr in ([1, 2, 1, -1],  # 0 names 1, whose mate is 2
                [-1, 0, -1, -1],  # 1 names 0, which is free
                [0, -1, -1, -1],  # 0 is its own mate
                [2, -1, 0, -1]):  # 0-2 is no edge
        with pytest.raises(ValueError):
            _matching_from_array(g, arr)


@pytest.mark.parametrize("edges, match, root", [
    # the blossom walk from the even-even edge 2-1 never reaches its base
    ([(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)], [1, 2, -1, 2], 2),
    # the augmenting walk from 3 cycles through 2 and 3
    ([(0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4), (2, 5), (3, 5), (4, 5)], [-1, -1, 3, 2, 5, 2], 0),
])
def test_search_raises_on_mates_that_are_no_involution(edges, match, root):
    g = Graph.from_edges(max(map(max, edges)) + 1, edges)
    with pytest.raises(InternalCheckError, match="no involution"):
        _search(g.adj, match, [root])


def test_maximum_matching_families():
    assert len(maximum_matching(petersen_graph())) == 5
    assert len(maximum_matching(cycle_graph(7))) == 3
    assert len(maximum_matching(complete_graph(6))) == 3
    assert len(maximum_matching(star_graph(5))) == 1
    assert len(maximum_matching(Graph.from_edges(0, []))) == 0


@settings(deadline=None, max_examples=200)
@given(graphs(max_n=9))
def test_maximum_matching_matches_oracle_size(g):
    m = maximum_matching(g)
    _check_matching(g, m)
    assert len(m) == enumerate_matchings(g, max_n=9, max_m=36).maximum_size


@settings(deadline=None, max_examples=150)
@given(bipartite_graphs(max_side=5))
def test_bipartite_matcher_agrees_with_general(gs):
    g, sides = gs
    mb = maximum_matching_bipartite(g, sides)
    _check_matching(g, mb)
    assert len(mb) == len(maximum_matching(g))


def test_unique_perfect_matching_cases():
    assert unique_perfect_matching(path_graph(4)).edges == {(0, 1), (2, 3)}
    assert unique_perfect_matching(cycle_graph(6)) is None  # two PMs
    assert unique_perfect_matching(cycle_graph(5)) is None  # odd
    assert unique_perfect_matching(path_graph(3)) is None  # no PM
    empty = Graph.from_edges(0, [])
    assert unique_perfect_matching(empty).edges == frozenset()
    assert unique_perfect_matching(path_graph(2)) is not None


@settings(deadline=None, max_examples=200)
@given(graphs(max_n=8))
def test_unique_perfect_matching_matches_count(g):
    from urmatch.oracle import count_perfect_matchings

    pm = unique_perfect_matching(g)
    assert pm == unique_perfect_matching_by_deletion(g)
    cnt = count_perfect_matchings(g, max_n=8, max_m=28)
    if cnt == 1:
        assert pm is not None and len(pm) * 2 == g.n
        _check_matching(g, pm)
    else:
        assert pm is None


@settings(deadline=None, max_examples=150)
@given(graphs(max_n=7))
def test_missable_matches_deletion_definition(g):
    nu = len(maximum_matching(g))
    miss = missable_vertices(g)
    for v in range(g.n):
        h, _ = delete_vertex(g, v)
        expected = len(maximum_matching(h)) == nu
        assert missable_vertex(g, v) == expected
        assert (v in miss) == expected


@settings(deadline=None, max_examples=150)
@given(graphs(max_n=7))
def test_edge_in_some_maximum_matching_vs_enumeration(g):
    enum = enumerate_matchings(g, max_n=7, max_m=21)
    hit = set()
    for edges in enum.maximum_matchings:
        hit |= edges
    for e in g.edges:
        assert edge_in_some_maximum_matching(g, e) == (e in hit)


def test_factor_critical_families():
    assert is_factor_critical(cycle_graph(5))
    assert is_factor_critical(complete_graph(7))
    assert not is_factor_critical(cycle_graph(6))
    assert not is_factor_critical(path_graph(3))
    assert not is_factor_critical(star_graph(2))
    assert is_factor_critical(Graph.from_edges(1, []))
    assert is_factor_critical(Graph.from_edges(0, []))


@settings(deadline=None, max_examples=150)
@given(graphs(max_n=7))
def test_factor_critical_definition(g):
    expected = g.n % 2 == 1 and all(
        len(maximum_matching(delete_vertex(g, v)[0])) * 2 == g.n - 1
        for v in range(g.n)
    )
    if g.n == 0:
        expected = True
    assert is_factor_critical(g) == expected


def _brute_mis(g):
    best = 0
    for mask in range(1 << g.n):
        verts = [v for v in range(g.n) if mask >> v & 1]
        if all(not g.has_edge(u, w) for i, u in enumerate(verts) for w in verts[i + 1:]):
            best = max(best, len(verts))
    return best


def test_max_independent_set_frozen():
    g = cycle_graph(6)
    sides = bipartition(g)
    assert max_independent_set_bipartite(g, sides) == frozenset({1, 3, 5})
    s = star_graph(3)
    assert max_independent_set_bipartite(s, bipartition(s)) == frozenset({1, 2, 3})


def _assert_konig_set(g, sides):
    """The Koenig set read off the labels is the search's, set for set, an
    independent set of n - nu vertices."""
    i_set = max_independent_set_bipartite(g, sides)
    assert i_set == konig_independent_set_by_search(g, sides)
    assert all(not g.has_edge(u, w) for u in i_set for w in i_set if u < w)
    # Gallai / Konig identity on bipartite graphs
    assert len(i_set) == g.n - len(maximum_matching(g))


def test_max_independent_set_equals_search_exhaustive():
    # every bipartite labelled graph on at most 6 vertices, sides both ways
    for n in range(7):
        for g in enumerate_labeled_graphs(n):
            sides = bipartition(g)
            if sides is not None:
                _assert_konig_set(g, sides)
                _assert_konig_set(g, sides[::-1])


@settings(deadline=None, max_examples=100)
@given(bipartite_graphs(max_side=4))
def test_max_independent_set_vs_brute(gs):
    g, sides = gs
    for s in (sides, sides[::-1]):
        _assert_konig_set(g, s)
        assert len(max_independent_set_bipartite(g, s)) == _brute_mis(g)


def test_random_sweep_matching_sizes():
    for g in seeded_random_graphs(60, (3, 9), [0.2, 0.5, 0.8], seed=11):
        nu = len(maximum_matching(g))
        assert nu == enumerate_matchings(g, max_n=9, max_m=36).maximum_size


def test_exhaustive_small_primitives():
    # every labeled graph on <= 5 vertices: matcher size, unique perfect
    # matching, per-vertex missability, per-edge membership in a maximum
    # matching, all against the enumeration
    from urmatch.graph_core import induced_subgraph
    from urmatch.oracle import enumerate_labeled_graphs

    for n in range(6):
        for g in enumerate_labeled_graphs(n):
            enum = enumerate_matchings(g)
            assert len(maximum_matching(g)) == enum.maximum_size
            pms = [e for e in enum.all_matchings if 2 * len(e) == g.n]
            upm = unique_perfect_matching(g)
            if len(pms) == 1:
                assert upm is not None and upm.edges == pms[0]
            else:
                assert upm is None
            miss = missable_vertices(g)
            maxima = enum.maximum_matchings
            for v in range(g.n):
                expected = any(v not in _covered(e) for e in maxima)
                assert (v in miss) == expected
                assert missable_vertex(g, v) == expected
            in_some = set().union(*maxima) if maxima else set()
            for e in g.edges:
                assert edge_in_some_maximum_matching(g, e) == (e in in_some)


def _covered(edges):
    return {v for e in edges for v in e}


def test_exhaustive_n6_matcher_size():
    from urmatch.oracle import enumerate_labeled_graphs

    for g in enumerate_labeled_graphs(6):
        assert len(maximum_matching(g)) == enumerate_matchings(g).maximum_size


def test_peel_agrees_with_deletion_device_exhaustive():
    from urmatch.oracle import enumerate_labeled_graphs

    seen = set()
    for n in range(7):
        for g in enumerate_labeled_graphs(n):
            upm = unique_perfect_matching(g)
            assert upm == unique_perfect_matching_by_deletion(g)
            seen.add(upm is None)
    assert seen == {True, False}


def _count_bridge_rounds(monkeypatch):
    rounds = []
    real = peel_reference._matched_bridges

    def counting(adj, match, alive, roots):
        out = real(adj, match, alive, roots)
        rounds.append(len(out))
        return out

    monkeypatch.setattr(peel_reference, "_matched_bridges", counting)
    return rounds


def _peel_unique(g):
    """Whether the reference peel of g from the matcher's matching leaves
    nothing; the kernel, through ``unique_perfect_matching``, must agree."""
    match = _max_match_array(g)
    unique = -1 not in match and not _peel(g.adj, match, [True] * g.n)
    assert unique == (unique_perfect_matching(g) is not None)
    return unique


def _triangle_strip(k):
    """Triangles (2i, 2i+1, 2i+2), i < k, sharing vertices, plus a pendant
    at 2k: only the pendant edge is a bridge, and deleting each matched edge
    exposes the next one."""
    edges = [(2 * k, 2 * k + 1)]
    for i in range(k):
        a = 2 * i
        edges += [(a, a + 1), (a + 1, a + 2), (a, a + 2)]
    return Graph.from_edges(2 * k + 2, edges)


def _bridged_triangles(k):
    """Triangles (3i, 3i+1, 3i+2) chained by the bridges (3i+2, 3i+3): no
    vertex has degree 1, and the bridge after triangle i is matched iff i is
    even (3(i+1) vertices lie before it)."""
    edges = []
    for i in range(k):
        a = 3 * i
        edges += [(a, a + 1), (a + 1, a + 2), (a, a + 2)]
        if i + 1 < k:
            edges.append((a + 2, a + 3))
    return Graph.from_edges(3 * k, edges)


def test_peel_worst_cases_by_bridge_rounds(monkeypatch):
    rounds = _count_bridge_rounds(monkeypatch)
    # the pendant queue alone empties strips and paths: no bridge search
    strip = unique_perfect_matching(_triangle_strip(2000))
    assert strip is not None and (2 * 2000, 2 * 2000 + 1) in strip.edges
    assert _peel_unique(_triangle_strip(2000)) and _peel_unique(path_graph(20000))
    assert rounds == []
    # one bridge search deletes every matched bridge, then the queue empties
    # what is left
    assert _peel_unique(_bridged_triangles(2000))
    assert rounds == [1000]
    # a 4-cycle at the end leaves a rest with no matched bridge
    rounds.clear()
    g = _bridged_triangles(4)
    g = Graph.from_edges(16, [*g.edges, (11, 12), (12, 13), (13, 14), (14, 15), (15, 12)])
    assert not _peel_unique(g)
    assert unique_perfect_matching_by_deletion(g) is None
    assert rounds == [2, 0]
    rounds.clear()
    assert not _peel_unique(cycle_graph(6))
    assert rounds == [0]


def test_peel_leaves_its_arguments_alone():
    g = path_graph(6)
    match = [1, 0, 3, 2, 5, 4]
    alive = [True] * 6
    assert _peel(g.adj, match, alive) == []
    assert match == [1, 0, 3, 2, 5, 4] and alive == [True] * 6
    # masked vertices are not there: 1-2-3-4 with 0 and 5 deleted
    alive[0] = alive[5] = False
    assert _peel(g.adj, [-1, 2, 1, 4, 3, -1], alive) == []
    assert _peel(cycle_graph(6).adj, match, [True] * 6) == list(range(6))


def test_peel_remainder_is_per_component():
    # C6 on 0..5 (two perfect matchings), P4 on 6..9, and C4 on 10..13 with
    # pendants 14 at 10 and 15 at 11 (one perfect matching): the peel
    # leaves exactly the component whose perfect matching is not unique
    edges = [(i, (i + 1) % 6) for i in range(6)] + [(6, 7), (7, 8), (8, 9)]
    edges += [(10, 11), (11, 12), (12, 13), (10, 13), (10, 14), (11, 15)]
    g = Graph.from_edges(16, edges)
    match = [1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 14, 15, 13, 12, 10, 11]
    assert _peel(g.adj, match, [True] * 16) == [0, 1, 2, 3, 4, 5]
    # without the C6 everything peels; with only it, all of it is left
    assert _peel(g.adj, match, [v >= 6 for v in range(16)]) == []
    assert _peel(g.adj, match, [v < 6 for v in range(16)]) == list(range(6))
    # the same from the list of the marked vertices alone
    for keep in ([True] * 16, [v >= 6 for v in range(16)], [v < 6 for v in range(16)], [v >= 10 for v in range(16)]):
        assert _peel(g.adj, match, keep, [v for v in range(16) if keep[v]]) == _peel(g.adj, match, keep)


def test_alternating_cycle_of_a_stalled_peel():
    # the C6 is what the peel leaves of the graph above; its one non-matching
    # edge at 0 closes the whole cycle
    edges = [(i, (i + 1) % 6) for i in range(6)] + [(6, 7), (7, 8), (8, 9)]
    g = Graph.from_edges(10, edges)
    match = [1, 0, 3, 2, 5, 4, 7, 6, 9, 8]
    rest = _peel(g.adj, match, [True] * 10)
    assert _alternating_cycle(g.adj, match, rest) == [0, 1, 2, 3, 4, 5]
    # the square of C_21 minus 0 stalls at once: the first edge tried, 1-2,
    # closes a cycle through all 20 vertices, and its chords cut it to four
    n = 21
    sq = Graph.from_edges(n, [(i, (i + d) % n) for i in range(n) for d in (1, 2)])
    match = [-1, 20, *[i + 1 if i % 2 == 0 else i - 1 for i in range(2, 20)], 1]
    rest = _peel(sq.adj, match, [v != 0 for v in range(n)])
    assert rest == list(range(1, n))
    cycle = _alternating_cycle(sq.adj, match, rest)
    assert len(cycle) == 4 and is_alternating_cycle(sq.adj, match, cycle)
    # a remainder that breaks the precondition is refused
    with pytest.raises(InternalCheckError, match="no alternating cycle"):
        _alternating_cycle(path_graph(2).adj, [1, 0], [0, 1])


@settings(deadline=None, max_examples=200)
@given(graphs(max_n=12))
def test_alternating_cycle_lies_in_the_remainder(g):
    # the maximum matching is perfect on the vertices it covers
    match = _max_match_array(g)
    rest = _peel(g.adj, match, [x != -1 for x in match])
    if rest:
        cycle = _alternating_cycle(g.adj, match, rest)
        assert is_alternating_cycle(g.adj, match, cycle)
        assert set(cycle) <= set(rest)


# networkx is a test-only reference, independent of the library's search,
# at sizes the enumeration oracle cannot reach


def _nx_nu(n, edges):
    nx = pytest.importorskip("networkx")
    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from(edges)
    return len(nx.max_weight_matching(h, maxcardinality=True))


def test_maximum_matching_size_vs_networkx():
    rng = random.Random(5)
    for n in range(20, 201, 20):
        for m in (n, 2 * n, 3 * n):
            g = random_graph_nm(n, m, rng)
            mm = maximum_matching(g)
            _check_matching(g, mm)
            assert len(mm) == _nx_nu(n, g.edges)


def _planted_perfect_matching(n, extra, rng):
    """A perfect matching on a random pairing plus ``extra`` random edges."""
    order = list(range(n))
    rng.shuffle(order)
    edges = {tuple(sorted(order[i:i + 2])) for i in range(0, n, 2)}
    while len(edges) < n // 2 + extra:
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return Graph.from_edges(n, edges)


def test_unique_perfect_matching_vs_networkx():
    rng = random.Random(6)
    seen = set()
    for n in range(12, 41, 4):
        for extra in (n // 4, n // 2, n):
            g = _planted_perfect_matching(n, extra, rng)
            pm = maximum_matching(g)
            assert 2 * len(pm) == n
            # unique iff deleting any edge of one perfect matching destroys all
            unique = all(_nx_nu(n, g.edges - {e}) < n // 2 for e in pm.edges)
            upm = unique_perfect_matching(g)
            assert upm == unique_perfect_matching_by_deletion(g)
            assert (upm is not None) == unique
            if unique:
                assert upm.edges == pm.edges
            seen.add(unique)
    assert seen == {True, False}


def test_edge_in_some_maximum_matching_vs_networkx():
    rng = random.Random(7)
    seen = set()
    for n in range(12, 31, 3):
        g = random_graph_nm(n, 3 * n // 2, rng)
        nu = _nx_nu(n, g.edges)
        for u, v in sorted(g.edges):
            rest = [e for e in g.edges if u not in e and v not in e]
            expected = _nx_nu(n, rest) == nu - 1
            assert edge_in_some_maximum_matching(g, (u, v)) == expected
            seen.add(expected)
    assert seen == {True, False}


def _check_mates(g, match):
    for v, w in enumerate(match):
        assert w == -1 or (match[w] == v and g.has_edge(v, w))


def test_karp_sipser_seed_is_maximum_on_forests():
    # the degree-1 rule alone is exact on a forest
    rng = random.Random(8)
    forests = [path_graph(n) for n in range(1, 41)]
    for n in (2, 11, 50, 120, 200):
        tree = Graph.from_edges(n, random_tree_edges(n, rng))
        forests += [tree, corona(tree)]
    for g in forests:
        seed, forced = _greedy_seed(g.adj)
        _check_mates(g, seed)
        assert forced == seed  # no greedy step: every pair is forced
        assert sum(1 for w in seed if w != -1) // 2 == _nx_nu(g.n, g.edges)


def test_matcher_on_deficient_sparse_graphs_vs_networkx(monkeypatch):
    # positive deficiency: searches from vertices the seed left free fail,
    # and the vertices of their trees stay out of later searches
    failed = []
    real = matching._search

    def counting(adj, match, roots, state=None):
        out = real(adj, match, roots, state)
        if state is not None and out is not None:
            failed.append(sum(1 for x in state[0] if x in (matching._DEAD_EVEN, matching._DEAD_ODD)))
        return out

    monkeypatch.setattr(matching, "_search", counting)
    rng = random.Random(9)
    for n in range(40, 401, 40):
        for m in (n // 2, n, 3 * n // 2):
            g = sparse_graph_nm(n, m, rng)
            match = _max_match_array(g)
            _check_mates(g, match)
            assert sum(1 for w in match if w != -1) // 2 == _nx_nu(n, g.edges)
    assert len(failed) > 100 and max(failed) > 50
