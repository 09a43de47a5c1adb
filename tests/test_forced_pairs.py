"""The Karp-Sipser seed's forced pairs and the uniqueness tests built on them.

The C test (``recognition._c_failure``) hands the alternating-cycle kernel
only what the forced pairs leave of C, and ``unique_perfect_matching`` only
what they leave of g, both through ``matching._unforced_cycle``.  One
Kotzig peel of all of C, and of all of g, with no forced pairs
(``peel_reference._peel``), are the references here, and a brute force
over the perfect matchings of g[C] checks the lemma that makes the skip
exact: every perfect matching of g[C] holds every forced pair inside C.
"""

import random
from dataclasses import replace

import networkx as nx
import pytest
from hypothesis import given, settings

from peel_reference import _peel
from strategies import (
    corona,
    giant,
    graphs,
    linear_triangle_tree,
    random_tree_edges,
    seeded_random_graphs,
    sparse_graph_nm,
)
from urmatch import matching
from urmatch.decomposition import gallai_edmonds
from urmatch.families import cycle_graph, path_graph
from urmatch.graph_core import Graph
from urmatch.matching import (
    InternalCheckError,
    _greedy_seed,
    _matching_from_array,
    _max_match_array,
    unique_perfect_matching,
)
from urmatch.oracle import enumerate_labeled_graphs
from urmatch.recognition import _c_failure, some_ur

SEVEN = [Graph.from_edges(7, h.edges()) for h in nx.graph_atlas_g() if h.number_of_nodes() == 7]


def c_left_by_full_peel(g, ge):
    """The C test with no forced pairs: one Kotzig peel of all of g[C],
    naming every component that fails."""
    rest = _peel(g.adj, ge.match, [c <= -4 for c in ge.comp])
    return frozenset(-4 - ge.comp[v] for v in rest)


def upm_by_full_peel(g):
    """``unique_perfect_matching`` with no forced pairs: one Kotzig peel of
    all of g."""
    if g.n % 2:
        return None
    match = _max_match_array(g)
    if -1 in match or _peel(g.adj, match, [True] * g.n):
        return None
    return _matching_from_array(g, match)


def _small_graphs():
    """Every labelled graph on at most 6 vertices, and every graph on 7
    vertices up to isomorphism (the atlas), each also seededly relabelled,
    since the seed breaks ties by vertex id."""
    for n in range(7):
        yield from enumerate_labeled_graphs(n)
    rng = random.Random(7)
    for g in SEVEN:
        yield g
        perm = rng.sample(range(7), 7)
        yield Graph.from_edges(7, [(perm[u], perm[v]) for u, v in g.edges])


def _perfect_matchings(adj, verts):
    """Every perfect matching of the subgraph of ``adj`` induced by
    ``verts``, each as a dict of mates, by matching the lowest unmatched
    vertex every way it can be."""

    def rec(left, mate):
        if not left:
            yield dict(mate)
            return
        v = min(left)
        for w in adj[v]:
            if w in left:
                mate[v], mate[w] = w, v
                yield from rec(left - {v, w}, mate)
                del mate[v], mate[w]

    yield from rec(frozenset(verts), {})


def _c_pairs(ge):
    """The forced pairs with both ends in C, each once."""
    return [(v, w) for v, w in enumerate(ge.forced) if v < w and ge.comp[v] <= -4]


def _check_against_full_peel(g):
    ge = gallai_edmonds(g)
    failure, failing = _c_failure(g, ge), c_left_by_full_peel(g, ge)
    assert (failure is None) == (not failing) and (failure is None or failure in failing)
    return ge


def test_c_test_equals_the_full_peel_on_small_graphs():
    skipped = covered = 0
    for g in _small_graphs():
        ge = _check_against_full_peel(g)
        c = [v for v, x in enumerate(ge.comp) if x <= -4]
        skipped += 2 * len(_c_pairs(ge))
        covered += bool(c) and all(ge.forced[v] != -1 for v in c)
    assert skipped and covered


@settings(deadline=None, max_examples=200)
@given(graphs(max_n=12))
def test_c_test_equals_the_full_peel_on_hypothesis_graphs(g):
    _check_against_full_peel(g)


def test_c_test_equals_the_full_peel_at_scale():
    for n in (2000, 4000, 8000):
        rng = random.Random(n)
        tree = Graph.from_edges(n // 2, random_tree_edges(n // 2, rng))
        for g in (giant(sparse_graph_nm(n, 3 * n // 2, rng)), linear_triangle_tree(2 * n // 3, 0.25, rng),
                  corona(tree)):
            _check_against_full_peel(g)


def test_every_perfect_matching_of_c_holds_its_forced_pairs():
    # brute force over the perfect matchings of g[C]; ``several`` counts
    # the graphs whose g[C] has more than one, so that the skip matters
    several = 0
    for g in _small_graphs():
        ge = gallai_edmonds(g)
        forced = _c_pairs(ge)
        if not forced:
            continue
        c = [v for v, x in enumerate(ge.comp) if x <= -4]
        count = 0
        for mate in _perfect_matchings(g.adj, c):
            count += 1
            for v, w in forced:
                assert mate[v] == w, (g.edges, v, w)
        several += count > 1
    assert several > 1000


def test_forced_pairs_are_the_seeds_and_stay_in_the_matching():
    for n in (2000, 8000):
        rng = random.Random(n)
        for g in (giant(sparse_graph_nm(n, 3 * n // 2, rng)), linear_triangle_tree(2 * n // 3, 0.25, rng)):
            ge = gallai_edmonds(g)
            assert ge.forced == tuple(_greedy_seed(g.adj)[1])
            assert all(f == -1 or ge.match[v] == f for v, f in enumerate(ge.forced))
            assert 0 < sum(f != -1 for f in ge.forced) < g.n


def _spy_kernel_calls(monkeypatch):
    """The number of live vertices each call of the alternating-cycle
    kernel from ``matching``, where the C test's and
    ``unique_perfect_matching``'s are, starts from."""
    calls = []
    real = matching._m_alternating_cycle

    def spy(adj, match, live):
        calls.append(len(live))
        return real(adj, match, live)

    monkeypatch.setattr(matching, "_m_alternating_cycle", spy)
    return calls


def test_c_test_runs_no_peel_when_the_forced_pairs_cover_c(monkeypatch):
    calls = _spy_kernel_calls(monkeypatch)
    tree = Graph.from_edges(5000, random_tree_edges(5000, random.Random(3)))
    for g in (path_graph(10000), corona(tree)):
        ge = gallai_edmonds(g)
        assert len(ge.c_members) == 1 and -1 not in ge.forced
        assert _c_failure(g, ge) is None and ge.upms["c"] is None
        r = some_ur(g, ge=ge)
        assert r.answer and len(r.witness) == 5000
    assert calls == []


def test_c_test_peels_only_the_unforced_c_vertices(monkeypatch):
    calls = _spy_kernel_calls(monkeypatch)
    g = linear_triangle_tree(2000, 0.25, random.Random(7))
    ge = gallai_edmonds(g)
    c = [v for v, x in enumerate(ge.comp) if x <= -4]
    unforced = [v for v in c if ge.forced[v] == -1]
    assert 0 < len(unforced) < len(c) // 2
    assert _c_failure(g, ge) is None
    assert calls == [len(unforced)]


def _with_perfect_matching(n, m, rng):
    """m random edges on n (even) vertices plus a random perfect matching,
    so that the uniqueness test has something to decide."""
    perm = rng.sample(range(n), n)
    edges = {(perm[i], perm[i + 1]) for i in range(0, n, 2)}
    while len(edges) < n // 2 + m:
        u, v = rng.sample(range(n), 2)
        if (v, u) not in edges:
            edges.add((u, v))
    return Graph.from_edges(n, edges)


def test_unique_perfect_matching_equals_the_full_peel():
    rng = random.Random(65)
    instances = list(seeded_random_graphs(300, (2, 12), [0.15, 0.3, 0.5], seed=65))
    instances += [_with_perfect_matching(n, m, rng) for n in (8, 12, 40, 400) for m in (n // 4, n // 2, n)
                  for _ in range(20)]
    instances += [path_graph(n) for n in range(12)]
    instances += [corona(Graph.from_edges(n, random_tree_edges(n, rng))) for n in (1, 2, 5, 50, 500)]
    unique = several = 0
    for g in instances:
        got = unique_perfect_matching(g)
        assert got == upm_by_full_peel(g), sorted(g.edges)
        if got is not None:
            unique += 1
        elif g.n % 2 == 0 and -1 not in _max_match_array(g):
            several += 1
    assert unique > 50 and several > 50


@settings(deadline=None, max_examples=200)
@given(graphs(max_n=12))
def test_unique_perfect_matching_equals_the_full_peel_on_hypothesis_graphs(g):
    assert unique_perfect_matching(g) == upm_by_full_peel(g)


def test_unique_perfect_matching_peels_only_the_unforced_vertices(monkeypatch):
    calls = _spy_kernel_calls(monkeypatch)
    tree = Graph.from_edges(5000, random_tree_edges(5000, random.Random(3)))
    for g in (path_graph(10000), corona(tree)):
        assert len(unique_perfect_matching(g)) == 5000
    assert calls == []  # the forced pairs cover every forest
    g = _with_perfect_matching(2000, 1500, random.Random(2000))
    forced = _greedy_seed(g.adj)[1]
    unforced = forced.count(-1)
    assert 0 < unforced < g.n
    assert unique_perfect_matching(g) == upm_by_full_peel(g)
    assert calls == [unforced]


def test_c_test_refuses_a_matching_not_perfect_on_c():
    # the seed forces P2's one edge, all of C; a decomposition that puts
    # vertex 1 in A leaves the mate of 0 outside C, and no kernel call
    # would see it
    g = path_graph(2)
    ge = gallai_edmonds(g)
    assert ge.comp == (-4, -4) and ge.forced == (1, 0)
    with pytest.raises(InternalCheckError, match="not perfect on .* at vertex 0"):
        some_ur(g, ge=replace(ge, comp=(-4, -1)))


def test_c_test_refuses_a_forced_pair_outside_the_matching():
    c4 = cycle_graph(4)
    ge = gallai_edmonds(c4)
    assert ge.match == (1, 0, 3, 2)
    with pytest.raises(InternalCheckError, match="forced pair 0-3 .*not in the matching"):
        some_ur(c4, ge=replace(ge, forced=(3, -1, -1, 0)))


def test_unique_perfect_matching_refuses_a_forced_pair_outside_the_matching(monkeypatch):
    seed = matching._greedy_seed
    monkeypatch.setattr(matching, "_greedy_seed", lambda adj: (seed(adj)[0], [3, 2, 1, 0]))
    with pytest.raises(InternalCheckError, match="forced pair.* not in the matching"):
        unique_perfect_matching(cycle_graph(4))
