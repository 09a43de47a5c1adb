import random
import sys
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings

from ge_reference import gb_edge_condition_by_edges, unique_perfect_matching_by_deletion
from lemma_helpers import is_alternating_cycle
from strategies import (
    bipartite_graphs,
    giant,
    graphs,
    linear_triangle_tree,
    random_graph_nm,
    random_tree_edges,
    seeded_random_graphs,
    sparse_graph_nm,
)
from urmatch.decomposition import _VIEWS, gallai_edmonds, verify_gallai_edmonds
from urmatch.families import (
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
    validate_bipartition,
)
from urmatch import matching, recognition
from urmatch.matching import (
    Matching,
    _alternating_cycle,
    _peel,
    edge_in_some_maximum_matching,
    maximum_matching,
)
from urmatch.oracle import (
    enumerate_labeled_graphs,
    oracle_every_ur,
    oracle_some_ur,
)
from urmatch.recognition import (
    C_COMPONENT_PM_NOT_UNIQUE,
    D_COMPONENT_BLOCKS_NOT_ODD_CYCLES,
    D_COMPONENT_NO_UNIQUE_PM_VERTEX,
    FAILURE_TAGS,
    GB_EDGE_MULTIPLE_NEIGHBORS,
    _ATTACHMENTS,
    _c_upm,
    _perfect_minus,
    _unique_minus,
    allowed_edges,
    every_ur,
    every_ur_bipartite,
    every_ur_general,
    some_ur,
)
from urmatch.selftest import _component_all_near_perfect_unique
from urmatch.ur_core import build_matching_digraph, is_uniquely_restricted


def test_failure_tag_inventory():
    assert FAILURE_TAGS == frozenset({
        "c_component_pm_not_unique",
        "gb_no_ur_matching_within_E",
        "d_component_no_unique_pm_vertex",
        "d_component_blocks_not_odd_cycles",
        "gb_every_max_matching_not_ur",
        "gb_edge_multiple_neighbors",
        "gb_digraph_cyclic",
        "v_plus_not_forest",
        "v_minus_not_forest",
    })


def test_some_small_examples():
    r = some_ur(cycle_graph(4))
    assert (r.answer, r.failure) == (False, "c_component_pm_not_unique")
    r = some_ur(path_graph(3))
    assert r.answer and r.failure is None
    assert sorted(r.witness.edges) == [(0, 1)]
    r = some_ur(complete_graph(4))
    assert (r.answer, r.failure) == (False, "c_component_pm_not_unique")
    r = some_ur(complete_graph(5))
    assert (r.answer, r.failure) == (False, "d_component_no_unique_pm_vertex")


def test_every_small_examples():
    assert every_ur(cycle_graph(5)).answer
    r = every_ur(complete_graph(5))
    assert (r.answer, r.failure) == (False, "d_component_blocks_not_odd_cycles")
    assert every_ur(path_graph(3)).answer
    r = every_ur(cycle_graph(6))
    assert (r.answer, r.failure) == (False, "gb_digraph_cyclic")


def test_petersen():
    g = petersen_graph()
    assert (some_ur(g).answer, some_ur(g).failure) == (False, "c_component_pm_not_unique")
    assert every_ur(g).answer is False


def test_report_shape():
    r = some_ur(path_graph(3))
    assert r.property == "some_ur"
    assert every_ur(path_graph(3)).property == "every_ur"
    assert r.failures == ()
    r2 = some_ur(cycle_graph(4), all_failures=True)
    assert r2.failure == r2.failures[0]
    assert set(r2.failures) <= FAILURE_TAGS


def _two_c5_apex():
    # apex 0 attached to one vertex of each of two 5-cycles; the cycles are
    # the deficient components, the apex is the separator
    edges = [(0, 1), (0, 6)]
    for base in (1, 6):
        ring = list(range(base, base + 5))
        edges += [(ring[i], ring[(i + 1) % 5]) for i in range(5)]
    return Graph.from_edges(11, edges)


def test_apex_two_c5_instance():
    g = _two_c5_apex()
    ge = gallai_edmonds(g)
    assert sorted(ge.a_set) == [0]
    assert len(ge.d_components) == 2
    assert sorted(allowed_edges(g, ge)) == [(0, 1), (0, 2)]  # gb coordinates
    r = some_ur(g)
    assert r.answer
    assert sorted(r.witness.edges) == [(0, 1), (2, 3), (4, 5), (7, 8), (9, 10)]
    assert is_uniquely_restricted(g, r.witness)
    assert len(r.witness.edges) == len(maximum_matching(g))
    assert every_ur(g).answer


def _counting_peels(monkeypatch):
    """The number of vertices each peel of the deciders starts from."""
    calls = []

    def counting(adj, match, alive):
        calls.append(sum(alive))
        return _peel(adj, match, alive)

    monkeypatch.setattr(recognition, "_peel", counting)
    return calls


def _tested_sets(ge):
    """The vertex sets whose uniqueness answers ``ge.upms`` holds."""
    out = set()
    for key in ge.upms:
        if key == _ATTACHMENTS:
            continue
        if key[0] == "c":
            out.add(ge.c_components[key[1]])
        elif key[0] != "d":
            ci, h = key
            out.add(ge.d_components[ci] - {h})
    return out


def test_some_ur_tests_each_component_minus_h_once(monkeypatch):
    # allowed_edges, condition 3 and the witness all need C5 - 1 and C5 - 6
    g = _two_c5_apex()
    ge = gallai_edmonds(g)
    allowed_edges(g, ge)
    assert _tested_sets(ge) == {frozenset({2, 3, 4, 5}), frozenset({7, 8, 9, 10})}
    calls = _counting_peels(monkeypatch)
    ge = gallai_edmonds(g)
    r = some_ur(g, ge=ge)
    assert r.answer and calls == [4, 4]
    assert _tested_sets(ge) == {frozenset({2, 3, 4, 5}), frozenset({7, 8, 9, 10})}
    assert set(ge.upms) == {("d", 0), ("d", 1), (0, 1), (1, 6), _ATTACHMENTS}
    # K_{1,3}: three single-vertex components, each minus its h is empty
    calls.clear()
    assert some_ur(star_graph(3)).answer
    assert calls == []


def test_memo_keys_are_components_not_vertex_sets():
    # the giant of a sparse random graph has large D components
    g = random_graph_nm(400, 600, random.Random(3))
    ge = gallai_edmonds(g)
    some_ur(g, ge=ge, all_failures=True)
    every_ur(g, ge=ge)
    keys = set(ge.upms) - {_ATTACHMENTS}
    assert any(key[0] not in ("c", "d") for key in keys)
    assert not any(isinstance(key, frozenset) for key in keys)
    for key in keys:
        assert isinstance(key, tuple) and len(key) == 2
        if key[0] not in ("c", "d"):
            assert key[1] in ge.d_components[key[0]] and isinstance(ge.upms[key], bool)


def test_allowed_edges_drops_multi_neighbor_attachments():
    # apex 0 adjacent to two vertices of the triangle {1, 2, 3} and to the
    # pendants 4 and 5: A = {0}, gb edges (0, 1), (0, 2), (0, 3)
    g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (0, 4), (0, 5)])
    ge = gallai_edmonds(g)
    assert ge.a_set == {0}
    al = allowed_edges(g, ge)
    # the triangle's gb edge is dropped: the apex has two neighbors in it
    assert sorted(al) == [(0, 2), (0, 3)]
    for a_id, comp_id in al:
        orig = ge.contraction_map[a_id][1]
        comp = ge.d_components[ge.contraction_map[comp_id][1]]
        assert len([v for v in g.adj[orig] if v in comp]) == 1
    assert every_ur(g).failure == "gb_edge_multiple_neighbors"


def test_deciders_share_the_c_component_tests(monkeypatch):
    # triangle {0, 1, 2} (D), and the C components {3, 4} and {5, 6, 7, 8}
    g = Graph.from_edges(9, [(0, 1), (1, 2), (0, 2), (3, 4), (5, 6), (6, 7), (7, 8)])
    ge = gallai_edmonds(g)
    assert bipartition(g) is None and len(ge.c_components) == 2
    calls = _counting_peels(monkeypatch)
    assert some_ur(g, ge=ge).answer
    # one peel of all six C vertices, and one of the triangle minus h
    assert sorted(calls) == [2, 6]
    calls.clear()
    assert every_ur(g, ge=ge).answer
    assert calls == []
    # the memo and the matching are invisible to equality, hashing, repr and
    # the verifier
    fresh = gallai_edmonds(g)
    assert ge.upms and not fresh.upms
    assert (ge, hash(ge), repr(ge)) == (fresh, hash(fresh), repr(fresh))
    assert replace(ge, match=None) == replace(ge, comp=None, parent=None) == ge
    assert verify_gallai_edmonds(g, ge)
    kept = replace(ge, gb=ge.gb)
    assert kept.upms == {}
    assert (kept.comp, kept.match, kept.parent) == (ge.comp, ge.match, ge.parent)
    assert None not in (ge.comp, ge.match, ge.parent)


def _check_uniqueness_tests(g):
    """Every C component and every D component minus each of its vertices,
    against the deletion device on the induced graph; returns the answers."""
    ge = gallai_edmonds(g)
    seen = set()
    for ci, comp in enumerate(ge.c_components):
        sub, back = induced_subgraph(g, comp)
        ref = unique_perfect_matching_by_deletion(sub)
        upm = _c_upm(g, ge, ci)
        assert upm is None if ref is None else set(upm) == {(back[a], back[b]) for a, b in ref.edges}
    for ci, comp in enumerate(ge.d_components):
        for h in comp:
            ref = unique_perfect_matching_by_deletion(induced_subgraph(g, comp - {h})[0])
            assert _unique_minus(g, ge, ci, h) == (ref is not None)
            seen.add(ref is not None)
    _check_perfect_minus(g, ge)
    return seen


def test_uniqueness_tests_match_the_deletion_device():
    rng = random.Random(11)
    instances = [random_graph_nm(n, 3 * n // 2, rng) for n in (50, 100, 150, 200)]
    instances += [_triangle_tree(n_tree, 0.25, rng) for n_tree in (60, 120)]
    assert set().union(*map(_check_uniqueness_tests, instances)) == {True, False}


@settings(deadline=None, max_examples=150)
@given(graphs(max_n=11))
def test_uniqueness_tests_on_hypothesis_graphs(g):
    _check_uniqueness_tests(g)


def test_odd_cycle_minus_h_peels_without_bridge_search(monkeypatch):
    rounds = []
    real = matching._matched_bridges
    monkeypatch.setattr(matching, "_matched_bridges",
                        lambda *args: rounds.append(1) or real(*args))
    g = cycle_graph(20001)
    ge = gallai_edmonds(g)
    assert ge.d_components == (frozenset(range(20001)),)
    for h in (0, 1, 10000, 20000):
        assert _unique_minus(g, ge, 0, h)
    r = some_ur(g, ge=ge)
    assert r.answer and len(r.witness) == 10000
    assert rounds == []


def _check_memo_against_direct_peels(g):
    """Every D - h answer that ``some_ur`` leaves in the memo, asked for or
    written by a bulk rejection, against a path flip and a peel on a fresh
    decomposition; each "no" also yields a cycle that alternates under the
    perfect matching of D - h.  Returns the memoised answers."""
    ge, fresh = gallai_edmonds(g), gallai_edmonds(g)
    some_ur(g, ge=ge, all_failures=True)
    answers = {key: value for key, value in ge.upms.items()
               if key != _ATTACHMENTS and key[0] not in ("c", "d")}
    for (ci, h), answer in answers.items():
        _, adj, x, match = _perfect_minus(g, fresh, ci, h)
        alive = [True] * len(match)
        alive[x] = False
        rest = _peel(adj, match, alive)
        assert answer is (not rest)
        if rest:
            cycle = _alternating_cycle(adj, match, rest)
            assert is_alternating_cycle(adj, match, cycle) and set(cycle) <= set(rest)
    return answers


@settings(deadline=None, max_examples=150)
@given(graphs(max_n=12))
def test_memo_equals_direct_peels_on_hypothesis_graphs(g):
    _check_memo_against_direct_peels(g)


def test_memo_equals_direct_peels_on_giants(monkeypatch):
    calls = _counting_peels(monkeypatch)
    answers = {}
    for n in (250, 500, 1000, 2000):
        for seed in range(3):
            g = giant(sparse_graph_nm(n, 3 * n // 2, random.Random(seed)))
            answers.update({(n, seed, key): v for key, v in
                            _check_memo_against_direct_peels(g).items()})
    # far more "no" answers than peels: most were written in bulk
    assert set(answers.values()) == {True, False}
    assert sum(not v for v in answers.values()) > 5 * len(calls)


def test_large_d_component_without_good_h_is_fast(monkeypatch):
    # the square of C_2001 is factor-critical and every H - h holds an
    # alternating 4-cycle; the giant of a seeded G(8000, 12000) has a D
    # component of 2855 vertices with no good h
    n = 2001
    square = Graph.from_edges(n, [(i, (i + d) % n) for i in range(n) for d in (1, 2)])
    calls = _counting_peels(monkeypatch)
    for g in (square, giant(sparse_graph_nm(8000, 12000, random.Random(3)))):
        ge = gallai_edmonds(g)
        ci = max(range(len(ge.d_components)), key=lambda i: len(ge.d_components[i]))
        comp = sorted(ge.d_components[ci])
        assert len(comp) >= 2000
        calls.clear()
        t0 = time.perf_counter()
        assert not any(_unique_minus(g, ge, ci, h) for h in comp)
        assert time.perf_counter() - t0 < 2.0
        assert len(calls) <= 5
    report = some_ur(square, all_failures=True)
    assert report.failures == (D_COMPONENT_NO_UNIQUE_PM_VERTEX,)


def test_some_ur_scale_guard():
    # the counter-driven ordering decides each in about 1 s; rescanning the
    # unplaced vertices after each placement took 12 to 28 s
    tree = Graph.from_edges(64000, random_tree_edges(64000, random.Random(64000)))
    for g in (tree, linear_triangle_tree(42667, 0.25, random.Random(42667))):
        assert g.n >= 64000
        start = time.perf_counter()
        report = some_ur(g)
        assert time.perf_counter() - start < 5
        assert report.answer
        assert is_uniquely_restricted(g, report.witness)


def test_decomposition_without_matching_is_refused():
    g = _two_c5_apex()
    for name in ("match", "comp", "parent"):
        bare = replace(gallai_edmonds(g), **{name: None})
        for decide in (some_ur, every_ur_general):
            with pytest.raises(ValueError, match="no matching"):
                decide(g, ge=bare)
        with pytest.raises(ValueError, match="no matching"):
            allowed_edges(g, bare)


def test_early_stops_build_no_views():
    # C4 plus a disjoint triangle fails condition 1; K5 fails only the
    # D-block test
    c4_triangle = Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (4, 6)])
    k5 = complete_graph(5)
    runs = [(c4_triangle, every_ur, C_COMPONENT_PM_NOT_UNIQUE),
            (c4_triangle, some_ur, C_COMPONENT_PM_NOT_UNIQUE),
            (k5, every_ur, D_COMPONENT_BLOCKS_NOT_ODD_CYCLES)]
    for g, decide, tag in runs:
        ge = gallai_edmonds(g)
        assert decide(g, ge=ge).failure == tag
        assert not set(_VIEWS) & set(vars(ge))
    assert every_ur(k5, all_failures=True).failures == (D_COMPONENT_BLOCKS_NOT_ODD_CYCLES,)


def test_path_flips_from_the_matchers_pointers_at_scale():
    # every h of every D component flips to a perfect matching of H - h
    for n in (2000, 4000, 8000):
        rng = random.Random(n)
        for g in (giant(sparse_graph_nm(n, 3 * n // 2, rng)),
                  linear_triangle_tree(2 * n // 3, 0.25, rng)):
            ge = gallai_edmonds(g)
            assert any(len(comp) > 2 for comp in ge.d_components)
            _check_perfect_minus(g, ge)


def test_corrupt_path_pointers_raise():
    # C_7 has one D component with one free vertex f and three matched
    # pairs; pointers that leave the component, or loop among the pairs
    # without reaching f, raise instead of returning or hanging
    g = cycle_graph(7)
    ge = gallai_edmonds(g)
    match = ge.match
    (f,) = [v for v in range(7) if match[v] == -1]
    x, p0, p1 = sorted(v for v in range(7) if v != f and match[v] > v)
    m0, q0, q1 = match[x], match[p0], match[p1]
    loop = list(ge.parent)
    loop[m0], loop[q0], loop[q1], loop[p0] = p0, p1, m0, p1
    for parent in ((-1,) * 7, tuple(loop)):
        with pytest.raises(recognition.InternalCheckError, match="free vertex"):
            _perfect_minus(g, replace(ge, parent=parent), 0, x)


def test_one_alternating_forest_per_graph():
    # outside the matcher, only the alternating cycle and the rejection
    # search of a failed D - h test grow a forest; no labelling search, no
    # search per D component
    code = matching._search.__code__
    callers = []

    def watch(frame, event, arg):
        if event == "call" and frame.f_code is code:
            callers.append(frame.f_back.f_code.co_name)

    n = 2001
    square = Graph.from_edges(n, [(i, (i + d) % n) for i in range(n) for d in (1, 2)])
    instances = [_two_c5_apex(), square, linear_triangle_tree(400, 0.25, random.Random(5)),
               giant(sparse_graph_nm(600, 900, random.Random(6)))]
    for g in instances:
        assert bipartition(g) is None
        for decide in (some_ur, every_ur):
            sys.setprofile(watch)
            try:
                decide(g, all_failures=True)
            finally:
                sys.setprofile(None)
    assert set(callers) == {"_matcher", "_alternating_cycle", "_unique_minus"}


def test_every_route_builds_no_graph_matching_or_digraph():
    # the every route works on arrays and masks over g's and gb's adjacency:
    # the bipartite route (P_2000) and the general one (a triangle tree,
    # with D components, A and gb) build no induced graph, validate no sides
    # they made themselves, and build no Matching or MatchingDigraph
    banned = {f.__code__: f.__qualname__ for f in (
        induced_subgraph, validate_bipartition, Matching.from_edges.__func__, build_matching_digraph)}
    hits = []

    def watch(frame, event, arg):
        if event == "call" and frame.f_code in banned:
            hits.append(banned[frame.f_code])

    tree = linear_triangle_tree(1000, 0.25, random.Random(1))
    for g in (path_graph(2000), tree):
        for all_failures in (False, True):
            sys.setprofile(watch)
            try:
                every_ur(g, all_failures=all_failures)
            finally:
                sys.setprofile(None)
    assert hits == []
    assert bipartition(tree) is None and gallai_edmonds(tree).d_components


def test_family_grid():
    for k in range(2, 9):
        g = cycle_graph(2 * k)
        assert not some_ur(g).answer
        assert not every_ur(g).answer
    for k in range(1, 9):
        g = cycle_graph(2 * k + 1)
        assert some_ur(g).answer
        assert every_ur(g).answer
    for n in range(2, 13):
        g = path_graph(n)
        assert some_ur(g).answer
        assert every_ur(g).answer
    for n in range(4, 9):
        assert not some_ur(complete_graph(n)).answer
    for k in range(2, 6):
        assert not some_ur(complete_bipartite(k, k)).answer


def _check_instance(g):
    ge = gallai_edmonds(g)
    c_sub, c_map = induced_subgraph(g, ge.c_set)
    assert ge.c_components == tuple(
        frozenset(c_map[x] for x in comp) for comp in connected_components(c_sub))
    rs = some_ur(g, ge=ge)
    assert rs.answer == oracle_some_ur(g, max_n=12, max_m=66)
    if rs.answer:
        assert rs.witness is not None
        assert len(rs.witness.edges) == len(maximum_matching(g))
        assert is_uniquely_restricted(g, rs.witness)
    else:
        assert rs.failure in FAILURE_TAGS
    re_ = every_ur(g, ge=ge)
    assert re_.answer == oracle_every_ur(g, max_n=12, max_m=66)
    if not re_.answer:
        assert re_.failure in FAILURE_TAGS
    if re_.answer:
        assert rs.answer  # every maximum matching restricted-unique forces some
    if bipartition(g) is not None:
        assert every_ur_general(g, ge=ge).answer == re_.answer
    for comp in ge.d_components:
        by_blocks = blocks_are_odd_cycles(induced_subgraph(g, comp)[0])
        assert by_blocks == _component_all_near_perfect_unique(g, comp)
    _check_perfect_minus(g, ge)
    _check_gb_edge_condition(g, ge)


def _check_perfect_minus(g, ge):
    # the flipped path leaves a perfect matching of every D component minus h
    for ci, comp in enumerate(ge.d_components):
        for h in comp:
            verts, _, x, match = _perfect_minus(g, ge, ci, h)
            assert verts == sorted(comp) and match[x] == -1
            for a, b in enumerate(match):
                if a != x:
                    assert match[b] == a and edge_key(verts[a], verts[b]) in g.edges


def _check_gb_edge_condition(g, ge):
    # positive surplus puts every gb edge in some maximum matching of gb, so
    # the one pass over A agrees with the per-edge definition
    for e in ge.gb.sorted_edges():
        assert edge_in_some_maximum_matching(ge.gb, e)
    one_pass = GB_EDGE_MULTIPLE_NEIGHBORS not in every_ur_general(g, ge=ge, all_failures=True).failures
    assert one_pass == gb_edge_condition_by_edges(g, ge)


def _triangle_tree(n_tree, frac, rng):
    # uniform random tree (Pruefer decoding), then a pendant triangle v, x, y
    # on round(frac * n_tree) of its vertices
    code = [rng.randrange(n_tree) for _ in range(n_tree - 2)]
    degree = [1] * n_tree
    for x in code:
        degree[x] += 1
    edges = []
    for x in code:
        leaf = degree.index(1)
        edges.append((leaf, x))
        degree[leaf] = 0
        degree[x] -= 1
    edges.append(tuple(v for v in range(n_tree) if degree[v] == 1))
    n = n_tree
    for v in sorted(rng.sample(range(n_tree), round(frac * n_tree))):
        edges += [(v, n), (v, n + 1), (n, n + 1)]
        n += 2
    return Graph.from_edges(n, edges)


def test_gb_edge_condition_on_triangle_trees():
    rng = random.Random(5)
    for n_tree in (100, 200, 400):
        for _ in range(3):
            g = _triangle_tree(n_tree, 0.25, rng)
            ge = gallai_edmonds(g)
            assert ge.gb.m > 0
            _check_gb_edge_condition(g, ge)


def test_exhaustive_small():
    for n in range(6):
        for g in enumerate_labeled_graphs(n):
            _check_instance(g)


def test_seeded_random_midsize():
    for g in seeded_random_graphs(120, (7, 9), [0.2, 0.4, 0.6], seed=97):
        _check_instance(g)


@settings(deadline=None, max_examples=80)
@given(bipartite_graphs(max_side=4))
def test_bipartite_every_direct(gs):
    g, sides = gs
    r = every_ur_bipartite(g, sides)
    assert r.answer == oracle_every_ur(g, max_n=10, max_m=25)
    r2 = every_ur(g)
    assert r2.answer == r.answer


def test_ge_argument_reuse():
    g = _two_c5_apex()
    ge = gallai_edmonds(g)
    assert some_ur(g, ge=ge).answer == some_ur(g).answer
    assert every_ur(g, ge=ge).answer == every_ur(g).answer


def test_all_failures_collects_every_tag_stage():
    # complete graph on 6 vertices: one big perfectly matchable component
    r = some_ur(complete_graph(6), all_failures=True)
    assert not r.answer
    assert r.failures and all(t in FAILURE_TAGS for t in r.failures)
    r2 = every_ur(complete_graph(6), all_failures=True)
    assert not r2.answer and r2.failures


def test_all_failures_on_cyclic_gb_with_double_attachment():
    # A = {0, 1}; D components: the triangle {2, 3, 4}, {5} and {6}.  gb holds
    # the 4-cycle 0-T-1-{5}, and 0 has the two neighbors 2 and 3 in T
    g = Graph.from_edges(7, [(0, 2), (0, 3), (0, 5), (1, 2), (1, 5), (1, 6),
                             (2, 3), (2, 4), (3, 4)])
    ge = gallai_edmonds(g)
    assert (ge.a_set, len(ge.d_components)) == ({0, 1}, 3)
    assert every_ur_bipartite(ge.gb, ge.gb_sides).failure == "gb_digraph_cyclic"
    r = every_ur_general(g, ge=ge, all_failures=True)
    assert r.failures == ("gb_every_max_matching_not_ur", "gb_edge_multiple_neighbors")
    assert r.failure == "gb_every_max_matching_not_ur"
    assert every_ur(g, all_failures=True).failures == r.failures
    assert not r.answer and not oracle_every_ur(g)
