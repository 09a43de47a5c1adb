import importlib
import json
import pickle
import pkgutil
import random
import sys
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings

from every_reference import every_bipartite_by_objects
from ge_reference import (
    VIEWS,
    class_sets,
    gb_edge_condition_by_edges,
    gb_graph,
    gb_sides,
    unique_perfect_matching_by_deletion,
)
from lemma_helpers import component_all_near_perfect_unique, is_alternating_cycle
from peel_reference import _peel
from some_reference import _edges, _perfect_minus, d_verdicts
from strategies import (
    bipartite_graphs,
    corona,
    giant,
    graphs,
    linear_triangle_tree,
    random_graph_nm,
    random_tree_edges,
    seeded_random_graphs,
    sparse_graph_nm,
    two_c5_apex,
)
from urmatch.decomposition import gallai_edmonds, verify_gallai_edmonds
from urmatch.families import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    star_graph,
)
from urmatch.cli import main, render_graph
from urmatch.graph_core import (
    Graph,
    bipartition,
    blocks_are_odd_cycles,
    connected_components,
    edge_key,
    induced_subgraph,
    validate_bipartition,
)
import urmatch
from urmatch import matching, recognition
from urmatch.matching import (
    Matching,
    _m_alternating_cycle,
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
    _c_failure,
    _d_local,
    _flip,
    _odd_cycle,
    _unique_minus,
    allowed_edges,
    every_ur,
    every_ur_bipartite,
    some_ur,
)
from urmatch.ur_core import build_matching_digraph, is_uniquely_restricted


def test_failure_tag_inventory():
    assert FAILURE_TAGS == frozenset({
        "c_component_pm_not_unique",
        "gb_no_ur_matching_within_E",
        "d_component_no_unique_pm_vertex",
        "d_component_blocks_not_odd_cycles",
        "gb_every_max_matching_not_ur",
        "gb_edge_multiple_neighbors",
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
    assert (r.answer, r.failure) == (False, "c_component_pm_not_unique")


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


def test_apex_two_c5_instance():
    g = two_c5_apex()
    ge = gallai_edmonds(g)
    assert ge.a_list == [0]
    assert len(ge.d_members) == 2
    assert sorted(allowed_edges(g, ge)) == [(0, 1), (0, 2)]  # gb coordinates
    r = some_ur(g)
    assert r.answer
    assert sorted(r.witness.edges) == [(0, 1), (2, 3), (4, 5), (7, 8), (9, 10)]
    assert is_uniquely_restricted(g, r.witness)
    assert len(r.witness.edges) == len(maximum_matching(g))
    assert every_ur(g).answer


def _counting_kernel_calls(monkeypatch):
    """The number of live vertices each uniqueness test of the deciders
    (one call of the alternating-cycle kernel: the C test's in
    ``matching._unforced_cycle``, the D - h tests' in ``recognition``)
    starts from."""
    calls = []

    def counting(adj, match, live):
        calls.append(len(live))
        return _m_alternating_cycle(adj, match, live)

    for module in (matching, recognition):
        monkeypatch.setattr(module, "_m_alternating_cycle", counting)
    return calls


def _tested_sets(ge):
    """The vertex sets whose uniqueness answers ``ge.upms`` holds."""
    out = set()
    if "c" in ge.upms:  # a failing component, or all of them when none fails
        failure = ge.upms["c"]
        out.update(map(frozenset, ge.c_members if failure is None else [ge.c_members[failure]]))
    for ci, h in d_verdicts(ge):
        out.add(frozenset(ge.d_members[ci]) - {h})
    return out


def _two_chorded_c5_apex():
    # two_c5_apex with the chords 1-3 and 6-8: each component is a triangle
    # and a 4-cycle sharing an edge, factor-critical and no odd cycle
    g = two_c5_apex()
    return Graph.from_edges(11, [*g.edges, (1, 3), (6, 8)])


def test_some_ur_tests_each_component_minus_h_once(monkeypatch):
    # allowed_edges, condition 3 and the witness all need H - 1 and H - 6
    g = _two_chorded_c5_apex()
    ge = gallai_edmonds(g)
    allowed_edges(g, ge)
    assert _tested_sets(ge) == {frozenset({2, 3, 4, 5}), frozenset({7, 8, 9, 10})}
    calls = _counting_kernel_calls(monkeypatch)
    ge = gallai_edmonds(g)
    r = some_ur(g, ge=ge)
    assert r.answer and calls == [4, 4]
    assert _tested_sets(ge) == {frozenset({2, 3, 4, 5}), frozenset({7, 8, 9, 10})}
    assert set(ge.upms) == {("cycle", 0), ("cycle", 1), ("d", 0), ("d", 1)}
    assert d_verdicts(ge) == {(0, 1): True, (1, 6): True}
    # the two 5-cycles themselves, and K_{1,3}'s three single-vertex
    # components, each minus its h, need no test
    calls.clear()
    assert some_ur(two_c5_apex()).answer and some_ur(star_graph(3)).answer
    assert calls == []


def test_memo_keys_are_components_not_vertex_sets():
    # the giant of a sparse random graph has large D components
    g = random_graph_nm(400, 600, random.Random(3))
    ge = gallai_edmonds(g)
    some_ur(g, ge=ge, all_failures=True)
    every_ur(g, ge=ge)
    keys = set(ge.upms) - {"c"}
    assert ge.c_members and ge.upms["c"] in (None, *range(len(ge.c_members)))
    assert d_verdicts(ge)
    assert not any(isinstance(key, frozenset) for key in keys)
    for key in keys:
        assert isinstance(key, tuple) and len(key) == 2
        if key[0] == "cycle":
            assert ge.upms[key] is False and len(ge.d_members[key[1]]) > 3
        else:  # one verdict list per component, over its local ids
            assert key[0] == "d"
            verts, verdict = ge.upms[key][0], ge.upms[key][4]
            assert verts == ge.d_members[key[1]] and len(verdict) == len(verts)
    for (ci, h), answer in d_verdicts(ge).items():
        assert h in ge.d_members[ci] and isinstance(answer, bool)


def test_allowed_edges_drops_multi_neighbor_attachments():
    # apex 0 adjacent to two vertices of the triangle {1, 2, 3} and to the
    # pendants 4 and 5: A = {0}, gb edges (0, 1), (0, 2), (0, 3)
    g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (0, 4), (0, 5)])
    ge = gallai_edmonds(g)
    assert ge.a_list == [0]
    al = allowed_edges(g, ge)
    # the triangle's gb edge is dropped: the apex has two neighbors in it
    assert sorted(al) == [(0, 2), (0, 3)]
    for a_id, comp_id in al:
        orig = ge.a_list[a_id]
        comp = ge.d_members[comp_id - len(ge.a_list)]
        assert len([v for v in g.adj[orig] if v in comp]) == 1
    assert every_ur(g).failure == "gb_edge_multiple_neighbors"


def test_deciders_share_the_c_component_tests(monkeypatch):
    # the 5-cycle 0-1-2-3-4 with the chord 0-2 (D), and the C components
    # {5, 6}, a forced pair, and the triangles 7-8-9 and 10-11-12 joined
    # by the edge 9-10, where the seed forces nothing
    g = Graph.from_edges(13, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2), (5, 6),
                              (7, 8), (8, 9), (7, 9), (9, 10), (10, 11), (11, 12), (10, 12)])
    ge = gallai_edmonds(g)
    assert bipartition(g) is None and len(ge.c_members) == 2
    calls = _counting_kernel_calls(monkeypatch)
    assert some_ur(g, ge=ge).answer
    # one test of the six C vertices outside the forced pair, and one of
    # the D component minus h
    assert sorted(calls) == [4, 6]
    calls.clear()
    # every reads the C answer from the memo; the chord fails its block test
    assert every_ur(g, ge=ge).failure == D_COMPONENT_BLOCKS_NOT_ODD_CYCLES
    assert calls == []
    # the memo and the matching are invisible to equality, hashing, repr and
    # the verifier
    fresh = gallai_edmonds(g)
    assert ge.upms and not fresh.upms
    assert (ge, hash(ge), repr(ge)) == (fresh, hash(fresh), repr(fresh))
    assert replace(ge, match=None) == replace(ge, parent=None) == ge
    assert verify_gallai_edmonds(g, ge)
    kept = replace(ge)
    assert kept.upms == {}
    assert (kept.comp, kept.match, kept.parent) == (ge.comp, ge.match, ge.parent)
    assert None not in (ge.comp, ge.match, ge.parent)


def test_general_route_shares_the_one_matching(monkeypatch):
    # once g is decomposed, neither decider matches anything again: gb's
    # answers follow from the structure theorem, not from a matching of gb
    instances = [linear_triangle_tree(400, 0.25, random.Random(5)),
                 giant(sparse_graph_nm(400, 600, random.Random(3))), two_c5_apex()]
    decomposed = [(g, gallai_edmonds(g)) for g in instances]

    def refuse(*args):
        raise AssertionError("a decider matched again")

    for name in ("_max_match_array", "_matcher"):
        monkeypatch.setattr(matching, name, refuse)
    answers = set()
    for g, ge in decomposed:
        assert bipartition(g) is None
        for all_failures in (False, True):
            some = some_ur(g, ge=ge, all_failures=all_failures)
            every = every_ur(g, ge=ge, all_failures=all_failures)
            answers.add((some.answer, every.answer))
    assert len(answers) > 1


def test_bipartite_route_shares_the_one_matching(monkeypatch):
    # given a decomposition, every_ur matches nothing on bipartite g either,
    # and its reports equal those of a call without one
    rng = random.Random(11)
    instances = [path_graph(401), corona(Graph.from_edges(200, random_tree_edges(200, rng))),
                 Graph.from_edges(400, {(rng.randrange(200), 200 + rng.randrange(200)) for _ in range(600)})]
    runs = [(g, gallai_edmonds(g), {af: every_ur(g, all_failures=af) for af in (False, True)})
            for g in instances]

    def refuse(*args):
        raise AssertionError("a decider matched again")

    for name in ("_max_match_array", "_matcher"):
        monkeypatch.setattr(matching, name, refuse)
    answers = set()
    for g, ge, want in runs:
        assert bipartition(g) is not None
        for all_failures in (False, True):
            every = every_ur(g, ge=ge, all_failures=all_failures)
            assert every == want[all_failures]
            answers.add(every.answer)
    assert answers == {True, False}


def _check_uniqueness_tests(g):
    """Every C component and every D component minus each of its vertices,
    against the deletion device on the induced graph; returns the answers."""
    ge = gallai_edmonds(g)
    seen = set()
    failing = set()
    for ci, comp in enumerate(ge.c_members):
        sub, back = induced_subgraph(g, comp)
        ref = unique_perfect_matching_by_deletion(sub)
        if ref is None:
            failing.add(ci)
        else:  # the unique one is ge.match on the component
            assert {(back[a], back[b]) for a, b in ref.edges} == {(v, ge.match[v]) for v in comp if ge.match[v] > v}
    failure = _c_failure(g, ge)
    assert (failure is None) == (not failing) and (failure is None or failure in failing)
    for ci, comp in enumerate(ge.d_members):
        for h in comp:
            ref = unique_perfect_matching_by_deletion(induced_subgraph(g, set(comp) - {h})[0])
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


def test_chorded_odd_cycle_minus_h_takes_one_kernel_call_each(monkeypatch):
    # C_20001 with the chord 0-2: a triangle and an odd ear, so no odd
    # cycle; H - h for these h is a tree of paths off the triangle, which
    # one kernel call decides
    calls = _counting_kernel_calls(monkeypatch)
    n = 20001
    g = Graph.from_edges(n, [*cycle_graph(n).edges, (0, 2)])
    ge = gallai_edmonds(g)
    assert ge.d_members == [list(range(n))]
    for h in (0, 2, 10000, 20000):
        assert _unique_minus(g, ge, 0, h)
    assert ge.upms[("cycle", 0)] is False and ("d", 0) in ge.upms
    assert calls == [n - 1] * 4
    r = some_ur(g, ge=ge)
    assert r.answer and len(r.witness) == 10000


def _check_memo_against_direct_peels(g):
    """Every D - h answer that ``some_ur`` leaves in the memo, asked for or
    written by a bulk rejection, against a path flip, the reference peel
    and one direct kernel call on a fresh decomposition; each "no" of the
    kernel is a cycle that alternates under the perfect matching of D - h
    and lies in what the peel leaves.  Returns the memoised answers."""
    ge, fresh = gallai_edmonds(g), gallai_edmonds(g)
    some_ur(g, ge=ge, all_failures=True)
    answers = d_verdicts(ge)
    for (ci, h), answer in answers.items():
        _, adj, x, match = _perfect_minus(g, fresh, ci, h)
        alive = [True] * len(match)
        alive[x] = False
        rest = _peel(adj, match, alive)
        cycle = _m_alternating_cycle(adj, match, [y for y in range(len(match)) if y != x])
        assert answer is (not rest) is (cycle is None)
        if cycle is not None:
            assert is_alternating_cycle(adj, match, cycle) and set(cycle) <= set(rest)
    return answers


@settings(deadline=None, max_examples=150)
@given(graphs(max_n=12))
def test_memo_equals_direct_peels_on_hypothesis_graphs(g):
    _check_memo_against_direct_peels(g)


def test_memo_equals_direct_peels_on_giants(monkeypatch):
    calls = _counting_kernel_calls(monkeypatch)
    answers = {}
    for n in (250, 500, 1000, 2000):
        for seed in range(3):
            g = giant(sparse_graph_nm(n, 3 * n // 2, random.Random(seed)))
            answers.update({(n, seed, key): v for key, v in
                            _check_memo_against_direct_peels(g).items()})
    # far more "no" answers than tests: most were written in bulk
    assert set(answers.values()) == {True, False}
    assert sum(not v for v in answers.values()) > 5 * len(calls)


def test_large_d_component_without_good_h_is_fast(monkeypatch):
    # the square of C_2001 is factor-critical and every H - h holds an
    # alternating 4-cycle; the giant of a seeded G(8000, 12000) has a D
    # component of 2855 vertices with no good h
    n = 2001
    square = Graph.from_edges(n, [(i, (i + d) % n) for i in range(n) for d in (1, 2)])
    calls = _counting_kernel_calls(monkeypatch)
    for g in (square, giant(sparse_graph_nm(8000, 12000, random.Random(3)))):
        ge = gallai_edmonds(g)
        ci = max(range(len(ge.d_members)), key=lambda i: len(ge.d_members[i]))
        comp = ge.d_members[ci]
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
    g = two_c5_apex()
    for name in ("match", "comp", "parent", "forced"):
        bare = replace(gallai_edmonds(g), **{name: None})
        for decide in (some_ur, every_ur):
            with pytest.raises(ValueError, match="no matching"):
                decide(g, ge=bare)
        with pytest.raises(ValueError, match="no matching"):
            allowed_edges(g, bare)


def test_decomposition_of_another_graph_is_refused():
    # a path's decomposition on a cycle once gave some_ur's answer for the
    # path, with the witness {(0, 1)}
    g, other = cycle_graph(7), gallai_edmonds(path_graph(3))
    k5 = gallai_edmonds(complete_graph(5))  # all D, as C5: equal, not the same graph
    assert k5 == gallai_edmonds(cycle_graph(5))
    for h, ge in ((g, other), (cycle_graph(5), k5)):
        for decide in (some_ur, every_ur):
            with pytest.raises(ValueError, match="another graph"):
                decide(h, ge=ge)
        with pytest.raises(ValueError, match="another graph"):
            allowed_edges(h, ge)
        assert not verify_gallai_edmonds(h, ge)
    with pytest.raises(ValueError, match="another graph"):
        every_ur(path_graph(4), ge=gallai_edmonds(cycle_graph(5)))
    # an equal adjacency will do: a pickled decomposition holds a copy
    copied = pickle.loads(pickle.dumps(gallai_edmonds(g)))
    assert copied.adj is not g.adj
    assert some_ur(g, ge=copied) == some_ur(g)
    assert every_ur(g, ge=copied) == every_ur(g)


def test_early_stops_build_no_views():
    # C4 plus a disjoint triangle fails condition 1; K5 fails only the
    # D-block test.  Each run reads the component counts, to loop over the
    # C components, and no other view: no member list
    c4_triangle = Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (4, 6)])
    k5 = complete_graph(5)
    runs = [(c4_triangle, every_ur, C_COMPONENT_PM_NOT_UNIQUE),
            (c4_triangle, some_ur, C_COMPONENT_PM_NOT_UNIQUE),
            (k5, every_ur, D_COMPONENT_BLOCKS_NOT_ODD_CYCLES)]
    for g, decide, tag in runs:
        ge = gallai_edmonds(g)
        assert decide(g, ge=ge).failure == tag
        assert set(VIEWS) & set(vars(ge)) == {"counts"}
    assert every_ur(k5, all_failures=True).failures == (D_COMPONENT_BLOCKS_NOT_ODD_CYCLES,)


def test_reports_stop_at_the_first_failing_condition(monkeypatch):
    # C4's two perfect matchings fail the first condition of each decider;
    # without all_failures no later condition runs, with it every one does
    c4 = cycle_graph(4)
    c4_triangle = Graph.from_edges(7, [*c4.edges, (4, 5), (5, 6), (4, 6)])
    cases = (("_e_good_ordering", some_ur, c4_triangle, C_COMPONENT_PM_NOT_UNIQUE),
             ("_odd_cycle_blocks", every_ur, c4, C_COMPONENT_PM_NOT_UNIQUE))
    for name, decide, g, first in cases:
        calls = []
        real = getattr(recognition, name)
        monkeypatch.setattr(recognition, name, lambda *args, real=real: calls.append(1) or real(*args))
        r = decide(g)
        assert (r.failure, r.failures, calls) == (first, (first,), [])
        r = decide(g, all_failures=True)
        assert r.failures[0] == first and calls


@settings(deadline=None, max_examples=150)
@given(graphs(max_n=11))
def test_every_builds_no_member_lists(g):
    # the C and D loops count the components off the component array
    ge = gallai_edmonds(g)
    every_ur(g, ge=ge, all_failures=True)
    # and gb's two conditions read the attachments
    assert not {"c_members", "d_members"} & set(vars(ge))


def test_deciders_build_no_block_lists(tmp_path, capsys):
    # the D-block test runs one search of its own, and the uniqueness
    # tests none; the edge-stack block search lives on only in
    # tests/every_reference.py, so no library module can read block lists
    for info in pkgutil.iter_modules(urmatch.__path__):
        module = importlib.import_module(f"urmatch.{info.name}")
        assert not {"_blocks", "biconnected_blocks"} & set(vars(module))
    rng = random.Random(5)
    instances = [linear_triangle_tree(40, 0.25, rng), giant(sparse_graph_nm(120, 180, rng)),
                 cycle_graph(9), complete_graph(5)]
    want = [(some_ur(g, all_failures=True), every_ur(g, all_failures=True)) for g in instances]
    path = tmp_path / "g.txt"
    for g, (some, every) in zip(instances, want):
        path.write_text(render_graph(g), encoding="utf-8")
        assert main(["check", str(path), "--property", "both", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [p["answer"] for p in payload] == [some.answer, every.answer]


def test_path_flips_from_the_matchers_pointers_at_scale():
    # every h of every D component flips to a perfect matching of H - h
    for n in (2000, 4000, 8000):
        rng = random.Random(n)
        for g in (giant(sparse_graph_nm(n, 3 * n // 2, rng)),
                  linear_triangle_tree(2 * n // 3, 0.25, rng)):
            ge = gallai_edmonds(g)
            assert any(len(comp) > 2 for comp in ge.d_members)
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
            _flip(replace(ge, parent=parent), 0, x, list(match), range(7))
        with pytest.raises(recognition.InternalCheckError, match="free vertex"):
            _perfect_minus(g, replace(ge, parent=parent), 0, x)


def test_path_walk_raises_on_a_vertex_met_twice():
    # in C_7, pointers from x through m0, p0 and q0 back to m0, and on from
    # x to the free vertex f, would end the walk at f with m0 paired twice;
    # the walk raises, on g's ids and on the component's local ones
    g = cycle_graph(7)
    ge = gallai_edmonds(g)
    match = ge.match
    (f,) = [v for v in range(7) if match[v] == -1]
    x, p0, _ = sorted(v for v in range(7) if v != f and match[v] > v)
    m0, q0 = match[x], match[p0]
    parent = list(ge.parent)
    parent[m0], parent[q0], parent[x] = p0, m0, f
    bad = replace(ge, parent=tuple(parent))
    _, pos, _, base, _ = _d_local(g, bad, 0)
    for mate, ids in ((list(match), range(7)), (base[:], pos)):
        with pytest.raises(recognition.InternalCheckError, match="free vertex"):
            _flip(bad, 0, x, mate, ids)


def test_witness_walk_raises_on_a_pointer_out_of_the_component():
    # in the two 5-cycles under an apex, a pointer from the first cycle to
    # the apex (A) or into the second cycle leaves the component
    g = two_c5_apex()
    ge = gallai_edmonds(g)
    h = next(v for v in ge.d_members[0] if ge.comp[ge.match[v]] == 0)
    for out in (0, 6):
        parent = list(ge.parent)
        parent[ge.match[h]] = out
        bad = replace(ge, parent=tuple(parent))
        with pytest.raises(recognition.InternalCheckError, match="free vertex"):
            _flip(bad, 0, h, list(bad.match), range(g.n))
        with pytest.raises(recognition.InternalCheckError, match="free vertex"):
            _perfect_minus(g, bad, 0, h)


def test_witness_walk_equals_the_local_flip_on_sparse_graphs():
    # the one walk on g's arrays, read as the kernel's input and as witness
    # edges, against the local-id walk, on the giants and triangle trees
    # that tests/test_every_cores.py decides
    instances = [giant(sparse_graph_nm(n, 3 * n // 2, random.Random(seed)))
                 for n, seed in ((2000, 0), (4000, 3), (8000, 0))]
    instances += [linear_triangle_tree(n, 0.25, random.Random(n)) for n in (1334, 2667, 5334)]
    sizes = set()
    for g in instances:
        ge = gallai_edmonds(g)
        sizes.update(map(len, ge.d_members))
        _check_perfect_minus(g, ge)
    assert {1, 3} < sizes and max(sizes) > 1000


def _check_odd_cycle_rule(g, sample=None):
    """For every D component that its induced edge count makes an odd
    cycle, and every h in it (or in ``sample(members)``): the route the
    rule bypasses, the kernel on ``_perfect_minus``, finds no cycle, the
    reference peel leaves nothing, and
    ``_unique_minus`` says yes without a relabelled copy.  ``_odd_cycle``
    agrees with the count on every component above three vertices.
    Returns the cycles' sizes."""
    ge, fresh = gallai_edmonds(g), gallai_edmonds(g)
    sizes = []
    for ci, members in enumerate(ge.d_members):
        cycle = induced_subgraph(g, members)[0].m == len(members)
        if len(members) > 3:
            assert _odd_cycle(g, ge, ci) == cycle
        if not cycle:
            continue
        sizes.append(len(members))
        for h in members if sample is None else sample(members):
            assert _unique_minus(g, ge, ci, h)
            _, adj, x, match = _perfect_minus(g, fresh, ci, h)
            alive = [True] * len(match)
            alive[x] = False
            assert _m_alternating_cycle(adj, match, [y for y in range(len(match)) if y != x]) is None
            assert not _peel(adj, match, alive)
        assert ("d", ci) not in ge.upms
    return sizes


@settings(deadline=None, max_examples=200)
@given(graphs(max_n=11))
def test_odd_cycle_rule_equals_the_peel_on_hypothesis_graphs(g):
    _check_odd_cycle_rule(g)


def test_odd_cycle_rule_equals_the_peel_on_cycles_and_triangle_trees():
    sizes = []
    for k in range(1, 101):
        sizes += _check_odd_cycle_rule(cycle_graph(2 * k + 1))
    rng = random.Random(20001)
    sizes += _check_odd_cycle_rule(cycle_graph(20001), lambda members: [0, 1, 10000, 20000, *rng.sample(members, 4)])
    sizes += _check_odd_cycle_rule(two_c5_apex())
    for n in (400, 1334):
        sizes += _check_odd_cycle_rule(linear_triangle_tree(n, 0.25, random.Random(n)))
    assert sizes.count(3) > 100 and sizes.count(5) == 3 and max(sizes) == 20001


def test_odd_cycle_components_take_no_peel(monkeypatch):
    # on a triangle tree and on C_20001 some_ur tests C once, if the
    # forced pairs leave some of it, and no D component: each is an odd
    # cycle
    calls = _counting_kernel_calls(monkeypatch)
    for g in (linear_triangle_tree(2000, 0.25, random.Random(7)), cycle_graph(20001)):
        ge = gallai_edmonds(g)
        r = some_ur(g, ge=ge)
        assert r.answer and is_uniquely_restricted(g, r.witness)
        assert max(map(len, ge.d_members)) >= 3
        unforced = [v for v in class_sets(ge)[2] if ge.forced[v] == -1]
        assert calls == ([len(unforced)] if unforced else [])
        assert not any(key[0] == "d" for key in ge.upms if key != "c")
        calls.clear()


def test_one_alternating_forest_per_graph():
    # outside the matcher, only the rejection search of a failed D - h
    # test grows a forest (the alternating-cycle kernel grows its own
    # trees); no labelling search, no search per D component
    code = matching._search.__code__
    callers = []

    def watch(frame, event, arg):
        if event == "call" and frame.f_code is code:
            callers.append(frame.f_back.f_code.co_name)

    n = 2001
    square = Graph.from_edges(n, [(i, (i + d) % n) for i in range(n) for d in (1, 2)])
    instances = [two_c5_apex(), square, linear_triangle_tree(400, 0.25, random.Random(5)),
               giant(sparse_graph_nm(600, 900, random.Random(6)))]
    for g in instances:
        assert bipartition(g) is None
        for decide in (some_ur, every_ur):
            sys.setprofile(watch)
            try:
                decide(g, all_failures=True)
            finally:
                sys.setprofile(None)
    assert set(callers) == {"_matcher", "_unique_minus"}


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
    assert bipartition(tree) is None and gallai_edmonds(tree).d_members


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
    c_sub, c_map = induced_subgraph(g, class_sets(ge)[2])
    assert ge.c_members == [sorted(c_map[x] for x in comp) for comp in connected_components(c_sub)]
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
    for comp in ge.d_members:
        by_blocks = blocks_are_odd_cycles(induced_subgraph(g, comp)[0])
        assert by_blocks == component_all_near_perfect_unique(g, comp)
    _check_perfect_minus(g, ge)
    _check_gb_edge_condition(g, ge)


def _check_perfect_minus(g, ge):
    # the flipped path leaves a perfect matching of every D component minus
    # h; the one walk on g's arrays gives the local walk's kernel input, as
    # _unique_minus builds it, and its edges, as the witness reads them
    mate = ge.match
    for ci, comp in enumerate(ge.d_members):
        _, pos, _, base, _ = _d_local(g, ge, ci)
        assert base == [pos.get(mate[v], -1) for v in comp]
        for h in comp:
            verts, _, x, match = _perfect_minus(g, ge, ci, h)
            assert verts == comp and match[x] == -1
            for a, b in enumerate(match):
                if a != x:
                    assert match[b] == a and edge_key(verts[a], verts[b]) in g.edges
            flipped = list(mate)
            _flip(ge, ci, h, flipped, range(g.n))
            assert [pos.get(flipped[v], -1) for v in verts] == match
            patched = base[:]
            _flip(ge, ci, h, patched, pos)
            assert patched == match
            assert [(v, w) for v in verts if (w := flipped[v]) > v] == _edges(verts, match)


def _check_gb_edge_condition(g, ge):
    # positive surplus puts every gb edge in some maximum matching of gb, so
    # the one pass over A agrees with the per-edge definition
    gb = gb_graph(ge)
    for e in gb.sorted_edges():
        assert edge_in_some_maximum_matching(gb, e)
    one_pass = GB_EDGE_MULTIPLE_NEIGHBORS not in every_ur(g, ge=ge, all_failures=True).failures
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
            assert ge.attachments
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
    g = two_c5_apex()
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
    assert (ge.a_list, len(ge.d_members)) == ([0, 1], 3)
    # gb, a 4-cycle with a pendant, fails the D(M) test: under the matcher's
    # M (0-3, 1-4 in gb's ids) D(M) is acyclic but V- is all of gb
    assert every_bipartite_by_objects(gb_graph(ge), gb_sides(ge), all_failures=True) == ["v_minus_not_forest"]
    r = every_ur(g, ge=ge, all_failures=True)
    assert r.failures == ("gb_every_max_matching_not_ur", "gb_edge_multiple_neighbors")
    assert r.failure == "gb_every_max_matching_not_ur"
    assert every_ur(g, all_failures=True) == r
    assert not r.answer and not oracle_every_ur(g)
