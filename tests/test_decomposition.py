import ast
import copy
import itertools
import pickle
import random
import time
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings

from ge_reference import VIEWS, claim, class_sets, classes_by_a_pass, contract_by_sets, gb_graph, verify_by_resolving
from lemma_helpers import delete_vertex, is_factor_critical
from strategies import giant, graphs, linear_triangle_tree, seeded_random_graphs, sparse_graph_nm
from urmatch import decomposition, matching
from urmatch.decomposition import gallai_edmonds, verify_gallai_edmonds
from urmatch.families import (
    bowtie_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    star_graph,
)
from urmatch.graph_core import Graph, induced_subgraph
from urmatch.recognition import _c_failure, every_ur, some_ur
from urmatch.matching import InternalCheckError, maximum_matching, missable_vertices
from urmatch.oracle import enumerate_labeled_graphs


def _claim(g, d_set):
    return claim(g, classes_by_a_pass(g, d_set))


def _labels(g, d_set):
    """The matcher's labels that ``d_set`` as D induces: A is its outside
    neighborhood, C the rest."""
    a_set = {w for v in d_set for w in g.adj[v]} - set(d_set)
    return [matching._DEAD_EVEN if v in d_set else matching._DEAD_ODD if v in a_set else matching._UNLABELLED
            for v in range(g.n)]


def _views(ge):
    """Every view of ``ge``, its ``comp`` and gb built from its attachment
    keys, keyed by name, as ``contract_by_sets`` returns them."""
    return {name: getattr(ge, name) for name in VIEWS + ("comp",)} | {"gb_graph": gb_graph(ge)}


def test_star_decomposition():
    # leaves are missable, the center is their neighborhood
    g = star_graph(4)
    ge = gallai_edmonds(g)
    assert class_sets(ge) == (frozenset({1, 2, 3, 4}), frozenset({0}), frozenset())
    assert len(ge.d_members) == 4
    assert ge.attachments == {(0, 0): 1, (0, 1): 2, (0, 2): 3, (0, 3): 4}
    assert verify_gallai_edmonds(g, ge)


def test_odd_cycle_decomposition():
    g = cycle_graph(7)
    ge = gallai_edmonds(g)
    assert class_sets(ge) == (frozenset(range(7)), frozenset(), frozenset())
    assert len(ge.d_members) == 1
    assert verify_gallai_edmonds(g, ge)


def test_perfectly_matchable_graph_is_all_c():
    for g in (path_graph(6), cycle_graph(8), complete_graph(4), petersen_graph()):
        ge = gallai_edmonds(g)
        assert class_sets(ge) == (frozenset(), frozenset(), frozenset(range(g.n)))
        assert gb_graph(ge).n == 0
        assert verify_gallai_edmonds(g, ge)


def test_bowtie_decomposition():
    g = bowtie_graph()
    ge = gallai_edmonds(g)
    assert class_sets(ge)[:2] == (frozenset(range(5)), frozenset())
    assert len(ge.d_members) == 1
    assert verify_gallai_edmonds(g, ge)


def test_contraction_map_layout():
    g = star_graph(2)  # center 0, leaves 1 and 2
    ge = gallai_edmonds(g)
    # gb is a-side ids first, then component ids ordered by lowest member:
    # gb vertex 0 is A-vertex 0, and 1 and 2 are the components {1} and {2}
    assert ge.a_list == [0]
    assert ge.d_members == [[1], [2]]
    assert gb_graph(ge).n == len(ge.a_list) + ge.counts[0] == 3
    assert gb_graph(ge).edges == frozenset({(0, 1), (0, 2)})
    assert ge.attachments == {(0, 0): 1, (0, 1): 2}


@settings(deadline=None, max_examples=150)
@given(graphs(max_n=9))
def test_structure_theorem_invariants(g):
    ge = gallai_edmonds(g)
    assert verify_gallai_edmonds(g, ge)
    assert class_sets(ge)[0] == missable_vertices(g)
    for comp in ge.d_members:
        sub, _ = induced_subgraph(g, comp)
        assert is_factor_critical(sub)
    nu = len(maximum_matching(g))
    deficiency = g.n - 2 * nu
    assert deficiency == len(ge.d_members) - len(ge.a_list)
    assert len(maximum_matching(gb_graph(ge))) == len(ge.a_list)


@settings(deadline=None, max_examples=100)
@given(graphs(max_n=8))
def test_c_set_invariant_under_a_deletion(g):
    # deleting one a-vertex leaves every former D-vertex missable
    ge = gallai_edmonds(g)
    for a in ge.a_list:
        h, id_map = delete_vertex(g, a)
        back = {orig: new for new, orig in enumerate(id_map)}
        miss = missable_vertices(h)
        for v in class_sets(ge)[0]:
            assert back[v] in miss


def _corrupt_claims():
    """(graph, claim) pairs the verifier must reject.  On K_{1,3}: the
    decomposition that a wrong D induces; a component array that disagrees
    with the one D induces, or an adjacency that is not g's (the true one
    has A = {0} and three single D components).  On C4: two halves of its
    one C component, and its two matched pairs marked forced, which the
    seed never forced, as the seed's first step on C4 is a greedy one."""
    g, c4 = star_graph(3), cycle_graph(4)
    ge = gallai_edmonds(g)
    return [(g, wrong) for wrong in (
        _claim(g, {0, 1, 2, 3}),
        claim(g, (-4, 0, 1, 2)),  # A marked as C
        claim(g, (-1, 0, 0, 1)),  # two components merged
        claim(g, (-1, 1, 0, 2)),  # not numbered by lowest vertex
        claim(g, (-1, 0, 1)),
        replace(ge, adj=star_graph(4).adj[:4]),
        replace(ge, comp=None),
    )] + [(c4, claim(c4, (-4, -4, -5, -5))), (c4, replace(gallai_edmonds(c4), forced=(1, 0, 3, 2)))]


def test_verifier_catches_corruption():
    g = star_graph(3)
    ge = gallai_edmonds(g)
    assert verify_gallai_edmonds(g, ge)
    assert (ge.comp, ge.a_list, ge.d_members, ge.c_members) == ((-1, 0, 1, 2), [0], [[1], [2], [3]], [])
    for host, wrong in _corrupt_claims():
        assert not verify_gallai_edmonds(host, wrong)
    assert verify_gallai_edmonds(g, claim(g, (-1, 0, 1, 2)))
    # C5 is one D component, whatever order a caller lists it in
    c5 = cycle_graph(5)
    assert verify_gallai_edmonds(c5, claim(c5, (0,) * 5))
    assert gallai_edmonds(c5).d_members == [[0, 1, 2, 3, 4]]
    # C4 is all C: one component, not two halves
    c4 = cycle_graph(4)
    assert gallai_edmonds(c4).c_members == [[0, 1, 2, 3]]


def test_verifier_rejects_pairs_the_seed_did_not_force():
    # C4 has two perfect matchings, but a claim that both pairs of the one
    # it was decomposed with are forced would let the C test skip them all
    c4 = cycle_graph(4)
    ge = gallai_edmonds(c4)
    assert ge.match == (1, 0, 3, 2) and ge.forced == (-1,) * 4
    assert verify_gallai_edmonds(c4, ge)
    wrong = replace(ge, forced=ge.match)
    assert not verify_gallai_edmonds(c4, wrong)
    assert _c_failure(c4, ge) == 0 and _c_failure(c4, wrong) is None
    # a claim without forced pairs is rejected, not re-solved
    assert not verify_gallai_edmonds(c4, replace(ge, forced=None))


def test_verifier_re_solves_nothing(monkeypatch):
    # the verifier checks the claim's own certificate: it imports nothing
    # from ur_core and none of the matching solvers, its body names no
    # matcher, and it runs none, also for a claim without a certificate,
    # which it rejects
    retired = {"induced_subgraph", "is_factor_critical", "maximum_matching", "_max_match_array", "_reach",
               "maximum_matching_bipartite"}
    tree = ast.parse(Path(decomposition.__file__).read_text())
    imports = [(node.module, a.name) for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               for a in node.names]
    assert [(m, name) for m, name in imports if m == "ur_core" or name in retired] == []
    verifier = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == "verify_gallai_edmonds")
    assert "_matcher" not in {node.id for node in ast.walk(verifier) if isinstance(node, ast.Name)}
    calls = []
    real = decomposition._matcher
    monkeypatch.setattr(decomposition, "_matcher", lambda g: calls.append(g) or real(g))
    for g in (star_graph(3), cycle_graph(5), giant(sparse_graph_nm(2000, 3000, random.Random(2000)))):
        ge = gallai_edmonds(g)
        calls.clear()
        assert verify_gallai_edmonds(g, ge)
        for field in ("match", "parent", "forced"):
            assert verify_gallai_edmonds(g, replace(ge, **{field: None})) is False
        assert calls == []


def _set(values, i, x):
    """``values`` with entry i replaced by x."""
    out = list(values)
    out[i] = x
    return tuple(out)


def test_certificate_rejects_an_even_d_component():
    # D = {0, 1} on P2 is one even component, with A and C empty: the
    # matching leaves no vertex free, not 1 - 0
    p2 = path_graph(2)
    assert not verify_gallai_edmonds(p2, _claim(p2, {0, 1}))


def test_certificate_rejects_an_odd_c_component():
    # an empty D on P3 leaves it one odd C component: the matching leaves
    # one vertex free, not 0 - 0
    p3 = path_graph(3)
    assert not verify_gallai_edmonds(p3, _claim(p3, set()))


def test_certificate_rejects_a_wrong_free_count():
    # an empty D on K_{1,3} leaves one even C component, but every matching
    # leaves two vertices free, not 0 - 0
    g = star_graph(3)
    assert not verify_gallai_edmonds(g, _claim(g, set()))
    # C5 with a matched pair dropped leaves three free, not 1 - 0
    c5 = cycle_graph(5)
    ge = gallai_edmonds(c5)
    v = next(v for v in range(5) if ge.match[v] != -1)
    w = ge.match[v]
    assert not verify_gallai_edmonds(c5, replace(ge, match=_set(_set(ge.match, v, -1), w, -1)))


def test_certificate_rejects_a_pointer_that_is_unset_leaves_d_or_is_no_edge():
    # C5 matched 0=1 and 2=3, with 0 -> 2 -> 4 and 3 -> 1 -> 4
    c5 = cycle_graph(5)
    ge = replace(gallai_edmonds(c5), match=(1, 0, 3, 2, -1), parent=(4, 2, 1, 4, -1))
    assert verify_gallai_edmonds(c5, ge)
    # 3's pointer unset, or 3 -> 4, which is no neighbor of 3's mate 2
    for p in (-1, 4):
        assert not verify_gallai_edmonds(c5, replace(ge, parent=_set(ge.parent, 2, p)))
    # K_{1,4} with one leaf's pendant edge: D = {1, 2, 3}, A = {0} and
    # C = {4, 5}; the center's pointer must not lead into C
    g = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (0, 4), (4, 5)])
    ge = gallai_edmonds(g)
    assert class_sets(ge) == (frozenset({1, 2, 3}), frozenset({0}), frozenset({4, 5}))
    assert verify_gallai_edmonds(g, ge)
    assert not verify_gallai_edmonds(g, replace(ge, parent=_set(ge.parent, 0, 4)))


# a certificate of K5 the verifier accepts: 0=1 and 2=3 matched, and each of
# 0..3 points at the free vertex 4
K5_MATCH, K5_PARENT = (1, 0, 3, 2, -1), (4, 4, 4, 4, -1)


def _k5_claim(match=K5_MATCH, parent=K5_PARENT):
    k5 = complete_graph(5)
    return k5, replace(gallai_edmonds(k5), match=match, parent=parent)


def test_certificate_rejects_a_cycle_of_pointers():
    assert verify_gallai_edmonds(*_k5_claim())
    # 0 -> 2 -> 0: 0's mate 1 points at 2 and 2's mate 3 at 0
    assert not verify_gallai_edmonds(*_k5_claim(parent=(4, 2, 4, 0, -1)))
    # 1 -> 1: 1's mate 0 points back at 1
    assert not verify_gallai_edmonds(*_k5_claim(parent=(1, 4, 4, 4, -1)))


def test_certificate_rejects_a_mate_pair_on_one_root_path():
    # 0 -> 2 -> 1 -> 4: the walk from 0 meets its mate 1 again
    assert not verify_gallai_edmonds(*_k5_claim(parent=(4, 2, 4, 1, -1)))


def test_certificate_rejects_a_match_that_is_no_matching():
    # 3's mate is 0, but 0's mate is 1
    assert not verify_gallai_edmonds(*_k5_claim(match=(1, 0, 3, 0, -1)))
    # an involution whose pair 0=2 is no edge of C5
    c5 = cycle_graph(5)
    assert not verify_gallai_edmonds(c5, replace(gallai_edmonds(c5), match=(2, -1, 0, 4, 3)))


def test_certificate_rejects_wrong_lengths_and_ids():
    wrong = [
        {"match": K5_MATCH[:-1]},
        {"parent": K5_PARENT + (-1,)},
        {"match": (1, 0, 3, 2, 5)},
        {"match": (1, 0, 3, 2, -2)},
        {"parent": (5, 4, 4, 4, -1)},
        {"parent": (-2, 4, 4, 4, -1)},
    ]
    for fields in wrong:
        assert verify_gallai_edmonds(*_k5_claim(**fields)) is False


def test_verifier_agrees_with_the_resolving_reference_exhaustively():
    # every D-claim on every graph with at most 5 vertices, with the true
    # decomposition's certificate; without one it is rejected
    for n in range(6):
        for g in enumerate_labeled_graphs(n):
            for r in range(n + 1):
                for d in itertools.combinations(range(n), r):
                    c = _claim(g, d)
                    assert verify_gallai_edmonds(g, c) == verify_by_resolving(g, c)
                    assert not verify_gallai_edmonds(g, replace(c, match=None, parent=None))


@settings(deadline=None, max_examples=200)
@given(graphs(max_n=11))
def test_verifier_agrees_with_the_resolving_reference(g):
    # the true decomposition, one with forced pairs the seed did not force,
    # and the ones that D with one vertex toggled induces, each with the
    # true certificate; without one each is rejected
    ge = gallai_edmonds(g)
    d_set = class_sets(ge)[0]
    claims = [ge, replace(ge, forced=ge.match)]
    claims += [replace(ge, comp=tuple(classes_by_a_pass(g, d_set ^ {v}))) for v in range(g.n)]
    for c in claims:
        assert verify_gallai_edmonds(g, c) == verify_by_resolving(g, c)
        assert not verify_gallai_edmonds(g, replace(c, match=None, parent=None))
    assert verify_gallai_edmonds(g, ge)


def test_verifier_rejects_a_decomposition_of_another_graph():
    g, other = cycle_graph(7), path_graph(3)
    assert not verify_gallai_edmonds(g, gallai_edmonds(other))
    # the same number of vertices, and the same classes, but other edges
    c5 = cycle_graph(5)
    k5 = complete_graph(5)
    assert gallai_edmonds(c5) == gallai_edmonds(k5)
    assert not verify_gallai_edmonds(c5, gallai_edmonds(k5))
    assert verify_gallai_edmonds(c5, pickle.loads(pickle.dumps(gallai_edmonds(c5))))


def test_random_sweep_verifies():
    for g in seeded_random_graphs(80, (4, 12), [0.15, 0.3, 0.6], seed=23):
        assert verify_gallai_edmonds(g, gallai_edmonds(g))


def test_verifier_rejects_zero_surplus_on_p2():
    # {0} passes the count: A = {1} is matched into the component {0}, but
    # with surplus 0, and no maximum matching misses 0, so 0's pointer can
    # only lead back to 0
    g = path_graph(2)
    assert not verify_gallai_edmonds(g, _claim(g, {0}))
    assert verify_gallai_edmonds(g, _claim(g, set()))


def test_verifier_accepts_only_the_true_d_set():
    for n in range(6):
        for g in enumerate_labeled_graphs(n):
            true_d = class_sets(gallai_edmonds(g))[0]
            accepted = [
                frozenset(d)
                for r in range(n + 1)
                for d in itertools.combinations(range(n), r)
                if verify_gallai_edmonds(g, _claim(g, d))
            ]
            assert accepted == [true_d]


@settings(deadline=None, max_examples=200)
@given(graphs(max_n=10))
def test_contraction_matches_the_direct_route(g):
    d_set = class_sets(gallai_edmonds(g))[0]
    assert _views(_claim(g, d_set)) == contract_by_sets(g, d_set)
    # any vertex set will do as D for the construction itself
    evens = frozenset(range(0, g.n, 2))
    assert _views(_claim(g, evens)) == contract_by_sets(g, evens)


def test_contraction_matches_the_direct_route_on_sparse_graphs():
    rng = random.Random(12)
    for n in (100, 400, 1600):
        for g in (giant(sparse_graph_nm(n, 3 * n // 2, rng)), linear_triangle_tree(n, 0.25, rng)):
            d_set = class_sets(gallai_edmonds(g))[0]
            assert _views(_claim(g, d_set)) == contract_by_sets(g, d_set)


def test_verifier_accepts_the_giant_at_2000():
    g = giant(sparse_graph_nm(2000, 3000, random.Random(2000)))
    ge = gallai_edmonds(g)
    assert len(ge.d_members) > 1 and ge.a_list and ge.c_members
    assert verify_gallai_edmonds(g, ge)


def test_decomposition_scale_guard():
    # a near-linear matcher and contraction decompose each in about 0.3 s;
    # one O(n) allocation per augmenting search took 5 to 15 s
    rng = random.Random(40000)
    for g in (giant(sparse_graph_nm(40000, 60000, rng)), linear_triangle_tree(26667, 0.25, rng)):
        assert g.n > 35000
        start = time.perf_counter()
        ge = gallai_edmonds(g)
        assert time.perf_counter() - start < 5
        nu = sum(1 for x in ge.match if x != -1) // 2
        assert 2 * nu == g.n - (ge.counts[0] - len(ge.a_list))


@pytest.mark.parametrize("g, d_set, match", [
    # P_4 matched in the middle: all of it is C, one even component, and
    # 0-1=2-3 augments
    (path_graph(4), frozenset(), [-1, 2, 1, -1]),
    # a triangle left unmatched: one D component, two vertices too many free
    (cycle_graph(3), frozenset({0, 1, 2}), [-1, -1, -1]),
    # the star K_{1,3} with its center free: A = {0} and three D components
    (star_graph(3), frozenset({1, 2, 3}), [-1, -1, -1, -1]),
])
def test_non_maximum_matching_fails_the_tutte_berge_count(monkeypatch, g, d_set, match):
    monkeypatch.setattr(decomposition, "_matcher", lambda g: (match, _labels(g, d_set), [-1] * g.n, [-1] * g.n))
    with pytest.raises(InternalCheckError, match="Tutte-Berge"):
        gallai_edmonds(g)
    # the count holds with a maximum matching of g in its place
    top = maximum_matching(g).mate
    best = [top.get(v, -1) for v in range(g.n)]
    monkeypatch.setattr(decomposition, "_matcher", lambda g: (best, _labels(g, d_set), [-1] * g.n, [-1] * g.n))
    assert class_sets(gallai_edmonds(g))[0] == d_set


# the views that each view is read off, besides the fields
_READS = {
    "d_members": {"counts"},
    "c_members": {"counts"},
    "attachments": {"a_list"},
}


def _check_lazy_views(g):
    """``gallai_edmonds`` builds no view up front; each view equals the
    direct route's, and reading it builds only the views it is read off.
    Copies keep the fields, and ``replace`` keeps them and starts the memo
    empty."""
    ge = gallai_edmonds(g)
    assert not set(VIEWS) & set(vars(ge))
    want = contract_by_sets(g, frozenset(v for v in range(g.n) if ge.comp[v] >= 0))
    assert ge.comp == want["comp"]
    for name in VIEWS:
        fresh = gallai_edmonds(g)
        assert getattr(fresh, name) == want[name]
        built = set(VIEWS) & set(vars(fresh))
        assert built == {name} | _READS.get(name, set())
    fields = (ge.comp, ge.adj, ge.match, ge.parent)
    ge.upms["x"] = 1
    for other in (pickle.loads(pickle.dumps(ge)), copy.copy(ge), copy.deepcopy(ge), replace(ge)):
        assert (other, hash(other), repr(other)) == (ge, hash(ge), repr(ge))
        assert (other.comp, other.adj, other.match, other.parent) == fields
        assert _views(other) == want
    kept = replace(ge)
    assert kept.upms == {} and not set(VIEWS) & set(vars(kept))
    assert verify_gallai_edmonds(g, kept)
    # the deciders give the same reports on it
    for decide in (some_ur, every_ur):
        assert decide(g, ge=kept, all_failures=True) == decide(g, all_failures=True)


@settings(deadline=None, max_examples=200)
@given(graphs(max_n=11))
def test_lazy_views_equal_eager_ones(g):
    _check_lazy_views(g)


def test_lazy_views_equal_eager_ones_at_scale():
    for n in (2000, 4000, 8000):
        rng = random.Random(n)
        for g in (giant(sparse_graph_nm(n, 3 * n // 2, rng)), linear_triangle_tree(2 * n // 3, 0.25, rng)):
            assert g.n >= 1500
            _check_lazy_views(g)


def test_lazy_views_are_built_for_their_names_only():
    ge = gallai_edmonds(path_graph(4))
    for name in ("a_lst", "__setstate__", "__getnewargs__"):
        with pytest.raises(AttributeError):
            getattr(ge, name)
    assert not set(VIEWS) & set(vars(ge))
