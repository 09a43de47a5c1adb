import copy
import itertools
import pickle
import random
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings

from ge_reference import contract_by_sets
from lemma_helpers import delete_vertex
from strategies import giant, graphs, linear_triangle_tree, seeded_random_graphs, sparse_graph_nm
from urmatch import decomposition
from urmatch.decomposition import (
    _CLASS_VIEWS,
    _GB_VIEWS,
    _VIEWS,
    GallaiEdmonds,
    _contract,
    gallai_edmonds,
    verify_gallai_edmonds,
)
from urmatch.families import (
    bowtie_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    star_graph,
)
from urmatch.graph_core import Graph, induced_subgraph
from urmatch.recognition import every_ur_general, some_ur
from urmatch.matching import InternalCheckError, is_factor_critical, maximum_matching, missable_vertices
from urmatch.oracle import enumerate_labeled_graphs


def _claim(g, d_set):
    d_set = frozenset(d_set)
    return GallaiEdmonds(d_set, *_contract(g, d_set))


def test_star_decomposition():
    # leaves are missable, the center is their neighborhood
    g = star_graph(4)
    ge = gallai_edmonds(g)
    assert ge.d_set == frozenset({1, 2, 3, 4})
    assert ge.a_set == frozenset({0})
    assert ge.c_set == frozenset()
    assert len(ge.d_components) == 4
    assert ge.gb.n == 5
    assert verify_gallai_edmonds(g, ge)


def test_odd_cycle_decomposition():
    g = cycle_graph(7)
    ge = gallai_edmonds(g)
    assert ge.d_set == frozenset(range(7))
    assert ge.a_set == frozenset() and ge.c_set == frozenset()
    assert len(ge.d_components) == 1
    assert verify_gallai_edmonds(g, ge)


def test_perfectly_matchable_graph_is_all_c():
    for g in (path_graph(6), cycle_graph(8), complete_graph(4), petersen_graph()):
        ge = gallai_edmonds(g)
        assert ge.d_set == frozenset() and ge.a_set == frozenset()
        assert ge.c_set == frozenset(range(g.n))
        assert ge.gb.n == 0
        assert verify_gallai_edmonds(g, ge)


def test_bowtie_decomposition():
    g = bowtie_graph()
    ge = gallai_edmonds(g)
    assert ge.d_set == frozenset(range(5))
    assert ge.a_set == frozenset()
    assert len(ge.d_components) == 1
    assert verify_gallai_edmonds(g, ge)


def test_contraction_map_layout():
    g = star_graph(2)  # center 0, leaves 1 and 2
    ge = gallai_edmonds(g)
    assert ge.contraction_map[0] == ("a", 0)
    assert set(ge.contraction_map[1:]) == {("d", 0), ("d", 1)}
    # gb is a-side ids first, then component ids ordered by lowest member
    assert ge.gb_sides[0] == frozenset({0})
    assert ge.gb_sides[1] == frozenset({1, 2})
    assert ge.gb.edges == frozenset({(0, 1), (0, 2)})


@settings(deadline=None, max_examples=150)
@given(graphs(max_n=9))
def test_structure_theorem_invariants(g):
    ge = gallai_edmonds(g)
    assert verify_gallai_edmonds(g, ge)
    assert ge.d_set == missable_vertices(g)
    for comp in ge.d_components:
        sub, _ = induced_subgraph(g, comp)
        assert is_factor_critical(sub)
    nu = len(maximum_matching(g))
    deficiency = g.n - 2 * nu
    assert deficiency == len(ge.d_components) - len(ge.a_set)
    assert len(maximum_matching(ge.gb)) == len(ge.a_set)


@settings(deadline=None, max_examples=100)
@given(graphs(max_n=8))
def test_c_set_invariant_under_a_deletion(g):
    # deleting one a-vertex leaves every former D-vertex missable
    ge = gallai_edmonds(g)
    for a in ge.a_set:
        h, id_map = delete_vertex(g, a)
        back = {orig: new for new, orig in enumerate(id_map)}
        miss = missable_vertices(h)
        for v in ge.d_set:
            assert back[v] in miss


def test_verifier_catches_corruption():
    g = star_graph(3)
    ge = gallai_edmonds(g)
    from dataclasses import replace

    assert verify_gallai_edmonds(g, ge)
    bad = replace(ge, d_set=frozenset({0, 1, 2, 3}), a_set=frozenset(), c_set=frozenset())
    assert not verify_gallai_edmonds(g, bad)
    bad2 = replace(ge, a_set=ge.c_set, c_set=ge.a_set)
    assert not verify_gallai_edmonds(g, bad2)
    bad3 = replace(ge, gb=Graph.from_edges(ge.gb.n, []))
    assert not verify_gallai_edmonds(g, bad3)
    # every gb id claimed as a component, so no edge joins A to a component
    swapped = replace(ge, contraction_map=tuple(("d", i) for i in range(ge.gb.n)))
    assert not verify_gallai_edmonds(g, swapped)
    # C4 is all C: one component, not two halves and not none
    c4 = cycle_graph(4)
    ge4 = gallai_edmonds(c4)
    assert ge4.c_components == (frozenset(range(4)),)
    for wrong in ((frozenset({0, 1}), frozenset({2, 3})), ()):
        assert not verify_gallai_edmonds(c4, replace(ge4, c_components=wrong))


def test_random_sweep_verifies():
    for g in seeded_random_graphs(80, (4, 12), [0.15, 0.3, 0.6], seed=23):
        assert verify_gallai_edmonds(g, gallai_edmonds(g))


def test_verifier_rejects_zero_surplus_on_p2():
    # {0} passes every other check: A = {1} is matched into the component {0},
    # but with surplus 0, and no maximum matching misses 0
    g = path_graph(2)
    assert not verify_gallai_edmonds(g, _claim(g, {0}))
    assert verify_gallai_edmonds(g, _claim(g, set()))


def test_verifier_accepts_only_the_true_d_set():
    for n in range(6):
        for g in enumerate_labeled_graphs(n):
            true_d = gallai_edmonds(g).d_set
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
    d_set = gallai_edmonds(g).d_set
    assert _contract(g, d_set) == contract_by_sets(g, d_set)
    # any vertex set will do as D for the construction itself
    assert _contract(g, frozenset(range(0, g.n, 2))) == contract_by_sets(g, frozenset(range(0, g.n, 2)))


def test_contraction_matches_the_direct_route_on_sparse_graphs():
    rng = random.Random(12)
    for n in (100, 400, 1600):
        for g in (giant(sparse_graph_nm(n, 3 * n // 2, rng)), linear_triangle_tree(n, 0.25, rng)):
            d_set = gallai_edmonds(g).d_set
            assert _contract(g, d_set) == contract_by_sets(g, d_set)


def test_verifier_accepts_the_giant_at_2000():
    g = giant(sparse_graph_nm(2000, 3000, random.Random(2000)))
    ge = gallai_edmonds(g)
    assert len(ge.d_components) > 1 and ge.a_set and ge.c_components
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
        assert 2 * nu == g.n - (len(ge.d_components) - len(ge.a_set))


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
    monkeypatch.setattr(decomposition, "_missable_and_match", lambda g: (d_set, match, [-1] * g.n))
    with pytest.raises(InternalCheckError, match="Tutte-Berge"):
        gallai_edmonds(g)
    # the count holds with a maximum matching of g in its place
    top = maximum_matching(g).mate
    best = [top.get(v, -1) for v in range(g.n)]
    monkeypatch.setattr(decomposition, "_missable_and_match", lambda g: (d_set, best, [-1] * g.n))
    assert gallai_edmonds(g).d_set == d_set


def _check_lazy_views(g):
    """``gallai_edmonds`` builds its views on first read; they equal the
    views built eagerly from its ``d_set``, and so do its copies."""
    ge = gallai_edmonds(g)
    assert not set(_VIEWS) & set(vars(ge))
    assert ge.d_set == frozenset(v for v in range(g.n) if ge.comp[v] >= 0)
    assert set(_VIEWS) & set(vars(ge)) == set(_CLASS_VIEWS)  # reading d_set builds no gb
    other = gallai_edmonds(g)
    assert other.gb == _contract(g, ge.d_set)[4]
    assert set(_VIEWS) & set(vars(other)) == set(_GB_VIEWS)
    eager = GallaiEdmonds(ge.d_set, *_contract(g, ge.d_set)[:-1])
    assert set(_VIEWS) <= set(vars(eager))
    assert (ge, hash(ge), repr(ge)) == (eager, hash(eager), repr(eager))
    assert verify_gallai_edmonds(g, ge)
    assert ge.comp == _contract(g, ge.d_set)[-1]
    # pickling and copying a decomposition whose views are not built yet
    for fresh in (pickle.loads(pickle.dumps(gallai_edmonds(g))),
                  copy.copy(gallai_edmonds(g)), copy.deepcopy(gallai_edmonds(g))):
        assert (fresh, hash(fresh), repr(fresh)) == (eager, hash(eager), repr(eager))
        assert (fresh.comp, fresh.match, fresh.parent) == (ge.comp, ge.match, ge.parent)
    ge = gallai_edmonds(g)
    ge.upms["x"] = 1
    kept = replace(ge)
    assert kept == eager and kept.upms == {}
    assert (kept.comp, kept.match, kept.parent) == (ge.comp, ge.match, ge.parent)
    assert (kept.a_list, kept.d_members) == (ge.a_list, [sorted(c) for c in ge.d_members])
    assert [sorted(c) for c in kept.c_members] == [sorted(c) for c in ge.c_members]
    # the deciders give the same reports on it, read off its component array
    for decide in (some_ur, every_ur_general):
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
    assert not set(_VIEWS) & set(vars(ge))
