"""The on-demand some-decider against the eager route it replaces
(``some_reference``), and the D - h tests it no longer makes."""

import random

from hypothesis import given, settings

from ge_reference import gb_graph
from ordering_reference import a_side_rows, counter_ordering
from some_reference import d_verdicts, some_ur_eager, witness_flipping_every_component
from strategies import giant, graphs, linear_triangle_tree, sparse_graph_nm
from urmatch.accessibility import _e_good_ordering
from urmatch.decomposition import gallai_edmonds
from urmatch.graph_core import Graph, edge_key
from urmatch import recognition
from urmatch.recognition import (
    D_COMPONENT_NO_UNIQUE_PM_VERTEX,
    GB_NO_UR_MATCHING_WITHIN_E,
    _some_failures,
    allowed_edges,
    some_ur,
)
from urmatch.ur_core import is_uniquely_restricted


def _report(r):
    return r.answer, r.failure, r.failures, None if r.witness is None else r.witness.edges


def _check_against_eager(g):
    """Reports with and without ``all_failures``, each route on a fresh
    decomposition and both on one shared in either order; returns the
    failure tuples.  The eager route's H - h answers depend on g alone, so
    its calls share them."""
    seen, tested = set(), {}
    for all_failures in (False, True):
        want = _report(some_ur_eager(g, None, all_failures, tested))
        assert _report(some_ur(g, all_failures=all_failures)) == want
        ge = gallai_edmonds(g)
        assert _report(some_ur(g, ge=ge, all_failures=all_failures)) == want
        assert _report(some_ur_eager(g, ge, all_failures, tested)) == want
        ge = gallai_edmonds(g)
        assert _report(some_ur_eager(g, ge, all_failures, tested)) == want
        assert _report(some_ur(g, ge=ge, all_failures=all_failures)) == want
        seen.add(want[2])
    return seen


@settings(deadline=None, max_examples=300)
@given(graphs(max_n=11))
def test_on_demand_equals_eager_on_hypothesis_graphs(g):
    _check_against_eager(g)


def test_on_demand_equals_eager_on_a_graph_failing_conditions_2_and_3():
    g = Graph.from_edges(9, [(0, 1), (0, 2), (0, 6), (0, 8), (1, 2), (1, 3), (1, 6), (1, 8), (2, 3),
                             (2, 6), (2, 8), (3, 6), (3, 8), (4, 7), (4, 8), (5, 7), (5, 8), (6, 7), (6, 8)])
    assert _check_against_eager(g) == {(GB_NO_UR_MATCHING_WITHIN_E,),
                                       (GB_NO_UR_MATCHING_WITHIN_E, D_COMPONENT_NO_UNIQUE_PM_VERTEX)}


def _sparse_instances():
    # the giants and triangle trees that tests/test_every_cores.py decides,
    # and the giant at 4000 with seed 0, which fails conditions 2 and 3
    out = [giant(sparse_graph_nm(n, 3 * n // 2, random.Random(seed)))
           for n, seed in ((2000, 0), (4000, 3), (8000, 0), (4000, 0))]
    return out + [linear_triangle_tree(n, 0.25, random.Random(n)) for n in (1334, 2667, 5334)]


def test_on_demand_equals_eager_on_sparse_graphs():
    seen = set().union(*map(_check_against_eager, _sparse_instances()))
    # yes-answers, and condition 3 scanned after the ordering failed
    assert () in seen and (GB_NO_UR_MATCHING_WITHIN_E, D_COMPONENT_NO_UNIQUE_PM_VERTEX) in seen


def _tested(ge):
    """The ``(ci, h)`` of the D - h answers in the memo's verdict lists."""
    return set(d_verdicts(ge))


def test_condition_3_skips_components_the_ordering_matched():
    # D = {1} and H = {0, 3, 4, 5, 6}, the 5-cycle 4-0-3-5-6 with the chord
    # 3-4, A = {2}: the ordering matches H through vertex 4, so no other
    # vertex of it is tested.  Then D = {0}, H = {1, 2, 3, 7, 8} (the
    # 5-cycle 2-7-3-1-8 with the chord 2-3) and {5}, A = {4, 6}: only H's
    # attachment to 6, vertex 2, is tested.  A chord keeps H from being an
    # odd cycle, whose vertices need no test at all
    cases = [(7, [(0, 3), (0, 4), (1, 2), (2, 4), (3, 4), (3, 5), (4, 6), (5, 6)], {(0, 4)},
              {(0, 3), (2, 4), (5, 6)}),
             (9, [(0, 4), (1, 3), (1, 8), (2, 3), (2, 6), (2, 7), (2, 8), (3, 4), (3, 7), (5, 6)], {(1, 2)},
              {(0, 4), (1, 8), (2, 6), (3, 7)})]
    for n, edges, tested, witness in cases:
        g = Graph.from_edges(n, edges)
        ge = gallai_edmonds(g)
        r = some_ur(g, ge=ge)
        assert r.answer and r.witness.edges == witness
        assert _tested(ge) == tested
        # the eager route tests more, and agrees
        eager = {}
        assert some_ur_eager(g, gallai_edmonds(g), tested=eager) == r and set(eager) > tested


def test_ordering_asks_once_per_vertex_of_the_set():
    # on the rows some_ur hands the core, the A side's; it asks for the same
    # edges, in the same order, as the counter greedy on rows on both sides,
    # grouped from the keys in their order
    for g in _sparse_instances()[:4]:
        ge = gallai_edmonds(g)
        eligible = allowed_edges(g, ge)
        k, gb = len(ge.a_list), gb_graph(ge)
        asked, asked_on_gb = [], []

        def allowed(y, x):
            asked.append(k + x)
            return edge_key(y, k + x) in eligible

        def allowed_on_gb(y, x):
            asked_on_gb.append(x)
            return edge_key(y, x) in eligible

        _e_good_ordering(a_side_rows(ge), ge.counts[0], allowed)
        assert len(asked) == len(set(asked)) and set(asked) <= set(range(k, gb.n))
        assert asked and len(asked) < len(ge.attachments)
        both: list[list[int]] = [[] for _ in range(gb.n)]
        for i, ci in ge.attachments:
            both[i].append(k + ci)
            both[k + ci].append(i)
        counter_ordering(both, range(k, gb.n), allowed_on_gb)
        assert asked == asked_on_gb


def test_reports_read_no_order_of_the_attachment_keys():
    # row i of the ordering collects A-vertex i's keys wherever they stand,
    # and the ordering's choices follow the ids alone, so attachments in
    # another order give the same reports, witnesses included
    instances = _sparse_instances()[:4] + [
        Graph.from_edges(9, [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5), (3, 6), (6, 7), (6, 8)])]
    for g in instances:
        want = [_report(some_ur(g, all_failures=af)) for af in (False, True)]
        for turn in (lambda keys: keys[::-1], lambda keys: random.Random(len(keys)).sample(keys, len(keys))):
            for af in (False, True):
                ge = gallai_edmonds(g)
                vars(ge)["attachments"] = {key: ge.attachments[key] for key in turn(list(ge.attachments))}
                assert _report(some_ur(g, ge=ge, all_failures=af)) == want[af]


def _witness_flips(g, monkeypatch):
    """``some_ur``'s report on g, the components it chose ``(a, h)`` for
    (for a yes), and the h of each ``_flip`` call that wrote into the witness (the
    D - h tests flip a local copy, read through a dict)."""
    flips = []
    real = recognition._flip

    def counting(ge, ci, h, mate, pos):
        if isinstance(pos, range):
            flips.append(h)
        return real(ge, ci, h, mate, pos)

    ge = gallai_edmonds(g)
    monkeypatch.setattr(recognition, "_flip", counting)
    report = some_ur(g, ge=ge)
    monkeypatch.undo()
    chosen = {}
    if report.answer:
        assert list(_some_failures(g, ge, chosen)) == []
    return ge, report, chosen, flips


def _matched_after_clearing_a(ge, chosen):
    """The chosen h that ``ge.match`` with each A-vertex and its mate
    cleared still matches."""
    cleared = set(ge.a_list) | {ge.match[a] for a in ge.a_list}
    return [h for a, h in chosen.values() if ge.match[h] != -1 and h not in cleared]


def test_witness_flips_only_components_whose_h_is_matched(monkeypatch):
    # A = {0}: the pendants 1 and 2, the triangle 3-4-5 hung at 3 and the
    # 5-cycle 6-7-8-9-10 with the chord 6-8 hung at 6 are its D components
    g = Graph.from_edges(11, [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5), (4, 5), (0, 6),
                              (6, 7), (7, 8), (8, 9), (9, 10), (10, 6), (6, 8)])
    ge, report, chosen, flips = _witness_flips(g, monkeypatch)
    assert ge.a_list == [0] and sorted(map(len, ge.d_members)) == [1, 1, 3, 5]
    assert report.answer and is_uniquely_restricted(g, report.witness)
    assert sorted(flips) == sorted(_matched_after_clearing_a(ge, chosen))
    assert 0 < len(flips) < len(chosen)
    # and on the sparse giants and triangle trees, where most components
    # are single vertices and triangles
    counts = []
    for g in _sparse_instances():
        ge, report, chosen, flips = _witness_flips(g, monkeypatch)
        if report.answer:
            assert sorted(flips) == sorted(_matched_after_clearing_a(ge, chosen))
            counts.append((len(flips), len(chosen)))
    assert counts and all(f < c for f, c in counts) and any(f for f, _ in counts)


def test_witness_equals_flipping_every_component():
    # the rule the witness replaced: A cleared, every chosen component
    # flipped, A paired with its h
    answers = set()
    for g in _sparse_instances():
        ge = gallai_edmonds(g)
        report = some_ur(g, ge=ge)
        answers.add(report.answer)
        if report.answer:
            chosen = {}
            assert list(_some_failures(g, ge, chosen)) == []
            assert report.witness.edges == witness_flipping_every_component(g, ge, chosen).edges
    assert answers == {True, False}


def test_some_ur_asks_its_eligibility_rule_once_per_component(monkeypatch):
    # the rule some_ur hands the ordering reads each asked edge's attachment
    # once and keeps its h: it is asked at most once per D component, and
    # every edge of the ordering was allowed
    real = recognition._e_good_ordering
    asked = []

    def watching(rows, size, allowed):
        def counting(i, ci):
            asked.append(ci)
            return allowed(i, ci)
        found = real(rows, size, counting)
        assert len(asked) == len(set(asked)) <= size
        return found

    monkeypatch.setattr(recognition, "_e_good_ordering", watching)
    for g in _sparse_instances():
        asked.clear()
        report = some_ur(g, all_failures=True)
        assert asked or not report.answer
