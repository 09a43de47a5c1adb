"""The eager route of the some-decider.

``some_ur`` once tested D component H minus h for every single attachment,
through ``allowed_edges``, before its ordering read any of the answers, and
then ran condition 3 over every D component, those the ordering had matched
included.  The library now tests H - h only where condition 2 or 3 reads
the answer (``recognition.some_ur``), answers it by the edge count when H
is an odd cycle, and reads the witness's flips off g's arrays.  The eager
route lives on here, so that tests can hold the on-demand one to it: its
reports must be equal, witness included.  It answers every H - h, odd
cycles included, with its own path flip on H's relabelled copy and a
Kotzig peel, and builds its witness from the same flips.

That flip walks the matcher's path pointers in local ids
(``_perfect_minus``), as the library did before one walk on g's own arrays
(``recognition._flip``) served both the peel and the witness.
"""

from __future__ import annotations

from urmatch.accessibility import _e_good_ordering
from urmatch.decomposition import GallaiEdmonds, gallai_edmonds
from urmatch.graph_core import Graph, edge_key
from peel_reference import _peel
from urmatch.matching import InternalCheckError, Matching
from urmatch.recognition import (
    C_COMPONENT_PM_NOT_UNIQUE,
    D_COMPONENT_NO_UNIQUE_PM_VERTEX,
    GB_NO_UR_MATCHING_WITHIN_E,
    RecognitionReport,
    _c_left,
    _d_local,
)


def _edges(verts, match) -> list[tuple[int, int]]:
    """The edges of a local mate array, in the ids ``verts`` maps back to."""
    return [edge_key(verts[x], verts[y]) for x, y in enumerate(match) if y > x]


def _perfect_minus(g: Graph, ge: GallaiEdmonds, ci: int, h: int):
    """A perfect matching of D component ``ci`` minus h: ``(verts, adj, x,
    match)`` in local ids, x being h's.  The path pointers, relabelled into
    the component (-1 where one leaves it), give an even alternating path
    from h to the component's one free vertex; flipping it frees h.  A walk
    that leaves the component, ends elsewhere or runs longer than the
    component raises."""
    verts, pos, adj, _ = _d_local(g, ge, ci)
    parent = [pos.get(ge.parent[v], -1) for v in verts]
    match = [pos.get(ge.match[v], -1) for v in verts]
    x = pos[h]
    m, match[x] = match[x], -1
    for _ in verts:
        if m == -1:
            return verts, adj, x, match
        p = parent[m]
        if p == -1 or p == x:
            break
        nxt = match[p]
        match[m] = p
        match[p] = m
        m = nxt
    raise InternalCheckError(f"D component {ci}: the path pointers from {h} miss its free vertex")


def unique_minus_by_peel(g: Graph, ge: GallaiEdmonds, ci: int, h: int) -> bool:
    """Whether D component ``ci`` minus h has a unique perfect matching: the
    path flip of ``_perfect_minus`` and one Kotzig peel, with no memo and no
    shortcut for odd cycles."""
    _, adj, x, match = _perfect_minus(g, ge, ci, h)
    alive = [True] * len(match)
    alive[x] = False
    return not _peel(adj, match, alive)


def some_ur_eager(g: Graph, ge: GallaiEdmonds | None = None, all_failures: bool = False,
                  tested: dict | None = None) -> RecognitionReport:
    """``some_ur`` by the eager route: every eligible gb edge, then the
    ordering over that set, then condition 3 over every D component.  Each
    H - h answer is written to ``tested`` under ``(ci, h)``, when given."""
    ge = gallai_edmonds(g) if ge is None else ge
    failures: list[str] = []
    tested = {} if tested is None else tested

    def unique_minus(ci, h):
        if (ci, h) not in tested:
            tested[ci, h] = unique_minus_by_peel(g, ge, ci, h)
        return tested[ci, h]

    def no() -> RecognitionReport:
        return RecognitionReport("some_ur", False, None, failures[0], tuple(failures))

    if _c_left(g, ge):
        failures.append(C_COMPONENT_PM_NOT_UNIQUE)
        if not all_failures:
            return no()

    k = len(ge.a_list)
    eligible = {(i, k + ci) for (i, ci), nbrs in ge.attachments.items()
                if len(nbrs) == 1 and unique_minus(ci, nbrs[0])}
    ordering = _e_good_ordering(ge.gb.adj, range(k, ge.gb.n), lambda y, x: edge_key(y, x) in eligible)
    if ordering is None:
        failures.append(GB_NO_UR_MATCHING_WITHIN_E)
        if not all_failures:
            return no()

    chosen_h: dict[int, int] = {}
    for ci, members in enumerate(ge.d_members):
        good = next((h for h in members if unique_minus(ci, h)), None)
        if good is None:
            failures.append(D_COMPONENT_NO_UNIQUE_PM_VERTEX)
            if not all_failures:
                return no()
            break
        chosen_h[ci] = good
    if failures:
        return no()

    mate = ge.match
    witness = [(v, mate[v]) for v, c in enumerate(ge.comp) if c <= -4 and mate[v] > v]
    for i, j in ordering[1].items():
        (h,) = ge.attachments[(i, j - k)]
        witness.append(edge_key(ge.a_list[i], h))
        chosen_h[j - k] = h
    for ci, h in chosen_h.items():
        if len(ge.d_members[ci]) > 1:
            verts, _, _, match = _perfect_minus(g, ge, ci, h)
            witness += _edges(verts, match)
    return RecognitionReport("some_ur", True, Matching.from_edges(g, witness), None, ())
