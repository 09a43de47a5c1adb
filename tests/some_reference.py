"""The eager route of the some-decider.

``some_ur`` once tested D component H minus h for every single attachment,
through ``allowed_edges``, before its ordering read any of the answers, and
then ran condition 3 over every D component, those the ordering had matched
included.  The library now tests H - h only where condition 2 or 3 reads
the answer (``recognition.some_ur``).  The eager route lives on here, so
that tests can hold the on-demand one to it: its reports must be equal,
witness included.
"""

from __future__ import annotations

from urmatch.accessibility import _e_good_ordering
from urmatch.decomposition import GallaiEdmonds, gallai_edmonds
from urmatch.graph_core import Graph, edge_key
from urmatch.matching import Matching
from urmatch.recognition import (
    C_COMPONENT_PM_NOT_UNIQUE,
    D_COMPONENT_NO_UNIQUE_PM_VERTEX,
    GB_NO_UR_MATCHING_WITHIN_E,
    RecognitionReport,
    _c_left,
    _edges,
    _perfect_minus,
    _unique_minus,
    allowed_edges,
)


def some_ur_eager(g: Graph, ge: GallaiEdmonds | None = None, all_failures: bool = False) -> RecognitionReport:
    """``some_ur`` by the eager route: all of ``allowed_edges``, then the
    ordering over that set, then condition 3 over every D component."""
    ge = gallai_edmonds(g) if ge is None else ge
    failures: list[str] = []

    def no() -> RecognitionReport:
        return RecognitionReport("some_ur", False, None, failures[0], tuple(failures))

    if _c_left(g, ge):
        failures.append(C_COMPONENT_PM_NOT_UNIQUE)
        if not all_failures:
            return no()

    eligible = allowed_edges(g, ge)
    k = len(ge.a_list)
    ordering = _e_good_ordering(ge.gb.adj, range(k, ge.gb.n), lambda y, x: edge_key(y, x) in eligible)
    if ordering is None:
        failures.append(GB_NO_UR_MATCHING_WITHIN_E)
        if not all_failures:
            return no()

    chosen_h: dict[int, int] = {}
    for ci, members in enumerate(ge.d_members):
        good = next((h for h in members if _unique_minus(g, ge, ci, h)), None)
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
