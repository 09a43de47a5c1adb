"""Per-vertex reference for the Gallai-Edmonds classes.

This is the definitional route that the library's single Edmonds labelling
replaces: v belongs to D iff nu(g - v) == nu(g), tested by one augmenting
search per matched vertex against one fixed maximum matching.  A is the
outside neighborhood of D and C the rest.  It is quadratic, so tests use it
only on small and medium graphs.
"""

from __future__ import annotations

from urmatch.graph_core import Graph
from urmatch.matching import _augment_from, _max_match_array


def missable_vertex(g: Graph, v: int) -> bool:
    """True iff nu(g - v) == nu(g), i.e. some maximum matching misses v."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    match = _max_match_array(g)
    return _missable_given(g, match, v)


def _missable_given(g: Graph, match: list[int], v: int) -> bool:
    if match[v] == -1:
        return True
    if all(x != -1 for x in match):
        # a perfectly matched graph loses one unit of matching with any vertex
        return False
    work = match[:]
    u = work[v]
    work[v] = work[u] = -1
    return _augment_from(g.adj, work, u, avoid=(v,))


def missable_vertices_by_deletion(g: Graph) -> frozenset[int]:
    """All vertices missed by some maximum matching (one nu test per vertex)."""
    match = _max_match_array(g)
    return frozenset(v for v in range(g.n) if _missable_given(g, match, v))


def reference_classes(g: Graph) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
    """(D, A, C) by the per-vertex deletion test."""
    d_set = missable_vertices_by_deletion(g)
    a_set = frozenset(
        v for v in range(g.n) if v not in d_set and any(w in d_set for w in g.adj[v])
    )
    return d_set, a_set, frozenset(range(g.n)) - d_set - a_set
