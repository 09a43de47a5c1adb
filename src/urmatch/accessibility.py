"""Accessibility orderings of independent sets and the greedy restricted search.

An ordering of an independent set I is an accessibility ordering when each
prefix extends the neighborhood by at most one vertex.  Matching each
neighborhood vertex y to the earliest ordered vertex adjacent to it yields an
edge set M; the ordering is an accessibility ordering exactly when M is a
matching.  ``find_e_good_ordering`` greedily builds an ordering whose induced
matching stays inside a prescribed edge set; any extendable choice is safe, so
the greedy search is complete.  The greedy is driven by counters: each vertex
of the set keeps the number of its neighbors not yet seen, and the lowest
vertex that can be placed comes off a heap, so no step rescans the set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush

from .graph_core import Graph, edge_key, validate_bipartition
from .matching import Matching, maximum_matching


@dataclass(frozen=True)
class AccessibilityOrdering:
    independent_set: frozenset[int]
    sequence: tuple[int, ...]
    p_map: dict[int, int] = field(compare=False, repr=False)
    induced_matching: Matching = field(compare=False)


def _check_independent(g: Graph, i_set: frozenset[int]) -> None:
    for v in i_set:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    for u in sorted(i_set):
        for v in g.adj[u]:
            if v in i_set:
                raise ValueError(f"set is not independent: contains edge {edge_key(u, v)}")


def find_e_good_ordering(
    g: Graph,
    sides,
    i_set,
    allowed,
) -> AccessibilityOrdering | None:
    """Accessibility ordering of a maximum independent set whose induced matching
    stays inside ``allowed``, or None if no such ordering exists.

    Validates its input (a bipartition, an independent set as large as g
    allows, allowed edges of g), then runs ``_e_good_ordering``.
    """
    validate_bipartition(g, sides)
    i_set = frozenset(i_set)
    _check_independent(g, i_set)
    nu = len(maximum_matching(g).edges)
    if len(i_set) != g.n - nu:
        raise ValueError("independent set is not maximum")
    allowed_set = set()
    for u, v in allowed:
        e = edge_key(u, v)
        if not g.has_edge(*e):
            raise ValueError(f"allowed edge {e} not in graph")
        allowed_set.add(e)
    found = _e_good_ordering(g.adj, i_set, lambda y, x: edge_key(y, x) in allowed_set)
    if found is None:
        return None
    sequence, p_map = found
    edges = [edge_key(y, x) for y, x in p_map.items()]
    return AccessibilityOrdering(i_set, sequence, p_map, Matching.from_edges(g, edges))


def _e_good_ordering(adj, i_set, allowed):
    """``find_e_good_ordering`` on input known to be valid: ``i_set`` a
    maximum independent set of the bipartite graph of adjacency ``adj``,
    ``allowed(y, x)`` whether the edge between x of the set and its
    neighbor y may enter the ordering.  Returns ``(sequence, p_map)``,
    ``p_map`` mapping each neighbor of the set to the earliest placed vertex
    adjacent to it, or None.

    Greedy: place the lowest unplaced vertex that brings at most one new
    neighbor, with that neighbor joined by an allowed edge.  Any greedy
    choice is safe: a placeable vertex never has to be withheld.  Each
    unplaced vertex of ``i_set`` counts its unseen neighbors; seeing a
    vertex lowers the count of each neighbor that is such a vertex, and of
    no other, as no other vertex is ever placed.  A vertex whose count
    reaches 0, or 1 across an allowed edge, joins a min-heap.  ``allowed``
    is asked only when a count reaches 1, with y the one unseen neighbor
    left, so at most once per vertex of the set.  Placeability only grows,
    so popping the heap, skipping entries already placed, gives the lowest
    placeable vertex at each step, in O(m log n) plus at most one call of
    ``allowed`` per vertex of the set.
    """
    unseen = {x: len(adj[x]) for x in i_set}  # unplaced x -> unseen neighbors
    heap = [x for x, c in unseen.items() if c == 0 or c == 1 and allowed(adj[x][0], x)]
    heapify(heap)
    seen: set[int] = set()
    placed: list[int] = []
    p_map: dict[int, int] = {}
    while heap:
        x = heappop(heap)
        if x not in unseen:
            continue  # pushed twice, at count 1 and at 0
        if unseen.pop(x):
            for y in adj[x]:
                if y not in seen:
                    break
            seen.add(y)
            p_map[y] = x
            for z in adj[y]:
                c = unseen.get(z)
                if c:  # z is an unplaced vertex of i_set
                    unseen[z] = c = c - 1
                    if c == 0 or c == 1 and allowed(next(w for w in adj[z] if w not in seen), z):
                        heappush(heap, z)
        placed.append(x)
    if unseen:
        return None
    return tuple(placed), p_map
