"""Accessibility orderings of independent sets and the greedy restricted search.

An ordering of an independent set I is an accessibility ordering when each
prefix extends the neighborhood by at most one vertex.  Matching each
neighborhood vertex y to the earliest ordered vertex adjacent to it yields an
edge set M; the ordering is an accessibility ordering exactly when M is a
matching.  ``find_e_good_ordering`` greedily builds an ordering whose induced
matching stays inside a prescribed edge set; any extendable choice is safe, so
the greedy search is complete.  It is driven by counters: each vertex of the
set keeps the count and the XOR of its unseen neighbors, and the lowest
placeable vertex comes off a heap, so no step rescans the set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush

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


def find_e_good_ordering(g: Graph, sides, i_set, allowed) -> AccessibilityOrdering | None:
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
    order = sorted(i_set)
    pos = {x: j for j, x in enumerate(order)}
    rows = [[pos[x] for x in nbrs if x in pos] for nbrs in g.adj]
    found = _e_good_ordering(rows, len(order), lambda y, x: edge_key(y, order[x]) in allowed_set)
    if found is None:
        return None
    p_map = {y: order[x] for y, x in found[1].items()}
    edges = [edge_key(y, x) for y, x in p_map.items()]
    return AccessibilityOrdering(i_set, tuple(order[x] for x in found[0]), p_map, Matching.from_edges(g, edges))


def _e_good_ordering(rows, size, allowed):
    """``find_e_good_ordering`` on valid input, in the set's own ids: the
    maximum independent set is 0..size-1, ``rows[y]`` lists its vertices
    adjacent to the neighbor y, and ``allowed(y, x)`` says whether the edge
    xy may enter the ordering.  Returns ``(sequence, p_map)``, ``p_map``
    mapping each neighbor of the set to the earliest placed vertex adjacent
    to it, or None.

    Greedy: place the lowest unplaced vertex that brings at most one new
    neighbor, with that neighbor joined by an allowed edge.  Any greedy
    choice is safe: a placeable vertex never has to be withheld.  Each
    unplaced vertex x keeps the count and the XOR of the ids of its unseen
    neighbors, so the XOR is the one left once the count is 1, and x needs
    no row.  Seeing y updates both at each unplaced vertex of ``rows[y]``,
    which holds vertices of the set only.  A vertex whose count reaches 0,
    or 1 across an allowed edge, joins a min-heap, so ``allowed`` is asked
    at most once per vertex of the set.  Placeability only grows, so
    popping the heap, skipping entries already placed (count -1), gives the
    lowest placeable vertex at each step, in O(m log n).
    """
    unseen, last = [0] * size, [0] * size
    for y, row in enumerate(rows):
        for x in row:
            unseen[x] += 1
            last[x] ^= y
    heap = [x for x, c in enumerate(unseen) if c == 0 or c == 1 and allowed(last[x], x)]  # sorted: a heap
    placed: list[int] = []
    p_map: dict[int, int] = {}
    while heap:
        x = heappop(heap)
        c = unseen[x]
        if c < 0:
            continue  # pushed twice, at count 1 and at 0
        unseen[x] = -1
        if c:
            y = last[x]
            p_map[y] = x
            for z in rows[y]:
                c = unseen[z]
                if c > 0:  # z is unplaced
                    unseen[z] = c = c - 1
                    last[z] ^= y
                    if c == 0 or c == 1 and allowed(last[z], z):
                        heappush(heap, z)
        placed.append(x)
    if len(placed) < size:
        return None
    return tuple(placed), p_map
