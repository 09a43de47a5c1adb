"""Accessibility orderings of independent sets and the greedy restricted search.

An ordering of an independent set I is an accessibility ordering when each
prefix extends the neighborhood by at most one vertex.  Matching each
neighborhood vertex y to the earliest ordered vertex adjacent to it yields an
edge set M; the ordering is an accessibility ordering exactly when M is a
matching.  ``find_e_good_ordering`` greedily builds an ordering whose induced
matching stays inside a prescribed edge set; any extendable choice is safe, so
the greedy search is complete.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .graph_core import Graph, edge_key, validate_bipartition
from .matching import Matching, maximum_matching_bipartite


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
    for u, v in g.edges:
        if u in i_set and v in i_set:
            raise ValueError(f"set is not independent: contains edge ({u}, {v})")


def find_e_good_ordering(
    g: Graph,
    sides,
    i_set,
    allowed,
    rng: random.Random | None = None,
) -> AccessibilityOrdering | None:
    """Accessibility ordering of a maximum independent set whose induced matching
    stays inside ``allowed``, or None if no such ordering exists.

    Validates its input (a bipartition, an independent set as large as g
    allows, allowed edges of g), then runs ``_e_good_ordering``.
    """
    validate_bipartition(g, sides)
    i_set = frozenset(i_set)
    _check_independent(g, i_set)
    nu = len(maximum_matching_bipartite(g, sides).edges)
    if len(i_set) != g.n - nu:
        raise ValueError("independent set is not maximum")
    allowed_set = set()
    for u, v in allowed:
        e = edge_key(u, v)
        if e not in g.edges:
            raise ValueError(f"allowed edge {e} not in graph")
        allowed_set.add(e)
    return _e_good_ordering(g, i_set, allowed_set, rng)


def _e_good_ordering(g: Graph, i_set: frozenset[int], allowed_set, rng=None):
    """``find_e_good_ordering`` on input known to be valid: ``i_set`` a
    maximum independent set of bipartite g, ``allowed_set`` normalized
    edges of g.

    Greedy: repeatedly place any unplaced vertex that brings at most one new
    neighbor, with that neighbor joined by an allowed edge.  Lowest id breaks
    ties unless ``rng`` is given (used to show the tie-break does not matter).
    Any greedy choice is safe: a placeable vertex never has to be withheld.
    """
    remaining = sorted(i_set)
    placed: list[int] = []
    seen_nbrs: set[int] = set()
    p_map: dict[int, int] = {}
    while remaining:
        options: list[tuple[int, int | None]] = []
        for x in remaining:
            new = [y for y in g.adj[x] if y not in seen_nbrs]
            if len(new) == 0:
                options.append((x, None))
            elif len(new) == 1 and edge_key(x, new[0]) in allowed_set:
                options.append((x, new[0]))
            if options and rng is None:
                break  # ascending scan: first valid candidate is the lowest id
        if not options:
            return None
        x, y = options[0] if rng is None else rng.choice(options)
        placed.append(x)
        remaining.remove(x)
        if y is not None:
            seen_nbrs.add(y)
            p_map[y] = x
    edges = [edge_key(y, x) for y, x in p_map.items()]
    return AccessibilityOrdering(
        independent_set=i_set,
        sequence=tuple(placed),
        p_map=p_map,
        induced_matching=Matching.from_edges(g, edges),
    )
