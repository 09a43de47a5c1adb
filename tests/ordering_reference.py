"""The rescanning greedy for accessibility orderings within allowed edges.

After each placement it rescans every unplaced vertex of the independent set
for one that brings at most one new neighbor, joined to it by an allowed
edge.  Without ``rng`` it places the lowest such vertex, so its answers must
equal the library's counter-driven ``_e_good_ordering`` exactly; with ``rng``
it places a random one, which shows that the choice does not matter for
whether an ordering exists.  Each step costs a scan of the whole set, so the
search is quadratic on paths and trees.
"""

from __future__ import annotations

from urmatch.accessibility import AccessibilityOrdering
from urmatch.graph_core import edge_key
from urmatch.matching import Matching


def rescanning_ordering(g, i_set, allowed_set, rng=None):
    """An accessibility ordering of ``i_set`` whose induced matching lies in
    ``allowed_set`` (normalized edges of g), or None; ties go to the lowest
    id, or to ``rng.choice`` when ``rng`` is given."""
    i_set = frozenset(i_set)
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
