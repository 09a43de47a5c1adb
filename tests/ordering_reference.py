"""The rescanning greedy for accessibility orderings within allowed edges.

After each placement it rescans every unplaced vertex of the independent set
for one that brings at most one new neighbor, joined to it by an allowed
edge.  Without ``rng`` it places the lowest such vertex, so its answers must
equal the library's counter-driven ``_e_good_ordering`` exactly; with ``rng``
it places a random one, which shows that the choice does not matter for
whether an ordering exists.  Each step costs a scan of the whole set, so the
search is quadratic on paths and trees.

The counter greedy as the library first ran it (``counter_ordering``): one
dict of unseen-neighbor counts keyed by g's ids, rows on both sides, and a
scan of a vertex's row for its one unseen neighbor.  The library's core
keeps the XOR of the unseen neighbors' ids instead, needs rows on the
neighbor side only and numbers the set 0..|I|-1; ``core_ordering`` runs it
on g's ids, as ``find_e_good_ordering`` does, without the validation, and
``a_side_rows`` gives the rows ``some_ur`` hands it for gb.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from urmatch.accessibility import AccessibilityOrdering, _e_good_ordering
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


def counter_ordering(adj, i_set, allowed):
    """``(sequence, p_map)`` of the lowest-first greedy on the graph of
    adjacency ``adj``, or None; ``allowed(y, x)`` for x in ``i_set`` and its
    neighbor y, asked only when x's unseen count reaches 1."""
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


def core_ordering(adj, i_set, allowed):
    """The library core's ``(sequence, p_map)`` on g's ids, or None: the set
    numbered ascending, one row per vertex of g, ``allowed`` asked in g's
    ids."""
    order = sorted(i_set)
    pos = {x: j for j, x in enumerate(order)}
    rows = [[pos[x] for x in nbrs if x in pos] for nbrs in adj]
    found = _e_good_ordering(rows, len(order), lambda y, x: allowed(y, order[x]))
    if found is None:
        return None
    sequence, p_map = found
    return tuple(order[x] for x in sequence), {y: order[x] for y, x in p_map.items()}


def a_side_rows(ge):
    """gb's rows on the A side, in the order of the attachment keys: row i
    lists the D components next to A-vertex i, the ordered set numbered as
    the components."""
    rows: list[list[int]] = [[] for _ in ge.a_list]
    for i, ci in ge.attachments:
        rows[i].append(ci)
    return rows
