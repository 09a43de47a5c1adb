"""Helpers that only the lemma suites use.

None of the deciders needs them: they state the lemmas the deciders rest on
(accessibility orderings, Koenig maximality, single edge exchanges,
alternating cycles, factor-criticality, the deficient-component condition)
and the deletion operations the definitional checks are written with.
``konig_independent_set_by_search`` is the Koenig set as
``max_independent_set_bipartite`` first found it, by its own alternating
search; the library reads it off the matcher's labels.
``component_all_near_perfect_unique`` states the D-block condition by one
uniqueness test per deleted vertex, as the self-test first checked it.
"""

from __future__ import annotations

from urmatch.accessibility import _check_independent
from urmatch.graph_core import Graph, edge_key, induced_subgraph, validate_bipartition
from urmatch.matching import _DEAD_EVEN, Matching, _matcher, _max_match_array, unique_perfect_matching
from urmatch.ur_core import MatchingDigraph, build_matching_digraph


def delete_vertex(g: Graph, v: int) -> tuple[Graph, tuple[int, ...]]:
    """Graph with vertex ``v`` removed; returns ``(subgraph, id_map)``."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    return induced_subgraph(g, (u for u in range(g.n) if u != v))


def delete_edge(g: Graph, e: tuple[int, int]) -> Graph:
    """Graph with edge ``e`` removed; vertex ids are unchanged."""
    key = edge_key(*e)
    if key not in g.edges:
        raise ValueError(f"edge {key} not in graph")
    return Graph.from_edges(g.n, g.edges - {key})


def induced_matching_edges(g: Graph, i_set, sigma) -> frozenset[tuple[int, int]]:
    """Match each neighbor y of the set to the earliest sigma-vertex adjacent to y.

    The result need not be a matching; it is one exactly when sigma is an
    accessibility ordering.
    """
    i_set = frozenset(i_set)
    sigma = tuple(sigma)
    _check_independent(g, i_set)
    if len(sigma) != len(i_set) or set(sigma) != i_set:
        raise ValueError("sigma is not a permutation of the independent set")
    p: dict[int, int] = {}
    for x in sigma:
        for y in g.adj[x]:
            if y not in p:
                p[y] = x
    return frozenset(edge_key(y, x) for y, x in p.items())


def is_accessibility_ordering(g: Graph, i_set, sigma) -> bool:
    """True iff every prefix of sigma adds at most one new neighbor."""
    i_set = frozenset(i_set)
    sigma = tuple(sigma)
    _check_independent(g, i_set)
    if len(sigma) != len(i_set) or set(sigma) != i_set:
        raise ValueError("sigma is not a permutation of the independent set")
    seen: set[int] = set()
    for x in sigma:
        new = [y for y in g.adj[x] if y not in seen]
        if len(new) > 1:
            return False
        seen.update(new)
    return True


def konig_maximality_check(md: MatchingDigraph) -> bool:
    """Koenig-style maximality: the matching is maximum iff the closures are disjoint."""
    return md.v_plus.isdisjoint(md.v_minus)


def konig_independent_set_by_search(g: Graph, sides) -> frozenset[int]:
    """The complement of the Koenig cover of the matcher's maximum
    matching: the cover is the A-vertices that the alternating search from
    the free A-vertices misses and the B-vertices it reaches, so v is in the
    set iff ``reach[v]`` equals whether v is on side A."""
    side_a, _ = validate_bipartition(g, sides)
    mate = _max_match_array(g)
    reach = [False] * g.n
    queue = [a for a in side_a if mate[a] == -1]
    for a in queue:
        reach[a] = True
    for a in queue:  # the loop also visits vertices appended while it runs
        for b in g.adj[a]:
            if not reach[b]:  # b is not a's mate, which reached a
                reach[b] = True
                a2 = mate[b]
                if a2 != -1:
                    reach[a2] = True
                    queue.append(a2)
    return frozenset(v for v, r in enumerate(reach) if r == (v in side_a))


def edge_exchanges(g: Graph, sides, m: Matching) -> list[Matching]:
    """All single edge exchanges of a maximum matching m.

    For each unmatched vertex x and each matched neighbor y, the exchange
    replaces the matching edge at y with xy.  Requires m maximum (checked via
    the closure test).  Results come in ascending (x, then neighbor) order;
    distinct exchanges yield distinct matchings.
    """
    side_a, side_b = validate_bipartition(g, sides)
    md = build_matching_digraph(g, sides, m)
    if not konig_maximality_check(md):
        raise ValueError("matching is not maximum")
    out = []
    for x_side in (side_a, side_b):
        for x in sorted(x_side - m.covered):
            for y in g.adj[x]:
                # y is matched: a free neighbor would contradict maximality
                z = m.mate[y]
                edges = (m.edges - {edge_key(z, y)}) | {edge_key(x, y)}
                out.append(Matching.from_edges(g, edges))
    return out


def is_alternating_cycle(adj, match, cycle) -> bool:
    """Whether ``cycle`` lists the vertices of a simple even cycle of ``adj``
    whose edges alternate under the mate array ``match``, the first edge
    matched and the closing edge not."""
    k = len(cycle)
    if k < 4 or k % 2 or len(set(cycle)) != k:
        return False
    for i in range(0, k, 2):
        x, y, z = cycle[i], cycle[i + 1], cycle[(i + 2) % k]
        if match[x] != y or z not in adj[y]:
            return False
    return True


def is_factor_critical(g: Graph) -> bool:
    """True iff deleting any one vertex leaves a perfectly matchable graph:
    g is odd, the matcher leaves one vertex free, and its Edmonds labels
    are all even, so every vertex is missable."""
    if g.n == 0:
        return True
    if g.n % 2 == 0:
        return False
    match, label, _, _ = _matcher(g)
    if match.count(-1) != 1:
        return False
    return all(x == _DEAD_EVEN for x in label)


def component_all_near_perfect_unique(g: Graph, comp: list[int]) -> bool:
    """Definitional form of the deficient-component condition: deleting any
    one vertex of ``comp`` must leave a unique perfect matching.  Tests
    compare it with the block search that ``every_ur`` runs on D, kept
    inside the one component."""
    for h in comp:
        sub, _ = induced_subgraph(g, [v for v in comp if v != h])
        if unique_perfect_matching(sub) is None:
            return False
    return True
