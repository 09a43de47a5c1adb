"""Uniquely restricted matchings: the alternating-orientation digraph and tests.

For a bipartite graph with sides (A, B) and a matching M, the digraph D(M)
orients every non-matching edge from A to B and every matching edge from B to
A.  Directed cycles of D(M) are exactly the M-alternating cycles, so M is
uniquely restricted iff D(M) is acyclic.  ``_arcs`` and ``_reach`` give
D(M)'s lists and the masks of its reachability closures from a side mask
and a mate array: ``build_matching_digraph`` wraps them for a given
``Matching``, and ``verify_gallai_edmonds`` checks gb's surplus with one
``_reach`` mask.  No decider builds D(M).  The general-graph UR test below
does not use the digraph: M is uniquely restricted iff it is the unique
perfect matching of g[V(M)], that is iff g[V(M)] has no M-alternating
cycle, which the library's one alternating-cycle kernel
(``matching._m_alternating_cycle``) decides.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .graph_core import Graph, validate_bipartition
from .matching import Matching, _m_alternating_cycle, _match_array


@dataclass(frozen=True)
class MatchingDigraph:
    """D(M) plus the free vertices and their reachability closures.

    ``succ[v]`` / ``pred[v]`` are the ascending successors / predecessors of
    v in D(M).  ``a0`` / ``b0`` are the unmatched vertices of sides A / B;
    ``v_plus`` is everything reachable from ``a0`` (sources included),
    ``v_minus`` everything that can reach ``b0``.  Every matched A-vertex has in-degree 1
    and every matched B-vertex out-degree 1 by construction.
    """

    succ: tuple[tuple[int, ...], ...]
    pred: tuple[tuple[int, ...], ...]
    a0: frozenset[int]
    b0: frozenset[int]
    v_plus: frozenset[int]
    v_minus: frozenset[int]


def _validate_matching_of(g: Graph, m: Matching) -> None:
    for e in m.edges:
        if not g.has_edge(*e):
            raise ValueError(f"matching edge {e} not in graph")
    # Matching.from_edges already guarantees disjointness and the mate map


def _arcs(adj, in_a, mate, forward: bool) -> list[list[int]]:
    """D(M)'s successor lists when ``forward``, else its predecessor lists,
    for side A marked in ``in_a`` and M in ``mate`` (-1 for free).  u -> w
    iff u lies on side A xor uw is the matching edge at u: an A-vertex
    points along its non-matching edges, a B-vertex along its matching one."""
    out = []
    for u, nbrs in enumerate(adj):
        m = mate[u]
        if in_a[u] == forward:
            out.append([w for w in nbrs if w != m])
        else:
            out.append([m] if m != -1 else [])
    return out


def _reach(adj, in_a, mate, forward: bool) -> list[bool]:
    """The mask of V+ (all that D(M) reaches from the free A-vertices, these
    included) when ``forward``, else of V- (all that reaches a free
    B-vertex): a search along the arcs of ``_arcs``, without their lists."""
    seen = [m == -1 and side == forward for side, m in zip(in_a, mate)]
    queue = [v for v, s in enumerate(seen) if s]
    for u in queue:  # the loop also visits vertices appended while it runs
        m = mate[u]
        for w in adj[u] if in_a[u] == forward else ((m,) if m != -1 else ()):
            if not seen[w]:
                seen[w] = True
                queue.append(w)
    return seen


def build_matching_digraph(g: Graph, sides, m: Matching) -> MatchingDigraph:
    side_a, side_b = validate_bipartition(g, sides)
    _validate_matching_of(g, m)
    in_a = [v in side_a for v in range(g.n)]
    mate = _match_array(g, m)
    succ = tuple(map(tuple, _arcs(g.adj, in_a, mate, True)))
    pred = tuple(map(tuple, _arcs(g.adj, in_a, mate, False)))
    v_plus, v_minus = (frozenset(v for v, r in enumerate(_reach(g.adj, in_a, mate, f)) if r)
                       for f in (True, False))
    return MatchingDigraph(succ, pred, side_a - m.covered, side_b - m.covered, v_plus, v_minus)


def is_acyclic(succ: tuple[tuple[int, ...], ...]) -> bool:
    """Kahn peeling of the digraph given by successor lists: repeatedly
    delete in-degree-zero vertices."""
    n = len(succ)
    indeg = [0] * n
    for ws in succ:
        for w in ws:
            indeg[w] += 1
    queue = deque(v for v in range(n) if indeg[v] == 0)
    removed = 0
    while queue:
        v = queue.popleft()
        removed += 1
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return removed == n


def is_uniquely_restricted(g: Graph, m: Matching) -> bool:
    """True iff no other matching of g covers exactly the vertices of m.

    Equivalent formulation used here: m is the unique perfect matching of the
    subgraph induced by its covered vertices, which holds iff the kernel
    ``_m_alternating_cycle`` finds no m-alternating cycle there, in one
    call.  The empty matching qualifies.
    """
    _validate_matching_of(g, m)
    if not m.edges:
        return True
    alive = [False] * g.n
    for v in m.covered:
        alive[v] = True
    return _m_alternating_cycle(g.adj, _match_array(g, m), alive, sorted(m.covered)) is None
