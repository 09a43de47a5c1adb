"""Uniquely restricted matchings: the alternating-orientation digraph and tests.

For a bipartite graph with sides (A, B) and a matching M, the digraph D(M)
orients every non-matching edge from A to B and every matching edge from B to
A.  Directed cycles of D(M) are exactly the M-alternating cycles, so M is
uniquely restricted iff D(M) is acyclic; the bipartite every-decider and
the verifier's surplus check read D(M) and its reachability closures.  The
general-graph UR test below does not use the digraph: M is uniquely
restricted iff it is the unique perfect matching of g[V(M)].
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .graph_core import Graph, validate_bipartition
from .matching import Matching, _match_array, _peel


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
        if e not in g.edges:
            raise ValueError(f"matching edge {e} not in graph")
    # Matching.from_edges already guarantees disjointness and the mate map


def _closure(n: int, adj: list[tuple[int, ...]], sources: Iterable[int]) -> frozenset[int]:
    seen = [False] * n
    queue = deque()
    for s in sorted(sources):
        if not seen[s]:
            seen[s] = True
            queue.append(s)
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if not seen[w]:
                seen[w] = True
                queue.append(w)
    return frozenset(v for v in range(n) if seen[v])


def build_matching_digraph(g: Graph, sides, m: Matching) -> MatchingDigraph:
    side_a, side_b = validate_bipartition(g, sides)
    _validate_matching_of(g, m)
    succ: list[tuple[int, ...]] = []
    pred: list[tuple[int, ...]] = []
    for u in range(g.n):
        # u -> w iff u lies on side A xor uw is the matching edge at u
        forward = u in side_a
        mate = m.mate.get(u)
        out, inn = [], []
        for w in g.adj[u]:
            (out if forward != (w == mate) else inn).append(w)
        succ.append(tuple(out))
        pred.append(tuple(inn))
    a0 = side_a - m.covered
    b0 = side_b - m.covered
    v_plus = _closure(g.n, succ, a0)
    v_minus = _closure(g.n, pred, b0)
    return MatchingDigraph(tuple(succ), tuple(pred), a0, b0, v_plus, v_minus)


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
    subgraph induced by its covered vertices, which holds iff the Kotzig peel
    ``_peel`` of m leaves nothing.  The empty matching qualifies.
    """
    _validate_matching_of(g, m)
    if not m.edges:
        return True
    alive = [False] * g.n
    for v in m.covered:
        alive[v] = True
    return not _peel(g.adj, _match_array(g, m), alive)
