"""Immutable simple graphs and the structural queries shared by all algorithms.

Vertices are dense integer ids ``0..n-1``.  Every operation iterates vertices
and neighbors in ascending id order, so outputs are deterministic for a fixed
input.  Induced subgraphs are new values that carry a map back to the
original vertex ids.  ``_classes`` is the library's one component search:
it numbers in place the components of ``decomposition``'s classes, or of
the kept vertices of ``connected_components``, which ``is_forest`` counts.
The odd-cycle block test runs on an adjacency and a vertex mask
(``_odd_cycle_blocks``, one depth-first search with no block lists), so
that the every-decider can test g[D] without building it;
``blocks_are_odd_cycles`` is its whole-graph wrapper.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable


def edge_key(u: int, v: int) -> tuple[int, int]:
    """Normalize an unordered vertex pair to ``(min, max)``."""
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: no loops, no parallel edges.

    The fields are ``n`` and ``adj``, an ascending-sorted adjacency tuple;
    equality and hashing come from them.  ``edges`` (normalized pairs
    ``(u, v)`` with ``u < v``) and ``m`` are views read off ``adj`` on first
    read; no decider builds ``edges``.  Instances are immutable.  Use
    :meth:`from_edges` to construct one from outside data; library code
    that already holds an adjacency (rows of distinct in-range ids,
    ascending, each edge listed at both ends) calls ``Graph(n, adj)``
    directly, as :func:`induced_subgraph` and the graph-file parser do.
    """

    n: int
    adj: tuple[tuple[int, ...], ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]] = ()) -> "Graph":
        """The graph of n vertices and ``edges``; a pair repeated in either
        orientation is kept once."""
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        nbrs: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            nbrs[u].append(v)
            nbrs[v].append(u)
        adj = _rows(nbrs)
        if adj is None:
            adj = tuple(tuple(sorted(set(row))) for row in nbrs)
        return cls(n, adj)

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.sorted_edges())

    @cached_property
    def m(self) -> int:
        return sum(map(len, self.adj)) // 2

    def has_edge(self, u: int, v: int) -> bool:
        n = self.n
        if not (0 <= u < n and 0 <= v < n):  # adj[-1] would wrap
            return False
        row = self.adj[u]
        i = bisect_left(row, v)
        return i < len(row) and row[i] == v

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def sorted_edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u, row in enumerate(self.adj) for v in row if u < v]


def _rows(nbrs: list[list[int]]) -> tuple[tuple[int, ...], ...] | None:
    """The neighbour lists ``nbrs``, sorted in place, as an adjacency; None
    if a row lists a vertex twice (a repeated pair, or a loop, whose vertex
    its own row lists twice)."""
    for row in nbrs:
        row.sort()
    adj = tuple(map(tuple, nbrs))
    if sum(map(len, adj)) != sum(map(len, map(set, adj))):
        return None
    return adj


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced by ``vertices``.

    Returns ``(subgraph, id_map)`` where ``id_map[new_id] == original_id``;
    new ids follow ascending original-id order.
    """
    keep = sorted(set(vertices))
    for v in keep:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    pos = {v: i for i, v in enumerate(keep)}
    # walk only the kept vertices' adjacency: callers often keep a handful
    # of vertices of a large host graph; pos preserves order, so each list
    # stays ascending and the result needs no renormalizing
    adj = tuple(tuple(pos[w] for w in g.adj[u] if w in pos) for u in keep)
    return Graph(len(keep), adj), tuple(keep)


def _classes(adj, comp) -> int:
    """Number the components of the class array ``comp`` in place, D -2, A
    -1 and C -3 on entry, into the component array of ``GallaiEdmonds``,
    and return how many of them are odd: one breadth-first search that
    stays inside the class of its start numbers each."""
    n_d = n_c = odd = 0
    for s in range(len(adj)):  # ascending, so each component is numbered by its lowest vertex
        cls = comp[s]
        if cls == -2:
            ci, n_d = n_d, n_d + 1
        elif cls == -3:
            ci, n_c = -4 - n_c, n_c + 1
        else:
            continue  # A, or visited
        comp[s] = ci
        queue = [s]
        for v in queue:  # the loop also visits vertices appended while it runs
            for w in adj[v]:
                if comp[w] == cls:
                    comp[w] = ci
                    queue.append(w)
        odd += len(queue) & 1
    return odd


def connected_components(g: Graph, vertices: Iterable[int] | None = None) -> list[frozenset[int]]:
    """Vertex sets of the connected components of g[vertices], in g's ids,
    ordered by smallest member; all of g when ``vertices`` is None.

    The kept vertices are marked as D, the rest as A, and ``_classes``
    numbers them by their lowest vertex: no subgraph is built.
    """
    comp = [-1] * g.n
    for v in range(g.n) if vertices is None else vertices:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
        comp[v] = -2
    _classes(g.adj, comp)
    groups: list[list[int]] = [[] for _ in range(max(comp, default=-1) + 1)]
    for v, c in enumerate(comp):
        if c >= 0:
            groups[c].append(v)
    return list(map(frozenset, groups))


def is_forest(g: Graph) -> bool:
    """True iff the graph contains no cycle: iff each component, a tree,
    has one edge fewer than vertices."""
    return g.m == g.n - len(connected_components(g))


def bipartition(g: Graph) -> tuple[frozenset[int], frozenset[int]] | None:
    """Deterministic 2-coloring ``(A, B)``, or None if the graph is not bipartite.

    In each connected component the lowest-id vertex goes to side A; isolated
    vertices therefore all end up in A.
    """
    adj = g.adj
    in_a: list[bool | None] = [None] * g.n
    for start in range(g.n):
        if in_a[start] is not None:
            continue
        in_a[start] = True
        queue = [start]
        for v in queue:  # the loop also visits vertices appended while it runs
            c = not in_a[v]
            for w in adj[v]:
                if in_a[w] is None:
                    in_a[w] = c
                    queue.append(w)
                elif in_a[w] != c:
                    return None
    return (frozenset(v for v in range(g.n) if in_a[v]),
            frozenset(v for v in range(g.n) if not in_a[v]))


def validate_bipartition(g: Graph, sides: tuple[Iterable[int], Iterable[int]]) -> tuple[frozenset[int], frozenset[int]]:
    """Check that ``sides`` is a valid bipartition of g; returns it as frozensets."""
    side_a, side_b = frozenset(sides[0]), frozenset(sides[1])
    if side_a & side_b:
        raise ValueError("bipartition sides overlap")
    if side_a | side_b != frozenset(range(g.n)):
        raise ValueError("bipartition does not cover all vertices")
    for u, row in enumerate(g.adj):
        for v in row:
            if u < v and (u in side_a) == (v in side_a):
                raise ValueError(f"edge ({u}, {v}) lies within one side")
    return side_a, side_b


def _odd_cycle_blocks(adj, keep) -> bool:
    """Whether every block of the subgraph of ``adj`` induced by the
    vertices marked in ``keep`` is an odd cycle: one depth-first search
    (Tarjan 1972) checks that each tree edge pv lies under exactly one back
    edge (``cover[v]``, counted when the search leaves v) and each back edge
    closes an odd cycle, and stops at the first edge that fails."""
    n = len(adj)
    depth = [-1] * n
    cover = [0] * n
    for root in range(n):
        if not keep[root] or depth[root] != -1:
            continue
        depth[root] = 0
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            v, p, it = stack[-1]
            for w in it:
                if w == p or not keep[w]:
                    continue
                d = depth[w]
                if d == -1:
                    depth[w] = depth[v] + 1
                    stack.append((w, v, iter(adj[w])))
                    break
                if d > depth[v]:  # the back edge from the descendant w ends here
                    cover[v] -= 1
                elif (depth[v] - d) % 2:  # it closes depth[v] - d + 1 edges
                    return False
                else:
                    cover[v] += 1
            else:
                stack.pop()
                if p != -1:
                    if cover[v] != 1:
                        return False
                    cover[p] += 1  # v's one back edge, unless it ends at p
    return True


def blocks_are_odd_cycles(g: Graph) -> bool:
    """True iff every block of the (connected) graph is an odd cycle.

    A single vertex has no blocks and yields True.  Disconnected input is
    rejected: the question is only posed for connected graphs here.
    """
    if len(connected_components(g)) != 1:
        raise ValueError("blocks_are_odd_cycles requires a connected graph")
    return _odd_cycle_blocks(g.adj, [True] * g.n)
