"""Immutable simple graphs and the structural queries shared by all algorithms.

Vertices are dense integer ids ``0..n-1``.  Every operation iterates vertices
and neighbors in ascending id order, so outputs are deterministic for a fixed
input.  Induced subgraphs are new values that carry a map back to the
original vertex ids.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable


def edge_key(u: int, v: int) -> tuple[int, int]:
    """Normalize an unordered vertex pair to ``(min, max)``."""
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: no loops, no parallel edges.

    ``edges`` holds normalized pairs ``(u, v)`` with ``u < v``; ``adj`` is an
    ascending-sorted adjacency tuple.  Instances are immutable and hashable.
    Use :meth:`from_edges` to construct one from outside data; library code
    that already holds normalized data (pairs in range with ``u < v`` and
    ascending adjacency that lists exactly those pairs) may call the
    constructor directly, as :func:`induced_subgraph` does; the graph-file
    parser builds its adjacency with :func:`_adjacency`.
    """

    n: int
    edges: frozenset[tuple[int, int]]
    adj: tuple[tuple[int, ...], ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]] = ()) -> "Graph":
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        normalized: set[tuple[int, int]] = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            normalized.add(edge_key(u, v))
        return cls(n, frozenset(normalized), _adjacency(n, normalized))

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return edge_key(u, v) in self.edges

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


def _adjacency(n: int, edges: Iterable[tuple[int, int]]) -> tuple[tuple[int, ...], ...]:
    """The ascending adjacency of n vertices joined by ``edges``, which must
    be distinct pairs ``(u, v)`` with ``0 <= u < v < n``: no check is made."""
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    for s in nbrs:
        s.sort()
    return tuple(map(tuple, nbrs))


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
    edges = frozenset((i, j) for i, nbrs in enumerate(adj) for j in nbrs if i < j)
    return Graph(len(keep), edges, adj), tuple(keep)


def connected_components(g: Graph, vertices: Iterable[int] | None = None) -> list[frozenset[int]]:
    """Vertex sets of the connected components of g[vertices], in g's ids,
    ordered by smallest member; all of g when ``vertices`` is None.

    One breadth-first search over g's own adjacency: no subgraph is built.
    """
    if vertices is None:
        order: Iterable[int] = range(g.n)
        todo = [True] * g.n
    else:
        order = sorted(set(vertices))
        todo = [False] * g.n
        for v in order:
            if not 0 <= v < g.n:
                raise ValueError(f"vertex {v} out of range")
            todo[v] = True
    out: list[frozenset[int]] = []
    for start in order:
        if not todo[start]:
            continue
        todo[start] = False
        comp = [start]
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in g.adj[v]:
                if todo[w]:
                    todo[w] = False
                    comp.append(w)
                    queue.append(w)
        out.append(frozenset(comp))
    return out


def is_forest(g: Graph) -> bool:
    """True iff the graph contains no cycle."""
    seen = [False] * g.n
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        # BFS; meeting an already-seen vertex other than the parent closes a cycle
        queue = deque([(start, -1)])
        while queue:
            v, parent = queue.popleft()
            for w in g.adj[v]:
                if w == parent:
                    # simple graph: at most one edge back to the parent
                    parent = -1
                    continue
                if seen[w]:
                    return False
                seen[w] = True
                queue.append((w, v))
    return True


def bipartition(g: Graph) -> tuple[frozenset[int], frozenset[int]] | None:
    """Deterministic 2-coloring ``(A, B)``, or None if the graph is not bipartite.

    In each connected component the lowest-id vertex goes to side A; isolated
    vertices therefore all end up in A.
    """
    color = [-1] * g.n
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in g.adj[v]:
                if color[w] == -1:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    return None
    side_a = frozenset(v for v in range(g.n) if color[v] == 0)
    side_b = frozenset(v for v in range(g.n) if color[v] == 1)
    return side_a, side_b


def validate_bipartition(g: Graph, sides: tuple[Iterable[int], Iterable[int]]) -> tuple[frozenset[int], frozenset[int]]:
    """Check that ``sides`` is a valid bipartition of g; returns it as frozensets."""
    side_a, side_b = frozenset(sides[0]), frozenset(sides[1])
    if side_a & side_b:
        raise ValueError("bipartition sides overlap")
    if side_a | side_b != frozenset(range(g.n)):
        raise ValueError("bipartition does not cover all vertices")
    for u, v in g.edges:
        if (u in side_a) == (v in side_a):
            raise ValueError(f"edge ({u}, {v}) lies within one side")
    return side_a, side_b


def biconnected_blocks(g: Graph) -> list[frozenset[tuple[int, int]]]:
    """Edge sets of the biconnected blocks (bridges are single-edge blocks).

    The blocks partition the edge set; isolated vertices contribute none.
    Iterative Hopcroft-Tarjan DFS with an edge stack.
    """
    n = g.n
    disc = [-1] * n
    low = [0] * n
    blocks: list[frozenset[tuple[int, int]]] = []
    edge_stack: list[tuple[int, int]] = []
    clock = 0
    for root in range(n):
        if disc[root] != -1 or g.degree(root) == 0:
            continue
        disc[root] = low[root] = clock
        clock += 1
        frames: list[tuple[int, int, Iterable[int]]] = [(root, -1, iter(g.adj[root]))]
        while frames:
            v, parent, it = frames[-1]
            w = next(it, None)  # type: ignore[arg-type]
            if w is None:
                frames.pop()
                if parent != -1:
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                    if low[v] >= disc[parent]:
                        # parent is an articulation point (or the root): pop one block
                        block = []
                        while True:
                            e = edge_stack.pop()
                            block.append(edge_key(*e))
                            if e == (parent, v):
                                break
                        blocks.append(frozenset(block))
                continue
            if disc[w] == -1:
                edge_stack.append((v, w))
                disc[w] = low[w] = clock
                clock += 1
                frames.append((w, v, iter(g.adj[w])))
            elif w != parent and disc[w] < disc[v]:
                # back edge to a proper ancestor
                edge_stack.append((v, w))
                if disc[w] < low[v]:
                    low[v] = disc[w]
    return blocks


def blocks_are_odd_cycles(g: Graph) -> bool:
    """True iff every block of the (connected) graph is an odd cycle.

    A single vertex has no blocks and yields True.  Disconnected input is
    rejected: the question is only posed for connected graphs here.
    """
    if len(connected_components(g)) != 1:
        raise ValueError("blocks_are_odd_cycles requires a connected graph")
    for block in biconnected_blocks(g):
        verts = set()
        for u, v in block:
            verts.add(u)
            verts.add(v)
        # a 2-connected block is a cycle iff |E| == |V|; a bridge never is
        if len(block) != len(verts) or len(block) % 2 == 0:
            return False
    return True
