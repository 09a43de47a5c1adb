"""Constructors for named graph families and seeded random graphs."""

from __future__ import annotations

import random

from .graph_core import Graph


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, ((u, v) for u in range(n) for v in range(u + 1, n)))


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph.from_edges(a + b, ((u, a + w) for u in range(a) for w in range(b)))


def star_graph(leaves: int) -> Graph:
    """Star with center 0 and the given number of leaves."""
    return complete_bipartite(1, leaves)


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + spokes + inner)


def bowtie_graph() -> Graph:
    """Two triangles sharing vertex 0."""
    return Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    """G(n, p): each pair drawn independently, pairs visited in lexicographic order."""
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return Graph.from_edges(n, edges)
