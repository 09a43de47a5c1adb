"""Shared hypothesis strategies and deterministic graph samplers."""

from __future__ import annotations

import random
from itertools import combinations

from hypothesis import strategies as st

from urmatch.graph_core import Graph, connected_components, induced_subgraph


@st.composite
def graphs(draw, max_n=10, max_density=1.0):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = list(combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    # density knob keeps big instances sparse enough for brute-force checks
    limit = max(1, int(len(pairs) * max_density)) if pairs else 0
    return Graph.from_edges(n, chosen[:limit])


@st.composite
def bipartite_graphs(draw, max_side=5):
    a = draw(st.integers(min_value=0, max_value=max_side))
    b = draw(st.integers(min_value=0, max_value=max_side))
    n = a + b
    pairs = [(i, a + j) for i in range(a) for j in range(b)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    g = Graph.from_edges(n, chosen)
    return g, (frozenset(range(a)), frozenset(range(a, n)))


def seeded_random_graphs(count, n_range, p_values, seed):
    """Deterministic Erdos-Renyi sample used by the cross-validation sweeps."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randrange(n_range[0], n_range[1] + 1)
        p = rng.choice(p_values)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        out.append(Graph.from_edges(n, edges))
    return out


def random_graph_nm(n, m, rng):
    """Uniform random graph with exactly m edges."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if m > len(pairs):
        raise ValueError("too many edges requested")
    return Graph.from_edges(n, rng.sample(pairs, m))


def sparse_graph_nm(n, m, rng):
    """Uniform random graph with exactly m edges, by rejection sampling:
    expected O(n + m) while m is at most a quarter of all pairs, where
    ``random_graph_nm`` lists all of them."""
    if 4 * m > n * (n - 1) // 2:
        raise ValueError("sparse_graph_nm takes at most a quarter of all pairs")
    chosen = set()
    while len(chosen) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            chosen.add((u, v) if u < v else (v, u))
    return Graph.from_edges(n, chosen)


def giant(g):
    """The largest connected component of g, relabelled in ascending order."""
    return induced_subgraph(g, max(connected_components(g), key=len))[0]


def random_tree_edges(n, rng):
    """A random recursive tree: vertex v > 0 hangs below a uniform earlier one."""
    return [(rng.randrange(v), v) for v in range(1, n)]


def corona(g):
    """g with one pendant vertex ``g.n + v`` attached to every vertex v."""
    return Graph.from_edges(2 * g.n, [*g.edges, *((v, g.n + v) for v in range(g.n))])


def two_c5_apex():
    """Apex 0 attached to one vertex of each of two 5-cycles; the cycles are
    the deficient components, the apex is the separator."""
    edges = [(0, 1), (0, 6)]
    for base in (1, 6):
        ring = list(range(base, base + 5))
        edges += [(ring[i], ring[(i + 1) % 5]) for i in range(5)]
    return Graph.from_edges(11, edges)


def linear_triangle_tree(n_tree, frac, rng):
    """A random recursive tree with a pendant triangle v, x, y on
    ``round(frac * n_tree)`` of its vertices, in O(n)."""
    edges = random_tree_edges(n_tree, rng)
    n = n_tree
    for v in sorted(rng.sample(range(n_tree), round(frac * n_tree))):
        edges += [(v, n), (v, n + 1), (n, n + 1)]
        n += 2
    return Graph.from_edges(n, edges)
