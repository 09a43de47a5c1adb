"""Shared hypothesis strategies and deterministic graph samplers."""

from __future__ import annotations

import random
from itertools import combinations

from hypothesis import strategies as st

from urmatch.graph_core import Graph


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
