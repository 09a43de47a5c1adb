"""Seeded O(n + m) graph generators and the benchmark's workloads.

Generators return ``(n, edges)`` with edges as ``(u, v)`` pairs, ``u < v``,
in a deterministic order, so that the same seed gives the same input.  They
do not use ``urmatch.families.random_graph_nm``, which lists all n^2/2 vertex
pairs and so cannot reach the 10^5-vertex sizes the ladders are meant to
grow toward.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

Edges = list[tuple[int, int]]


def _key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def gnm(n: int, m: int, rng: random.Random) -> tuple[int, Edges]:
    """Uniform simple graph with n vertices and m edges, by rejection sampling.

    Expected O(n + m) while m is at most a quarter of all pairs.
    """
    if 4 * m > n * (n - 1) // 2:
        raise ValueError(f"gnm is for sparse graphs: m={m} is too large for n={n}")
    chosen: dict[tuple[int, int], None] = {}
    while len(chosen) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            chosen.setdefault(_key(u, v))
    return n, list(chosen)


def random_tree(n: int, rng: random.Random) -> tuple[int, Edges]:
    """Uniform labelled tree on n vertices: linear-time Pruefer decoding."""
    if n <= 1:
        return n, []
    if n == 2:
        return 2, [(0, 1)]
    code = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in code:
        degree[x] += 1
    edges: Edges = []
    ptr = degree.index(1)
    leaf = ptr
    for x in code:
        edges.append(_key(leaf, x))
        degree[x] -= 1
        if degree[x] == 1 and x < ptr:
            leaf = x
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    edges.append(_key(leaf, n - 1))
    return n, edges


def corona(n: int, edges: Edges) -> tuple[int, Edges]:
    """Attach one pendant vertex ``n + v`` to every vertex v."""
    return 2 * n, list(edges) + [(v, n + v) for v in range(n)]


def path(n: int) -> tuple[int, Edges]:
    return n, [(i, i + 1) for i in range(n - 1)]


def cycle(n: int) -> tuple[int, Edges]:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]


def triangle_tree(n_tree: int, frac: float, rng: random.Random) -> tuple[int, Edges]:
    """Random tree with a pendant triangle on ``round(frac * n_tree)`` of its vertices.

    A pendant triangle at v adds two new vertices x, y and the edges vx, vy, xy.
    """
    n, edges = random_tree(n_tree, rng)
    for v in sorted(rng.sample(range(n_tree), round(frac * n_tree))):
        x, y = n, n + 1
        edges += [(v, x), (v, y), (x, y)]
        n += 2
    return n, edges


def all_graphs(n: int):
    """Every labelled graph on n vertices, in edge-mask order."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield n, [p for k, p in enumerate(pairs) if (mask >> k) & 1]


def gnp(n: int, p: float, rng: random.Random) -> tuple[int, Edges]:
    """G(n, p) on all pairs in lexicographic order; meant for n of about 10."""
    return n, [pr for pr in itertools.combinations(range(n), 2) if rng.random() < p]


@dataclass(frozen=True)
class Instance:
    """One generated input: a shape label, its vertex count and its edges."""

    label: str
    n: int
    edges: Edges


# Ladder rungs and graphs per rung.  Random shapes get many graphs per rung
# because decide time varies several-fold from one seed to the next; the sum
# over a rung is what has to be steady from seed to seed.
SPARSE_LADDER = ((32, 512), (64, 640), (128, 192))
RIGID_SIZES = (300, 600, 1200)
TRIANGLE_LADDER = ((100, 48), (200, 32), (400, 24))
TRIANGLE_FRAC = 0.25
SMALL_NMAX = 5
SMALL_RANDOM = 200


def sparse_random(seed: int) -> list[Instance]:
    rng = random.Random(f"sparse_random:{seed}")
    out = []
    for n, count in SPARSE_LADDER:
        for _ in range(count):
            out.append(Instance(f"gnm_{n}", *gnm(n, 3 * n // 2, rng)))
    return out


def rigid_chains(seed: int) -> list[Instance]:
    """Even paths, tree coronas and odd cycles: both answers are true."""
    rng = random.Random(f"rigid_chains:{seed}")
    out = []
    for size in RIGID_SIZES:
        out.append(Instance(f"path_{size}", *path(size)))
        out.append(Instance(f"corona_{size}", *corona(*random_tree(size // 2, rng))))
        out.append(Instance(f"cycle_{size + 1}", *cycle(size + 1)))
    return out


def triangle_trees(seed: int) -> list[Instance]:
    rng = random.Random(f"triangle_trees:{seed}")
    out = []
    for n_tree, count in TRIANGLE_LADDER:
        for _ in range(count):
            out.append(Instance(f"tritree_{n_tree}", *triangle_tree(n_tree, TRIANGLE_FRAC, rng)))
    return out


def small_exhaustive(seed: int) -> list[Instance]:
    rng = random.Random(f"small_exhaustive:{seed}")
    out = [Instance(f"all_{n}", *ge) for n in range(SMALL_NMAX + 1) for ge in all_graphs(n)]
    for _ in range(SMALL_RANDOM):
        n = rng.randrange(7, 11)
        out.append(Instance(f"gnp_{n}", *gnp(n, rng.choice((0.2, 0.4, 0.6)), rng)))
    return out


WORKLOADS = {
    "sparse_random": sparse_random,
    "rigid_chains": rigid_chains,
    "triangle_trees": triangle_trees,
    "small_exhaustive": small_exhaustive,
}
