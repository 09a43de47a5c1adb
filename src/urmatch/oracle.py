"""Exponential brute-force references used to validate the polynomial algorithms.

Everything here enumerates; nothing here shares code with the fast paths.
Size guards are hard errors unless the caller raises the limits explicitly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator

from .graph_core import Graph, induced_subgraph
from .matching import Matching

DEFAULT_MAX_N = 16
DEFAULT_MAX_M = 24


class GuardLimitError(RuntimeError):
    """Input exceeds the brute-force size guard."""


def _check_guard(g: Graph, max_n: int, max_m: int) -> None:
    if g.n > max_n:
        raise GuardLimitError(f"{g.n} vertices exceeds the oracle guard of {max_n}")
    if g.m > max_m:
        raise GuardLimitError(f"{g.m} edges exceeds the oracle guard of {max_m}")


@dataclass(frozen=True)
class MatchingEnumeration:
    """Complete enumeration of the matchings of one graph."""

    all_matchings: tuple[frozenset[tuple[int, int]], ...]
    maximum_size: int
    maximum_matchings: tuple[frozenset[tuple[int, int]], ...]


def _extend(edges, i: int, covered: int, chosen: list, acc: list) -> None:
    """Append to ``acc`` every matching that adds to ``chosen`` (covering
    the bitmask ``covered``) edges from ``edges[i:]``: without edge i, then
    with it if its ends are free."""
    if i == len(edges):
        acc.append(frozenset(chosen))
        return
    u, v = edges[i]
    _extend(edges, i + 1, covered, chosen, acc)
    if not (covered >> u) & 1 and not (covered >> v) & 1:
        chosen.append(edges[i])
        _extend(edges, i + 1, covered | (1 << u) | (1 << v), chosen, acc)
        chosen.pop()


def enumerate_matchings(g: Graph, *, max_n: int = DEFAULT_MAX_N, max_m: int = DEFAULT_MAX_M) -> MatchingEnumeration:
    """Every matching of g, by include/exclude recursion over edges in id order."""
    _check_guard(g, max_n, max_m)
    acc: list[frozenset[tuple[int, int]]] = []
    _extend(g.sorted_edges(), 0, 0, [], acc)
    best = max(len(s) for s in acc)
    maxima = tuple(s for s in acc if len(s) == best)
    return MatchingEnumeration(tuple(acc), best, maxima)


def _completions(adj, covered: int, full: int) -> int:
    """The number of ways to match the vertices outside the bitmask
    ``covered`` (all of ``full``), the lowest of them first."""
    if covered == full:
        return 1
    # lowest uncovered vertex must be matched by any perfect matching
    v = (~covered & (covered + 1)).bit_length() - 1
    total = 0
    for w in adj[v]:
        if not (covered >> w) & 1:
            total += _completions(adj, covered | (1 << v) | (1 << w), full)
    return total


def count_perfect_matchings(g: Graph, *, max_n: int = DEFAULT_MAX_N, max_m: int = DEFAULT_MAX_M) -> int:
    """Number of perfect matchings, counted by matching the lowest free vertex."""
    _check_guard(g, max_n, max_m)
    return _completions(g.adj, 0, (1 << g.n) - 1)


def _covered_set(edges: frozenset[tuple[int, int]]) -> frozenset[int]:
    return frozenset(v for e in edges for v in e)


def oracle_is_ur(g: Graph, m: Matching, *, max_n: int = DEFAULT_MAX_N, max_m: int = DEFAULT_MAX_M) -> bool:
    """True iff m is the only perfect matching of the subgraph induced by its vertices."""
    for e in m.edges:
        if not g.has_edge(*e):
            raise ValueError(f"edge {e} not in graph")
    sub, _ = induced_subgraph(g, m.covered)
    return count_perfect_matchings(sub, max_n=max_n, max_m=max_m) == 1


def _maximum_ur_profile(g: Graph, max_n: int, max_m: int) -> tuple[bool, bool]:
    enum = enumerate_matchings(g, max_n=max_n, max_m=max_m)
    # two matchings witness each other's non-uniqueness iff they cover the same
    # vertex set; equal covered sets force equal sizes, so competitors of a
    # maximum matching are maximum themselves
    counts = Counter(_covered_set(edges) for edges in enum.maximum_matchings)
    flags = [counts[_covered_set(edges)] == 1 for edges in enum.maximum_matchings]
    return any(flags), all(flags)


def oracle_some_ur(g: Graph, *, max_n: int = DEFAULT_MAX_N, max_m: int = DEFAULT_MAX_M) -> bool:
    return _maximum_ur_profile(g, max_n, max_m)[0]


def oracle_every_ur(g: Graph, *, max_n: int = DEFAULT_MAX_N, max_m: int = DEFAULT_MAX_M) -> bool:
    return _maximum_ur_profile(g, max_n, max_m)[1]


def enumerate_labeled_graphs(n: int) -> Iterator[Graph]:
    """All 2^C(n,2) labeled graphs on n vertices, in edge-mask order."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for mask in range(1 << len(pairs)):
        yield Graph.from_edges(n, (p for k, p in enumerate(pairs) if (mask >> k) & 1))
