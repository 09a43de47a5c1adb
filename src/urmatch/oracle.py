"""Exponential brute-force references used to validate the polynomial algorithms.

Everything here enumerates; nothing here shares code with the fast paths.
Size guards are hard errors unless the caller raises the limits explicitly;
a recursion that the interpreter's recursion limit would stop is refused
whatever the limits.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass
from typing import Iterator

from .graph_core import Graph, induced_subgraph
from .matching import Matching

DEFAULT_MAX_N = 16
DEFAULT_MAX_M = 24
# the frames a caller's stack may hold below a recursion of the oracle
_STACK_MARGIN = 200


class GuardLimitError(RuntimeError):
    """Input exceeds the brute-force size guard."""


def _check_guard(g: Graph, max_n: int, max_m: int) -> None:
    if g.n > max_n:
        raise GuardLimitError(f"{g.n} vertices exceeds the oracle guard of {max_n}")
    if g.m > max_m:
        raise GuardLimitError(f"{g.m} edges exceeds the oracle guard of {max_m}")


def _check_depth(depth: int, what: str) -> None:
    """Refuse a recursion ``depth`` calls deep, one call per ``what``, that
    the interpreter's recursion limit would stop; no raised guard lifts
    this."""
    limit = sys.getrecursionlimit()
    if depth + _STACK_MARGIN > limit:
        raise GuardLimitError(f"{what} need a recursion {depth} calls deep, "
                              f"past the interpreter's recursion limit of {limit}")


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
    _check_depth(g.m + 1, f"{g.m} edges")
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
    _check_depth(g.n // 2 + 1, f"{g.n} vertices")
    return _completions(g.adj, 0, (1 << g.n) - 1)


def oracle_is_ur(g: Graph, m: Matching, *, max_n: int = DEFAULT_MAX_N, max_m: int = DEFAULT_MAX_M) -> bool:
    """True iff m is the only perfect matching of the subgraph induced by its vertices."""
    for e in m.edges:
        if not g.has_edge(*e):
            raise ValueError(f"edge {e} not in graph")
    sub, _ = induced_subgraph(g, m.covered)
    return count_perfect_matchings(sub, max_n=max_n, max_m=max_m) == 1


def _count_largest(edges, i: int, covered: int, size: int, best: list) -> None:
    """Count in ``best``, ``[size, Counter]``, the covered vertex sets (as
    bitmasks) of the largest matchings met so far among those that add
    edges from ``edges[i:]`` to a matching of ``size`` edges covering the
    bitmask ``covered``: with edge i if its ends are free, then without it;
    a branch that cannot reach ``best[0]`` edges is cut."""
    if size + len(edges) - i < best[0]:
        return
    if i == len(edges):
        if size > best[0]:
            best[0], best[1] = size, Counter()
        best[1][covered] += 1
        return
    u, v = edges[i]
    if not (covered >> u) & 1 and not (covered >> v) & 1:
        _count_largest(edges, i + 1, covered | (1 << u) | (1 << v), size + 1, best)
    _count_largest(edges, i + 1, covered, size, best)


# the last graph profiled and its profile: the self-test asks both
# properties of each graph in turn, and one enumeration answers both
_last_profile: list = [None, None]


def _maximum_ur_profile(g: Graph, max_n: int, max_m: int) -> tuple[bool, bool]:
    """Whether some and whether every maximum matching of g is uniquely
    restricted, from one include/exclude recursion over g's edges that
    keeps only the covered sets of the largest matchings, counted; the
    last graph's profile is kept for the next call on it."""
    _check_guard(g, max_n, max_m)
    if _last_profile[0] is g:
        return _last_profile[1]
    _check_depth(g.m + 1, f"{g.m} edges")
    best: list = [0, Counter()]
    _count_largest(g.sorted_edges(), 0, 0, 0, best)
    # two matchings witness each other's non-uniqueness iff they cover the same
    # vertex set; equal covered sets force equal sizes, so competitors of a
    # maximum matching are maximum themselves
    counts = best[1].values()
    _last_profile[:] = g, (1 in counts, max(counts) == 1)
    return _last_profile[1]


def oracle_some_ur(g: Graph, *, max_n: int = DEFAULT_MAX_N, max_m: int = DEFAULT_MAX_M) -> bool:
    return _maximum_ur_profile(g, max_n, max_m)[0]


def oracle_every_ur(g: Graph, *, max_n: int = DEFAULT_MAX_N, max_m: int = DEFAULT_MAX_M) -> bool:
    return _maximum_ur_profile(g, max_n, max_m)[1]


def enumerate_labeled_graphs(n: int) -> Iterator[Graph]:
    """All 2^C(n,2) labeled graphs on n vertices, in edge-mask order."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for mask in range(1 << len(pairs)):
        yield Graph.from_edges(n, (p for k, p in enumerate(pairs) if (mask >> k) & 1))
