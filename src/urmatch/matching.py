"""Maximum matchings (general and bipartite) and matching-theoretic predicates.

The general-graph routine is an array-based blossom-contraction search (BFS
alternating tree, bases contracted on odd cycles).  The Gallai-Edmonds classes
come from one Edmonds labelling of a maximum matching.  All searches iterate
vertices and neighbors in ascending id order, so the "canonical" maximum
matching returned for a given graph is reproducible.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable

from .graph_core import Graph, edge_key, validate_bipartition


class InternalCheckError(RuntimeError):
    """An internal invariant failed, or two equivalent internal routes disagreed."""


@dataclass(frozen=True)
class Matching:
    """A set of pairwise disjoint edges of some graph.

    ``covered`` is the set of matched vertices, ``mate`` the involution that
    maps each covered vertex to its partner.  Construct via :meth:`from_edges`,
    which validates against the host graph.
    """

    edges: frozenset[tuple[int, int]]
    covered: frozenset[int]
    mate: dict[int, int] = field(compare=False, repr=False)

    @classmethod
    def from_edges(cls, g: Graph, edges: Iterable[tuple[int, int]]) -> "Matching":
        norm: set[tuple[int, int]] = set()
        mate: dict[int, int] = {}
        for u, v in edges:
            e = edge_key(u, v)
            if e not in g.edges:
                raise ValueError(f"edge {e} not in graph")
            if e in norm:
                continue
            if e[0] in mate or e[1] in mate:
                raise ValueError(f"edges share a vertex at {e}")
            norm.add(e)
            mate[e[0]] = e[1]
            mate[e[1]] = e[0]
        return cls(frozenset(norm), frozenset(mate), mate)

    @property
    def size(self) -> int:
        return len(self.edges)

    def __len__(self) -> int:
        return len(self.edges)


def _match_array(g: Graph, m: Matching) -> list[int]:
    arr = [-1] * g.n
    for u, v in m.edges:
        arr[u] = v
        arr[v] = u
    return arr


def _matching_from_array(g: Graph, arr: list[int]) -> Matching:
    return Matching.from_edges(g, ((v, arr[v]) for v in range(g.n) if arr[v] > v))


def _greedy_seed(adj: tuple[tuple[int, ...], ...]) -> list[int]:
    n = len(adj)
    match = [-1] * n
    for v in range(n):
        if match[v] == -1:
            for w in adj[v]:
                if match[w] == -1:
                    match[v] = w
                    match[w] = v
                    break
    return match


def _blossom_base(match, parent, base, u, w, n):
    onpath = [False] * n
    a = base[u]
    while True:
        onpath[a] = True
        if match[a] == -1:
            break
        a = base[parent[match[a]]]
    b = base[w]
    while not onpath[b]:
        b = base[parent[match[b]]]
    return b


def _mark_blossom(match, parent, base, flag, v, b, child):
    while base[v] != b:
        flag[base[v]] = True
        flag[base[match[v]]] = True
        parent[v] = child
        child = match[v]
        v = parent[match[v]]


def _augment_from(adj, match, root, avoid=(), banned=None):
    """Search for an augmenting path from the free vertex ``root``.

    Blossom-contraction BFS.  Vertices in ``avoid`` are treated as deleted,
    normalized pairs in ``banned`` as absent edges.  On success the path is
    applied to ``match`` in place and True is returned.
    """
    n = len(adj)
    parent = [-1] * n
    base = list(range(n))
    seen = [False] * n
    seen[root] = True
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for to in adj[v]:
            if to in avoid:
                continue
            if banned is not None and edge_key(v, to) in banned:
                continue
            if base[v] == base[to] or match[v] == to:
                continue
            if to == root or (match[to] != -1 and parent[match[to]] != -1):
                # edge closes an odd cycle: contract the blossom to its base
                b = _blossom_base(match, parent, base, v, to, n)
                flag = [False] * n
                _mark_blossom(match, parent, base, flag, v, b, to)
                _mark_blossom(match, parent, base, flag, to, b, v)
                for i in range(n):
                    if flag[base[i]]:
                        base[i] = b
                        if not seen[i]:
                            seen[i] = True
                            queue.append(i)
            elif parent[to] == -1:
                parent[to] = v
                if match[to] == -1:
                    u = to
                    while u != -1:
                        pv = parent[u]
                        nxt = match[pv]
                        match[u] = pv
                        match[pv] = u
                        u = nxt
                    return True
                w = match[to]
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
    return False


def _max_match_array(g: Graph) -> list[int]:
    match = _greedy_seed(g.adj)
    for v in range(g.n):
        if match[v] == -1:
            _augment_from(g.adj, match, v)
    return match


def maximum_matching(g: Graph) -> Matching:
    """A maximum matching of g (deterministic: lowest free vertex first)."""
    return _matching_from_array(g, _max_match_array(g))


def maximum_matching_bipartite(g: Graph, sides) -> Matching:
    """Maximum matching of a bipartite graph via Hopcroft-Karp on ``sides``."""
    side_a, _ = validate_bipartition(g, sides)
    a_list = sorted(side_a)
    mate = [-1] * g.n
    inf = g.n + 1
    dist = [inf] * g.n

    def bfs() -> bool:
        queue = deque()
        for a in a_list:
            if mate[a] == -1:
                dist[a] = 0
                queue.append(a)
            else:
                dist[a] = inf
        found = inf
        while queue:
            a = queue.popleft()
            if dist[a] < found:
                for b in g.adj[a]:
                    nxt = mate[b]
                    if nxt == -1:
                        found = dist[a] + 1
                    elif dist[nxt] == inf:
                        dist[nxt] = dist[a] + 1
                        queue.append(nxt)
        return found != inf

    def try_augment(root: int) -> bool:
        frames = [(root, iter(g.adj[root]))]
        pending: list[tuple[int, int]] = []
        while frames:
            a, it = frames[-1]
            moved = False
            for b in it:
                nxt = mate[b]
                if nxt == -1:
                    mate[a] = b
                    mate[b] = a
                    for pa, pb in pending:
                        mate[pa] = pb
                        mate[pb] = pa
                    return True
                if dist[nxt] == dist[a] + 1:
                    pending.append((a, b))
                    frames.append((nxt, iter(g.adj[nxt])))
                    moved = True
                    break
            if moved:
                continue
            dist[a] = inf
            frames.pop()
            if frames:
                pending.pop()
        return False

    while bfs():
        for a in a_list:
            if mate[a] == -1:
                try_augment(a)
    return _matching_from_array(g, mate)


def edge_in_some_maximum_matching(g: Graph, e: tuple[int, int]) -> bool:
    """True iff nu(g - u - v) == nu(g) - 1 for e = uv."""
    u, v = edge_key(*e)
    if (u, v) not in g.edges:
        raise ValueError(f"edge {(u, v)} not in graph")
    match = _max_match_array(g)
    if match[u] == v:
        return True
    if match[u] == -1 or match[v] == -1:
        # swapping the matched partner of the covered endpoint for uv keeps the size
        return True
    mu, mv = match[u], match[v]
    match[u] = match[v] = match[mu] = match[mv] = -1
    # seed has nu-2 edges; any augmenting path in g-u-v ends at a freed mate
    if _augment_from(g.adj, match, mu, avoid=(u, v)):
        return True
    return _augment_from(g.adj, match, mv, avoid=(u, v))


_UNLABELLED, _EVEN, _ODD = 0, 1, 2


def _edmonds_labels(adj, match):
    """Even/odd labels of the alternating forest grown from every free vertex.

    ``match`` must be a maximum matching.  All free vertices start as even
    roots at once; an unlabelled neighbor of an even vertex becomes odd and
    its mate even, and an edge between two even vertices of one tree closes a
    blossom whose odd vertices turn even.  Blossom bases live in a union-find
    (each set's representative is its base, path halving), so a contraction
    touches only the blossom's own path.  By the Gallai-Edmonds theorem the
    even vertices are D, the odd ones A and the unlabelled ones C.  An
    even-even edge between two trees would be an augmenting path and raises.
    """
    n = len(adj)
    label = [_UNLABELLED] * n
    parent = [-1] * n  # odd vertex -> the even vertex that labelled it
    blossom = list(range(n))
    mark = [0] * n
    stamp = 0

    def find(x):
        while blossom[x] != x:
            blossom[x] = blossom[blossom[x]]
            x = blossom[x]
        return x

    def absorb(x, b):
        # x is the base of an outer blossom below b; fold the tree path up to b
        while x != b:
            m = match[x]
            blossom[x] = blossom[m] = b
            label[m] = _EVEN
            stack.append(m)
            x = find(parent[m])

    stack = [v for v in range(n) if match[v] == -1]
    for v in stack:
        label[v] = _EVEN
    while stack:
        v = stack.pop()
        for w in adj[v]:
            lw = label[w]
            if lw == _UNLABELLED:
                m = match[w]
                label[w] = _ODD
                parent[w] = v
                label[m] = _EVEN
                stack.append(m)
            elif lw == _EVEN:
                x, y = find(v), find(w)
                if x == y:
                    continue
                # nearest common base: step up from both sides in turn
                stamp += 1
                a, b = x, y
                while True:
                    if a != -1:
                        if mark[a] == stamp:
                            break
                        mark[a] = stamp
                        a = -1 if match[a] == -1 else find(parent[match[a]])
                    elif b == -1:
                        raise InternalCheckError(
                            f"edge ({v}, {w}) joins two alternating trees: the matching is not maximum"
                        )
                    a, b = b, a
                absorb(x, a)
                absorb(y, a)
    return label


def missable_vertices(g: Graph) -> frozenset[int]:
    """All vertices missed by some maximum matching: the Gallai-Edmonds D set.

    One maximum matching and one Edmonds labelling: D is the set of even
    vertices of the alternating forest grown from all free vertices.
    """
    label = _edmonds_labels(g.adj, _max_match_array(g))
    return frozenset(v for v in range(g.n) if label[v] == _EVEN)


def unique_perfect_matching(g: Graph) -> Matching | None:
    """The unique perfect matching of g, or None if g has zero or several.

    Uses the deletion device: a perfect matching M is unique iff g - e has no
    perfect matching for every e in M.  The empty graph has the empty one.
    """
    if g.n % 2:
        return None
    match = _max_match_array(g)
    if any(x == -1 for x in match):
        return None
    for u, v in sorted(e for e in g.edges if match[e[0]] == e[1]):
        work = match[:]
        work[u] = work[v] = -1
        if _augment_from(g.adj, work, u, banned={(u, v)}):
            return None
    return _matching_from_array(g, match)


def has_unique_perfect_matching(g: Graph) -> bool:
    return unique_perfect_matching(g) is not None


def is_factor_critical(g: Graph) -> bool:
    """True iff deleting any one vertex leaves a perfectly matchable graph."""
    if g.n == 0:
        return True
    if g.n % 2 == 0:
        return False
    match = _max_match_array(g)
    nu = sum(1 for x in match if x != -1) // 2
    if 2 * nu != g.n - 1:
        return False
    return all(x == _EVEN for x in _edmonds_labels(g.adj, match))


def max_independent_set_bipartite(g: Graph, sides) -> frozenset[int]:
    """A maximum independent set of a bipartite graph (complement of a Koenig cover)."""
    side_a, side_b = validate_bipartition(g, sides)
    m = maximum_matching_bipartite(g, sides)
    # alternating reachability from the unmatched left vertices
    reach_a = set(sorted(side_a - m.covered))
    reach_b: set[int] = set()
    queue = deque(sorted(reach_a))
    while queue:
        a = queue.popleft()
        for b in g.adj[a]:
            if b not in reach_b and m.mate.get(a) != b:
                reach_b.add(b)
                a2 = m.mate.get(b)
                if a2 is not None and a2 not in reach_a:
                    reach_a.add(a2)
                    queue.append(a2)
    # minimum vertex cover = (A \ reach) | (B & reach); independent set = complement
    return frozenset((side_a & reach_a) | (side_b - reach_b))
