"""Maximum matchings (general and bipartite) and matching-theoretic predicates.

One alternating-forest search with union-find blossoms (Edmonds) serves the
general matcher and the deletion test of edges in some maximum matching;
bipartite graphs use Hopcroft-Karp (``_hopcroft_karp``), whose mate array
also gives the Koenig independent set (``_koenig_independent``).  The general
matcher (``_matcher``) seeds with the degree-1 rule of Karp & Sipser, then
searches from each vertex left free, lowest first, on arrays allocated once:
a search that augments resets only what it labelled, and the Hungarian tree
of one that fails stays out of every later search, its even vertices marked
dead-even and its odd ones dead-odd.  The trees left at the end form the
Edmonds forest of the final matching, so its labels are the Gallai-Edmonds
labelling (dead-even is D, dead-odd A, unlabelled C) and its path pointers
lead from every D vertex to the free vertex of its tree.  Uniqueness of a
given perfect matching is a Kotzig peel (``_peel``): a pendant queue plus,
when it stalls, one bridge search, with no matcher of its own; when it
stalls short of empty, ``_alternating_cycle`` finds an alternating cycle in
what is left, one search per edge tried.  All searches iterate vertices and
neighbors in ascending id order, so the "canonical" maximum matching
returned for a given graph is reproducible.
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
    """A maximal matching by the degree-1 rule of Karp & Sipser (1981).

    A free vertex with one free neighbor is matched to it, which some
    maximum matching does too; matching two vertices lowers the free degree
    of their free neighbors, and the rule repeats on the new pendants.  When
    none is left, the lowest free vertex with a free neighbor is matched to
    its lowest free neighbor and the rule resumes.  On a forest the rule
    alone matches maximally, so the greedy step never runs there.
    """
    n = len(adj)
    match = [-1] * n
    deg = [len(nbrs) for nbrs in adj]  # free neighbors of each free vertex
    pendant = [v for v in range(n - 1, -1, -1) if deg[v] == 1]
    v = 0
    while True:
        while pendant:
            x = pendant.pop()
            if match[x] != -1 or deg[x] != 1:
                continue  # matched meanwhile, or its last neighbor went
            for w in adj[x]:
                if match[w] == -1:
                    break
            match[x] = w
            match[w] = x
            for y in adj[w]:  # x has no other free neighbor
                if match[y] == -1:
                    deg[y] -= 1
                    if deg[y] == 1:
                        pendant.append(y)
        while v < n and (match[v] != -1 or not deg[v]):
            v += 1
        if v == n:
            return match
        for w in adj[v]:
            if match[w] == -1:
                break
        match[v] = w
        match[w] = v
        for y in adj[v] + adj[w]:
            if match[y] == -1:
                deg[y] -= 1
                if deg[y] == 1:
                    pendant.append(y)


_UNLABELLED, _EVEN, _ODD, _DEAD_EVEN, _DEAD_ODD = 0, 1, 2, 3, 4


def _search(adj, match, roots, state=None, dead=()):
    """Grow Edmonds' alternating forest from the free vertices ``roots``.

    BFS: an unlabelled neighbor of an even vertex becomes odd and its mate
    even, and an edge between two even vertices of one tree closes a blossom
    whose odd vertices turn even.  Blossom bases live in a union-find (each
    set's representative is its base, path halving), so a contraction
    touches only the blossom's own tree paths.  ``parent`` holds the path
    pointers: from an even vertex v, the walk v, match[v], parent[match[v]],
    ... alternates down to v's root.

    If the forest reaches a free vertex outside ``roots``, or an even-even
    edge joins two trees, the augmenting path is applied to ``match`` in
    place and None is returned.  Otherwise ``match`` is untouched and the
    labels and path pointers are returned as ``(label, parent)``.

    ``state`` is ``(label, parent, blossom)``, allocated once and shared by
    the one-root searches of a matcher (None: fresh arrays for this call).
    A search that augments resets only the vertices it labelled.  One that
    fails has grown a Hungarian tree, which no later augmenting path enters
    (Edmonds 1965), so its even vertices are labelled dead-even and its odd
    ones dead-odd, and every later search sharing the state skips them and
    keeps their path pointers.  With fresh arrays, the vertices in ``dead``
    start dead: the search runs in the graph without them, and the mate of
    a live vertex must be live.
    """
    if state is None:
        n = len(adj)
        label = [_UNLABELLED] * n
        for x in dead:
            label[x] = _DEAD_ODD
        parent = [-1] * n
        blossom = list(range(n))
    else:
        label, parent, blossom = state

    def find(x):
        while blossom[x] != x:
            blossom[x] = blossom[blossom[x]]
            x = blossom[x]
        return x

    queue = list(roots)
    odds = []
    for r in queue:
        label[r] = _EVEN
    for v in queue:  # the loop also visits vertices appended while it runs
        for w in adj[v]:
            lw = label[w]
            if lw == _UNLABELLED:
                m = match[w]
                if m != -1:
                    label[w] = _ODD
                    parent[w] = v
                    odds.append(w)
                    label[m] = _EVEN
                    queue.append(m)
                    continue
            elif lw != _EVEN:
                continue  # odd, or dead
            else:
                x, y = find(v), find(w)
                if x == y:
                    continue
                # nearest common base: step up from both sides in turn
                seen = set()
                while True:
                    if x != -1:
                        if x in seen:
                            break
                        seen.add(x)
                        x = -1 if match[x] == -1 else find(parent[match[x]])
                    elif y == -1:
                        break
                    x, y = y, x
                if x != -1:
                    # merge no base before both walks end: a walk stops at
                    # base x, so an early merge would end it inside a blossom
                    bases, odd = [], []
                    for a, child in ((v, w), (w, v)):
                        while find(a) != x:
                            m = match[a]
                            bases.append(find(a))
                            if label[m] == _ODD:
                                odd.append(m)
                            parent[a] = child
                            child = m
                            a = parent[m]
                    for b in bases:
                        blossom[b] = x
                    for m in odd:
                        blossom[m] = x
                        label[m] = _EVEN
                        queue.append(m)
                    continue
            # w is free outside the forest, or in another tree: augment
            for a in (v, w):
                m = match[a]
                while m != -1:
                    p = parent[m]
                    nxt = match[p]
                    match[m] = p
                    match[p] = m
                    m = nxt
            match[v] = w
            match[w] = v
            if state is not None:
                for x in queue + odds:
                    label[x] = _UNLABELLED
                    parent[x] = -1
                    blossom[x] = x
            return None
    if state is not None:
        for x in odds:
            label[x] = _DEAD_ODD
        for x in queue:  # all even, odd ones that a blossom turned too
            label[x] = _DEAD_EVEN
    return label, parent


def _matcher(g: Graph):
    """``(match, label, parent)``: the Karp-Sipser seed, then one search
    from each vertex it left free, lowest first, all sharing one state.

    The failed searches' Hungarian trees make up the Edmonds forest of the
    maximum matching ``match`` grown from all its free vertices, so by the
    Gallai-Edmonds theorem ``label`` is ``_DEAD_EVEN`` on D, ``_DEAD_ODD`` on
    A and ``_UNLABELLED`` on C.  ``parent`` holds the forest's path pointers
    (see ``_search``): each outermost blossom, a lone even vertex too, is a
    component of g[D], and the walk from any of its vertices stays inside
    it up to its base.
    """
    match = _greedy_seed(g.adj)
    label, parent = [_UNLABELLED] * g.n, [-1] * g.n
    state = (label, parent, list(range(g.n)))
    for v in range(g.n):
        if match[v] == -1:
            _search(g.adj, match, [v], state)
    return match, label, parent


def _max_match_array(g: Graph) -> list[int]:
    return _matcher(g)[0]


def maximum_matching(g: Graph) -> Matching:
    """A maximum matching of g.  Deterministic: the Karp-Sipser seed of
    ``_greedy_seed``, then one search from each vertex it left free, lowest
    first."""
    return _matching_from_array(g, _max_match_array(g))


def _hopcroft_karp(adj, a_list) -> list[int]:
    """The mate array (-1 for a free vertex) of a maximum matching of the
    bipartite graph ``adj`` whose side A is ``a_list``, ascending: phases of
    one BFS layering from the free A vertices and one DFS from each."""
    n = len(adj)
    mate = [-1] * n
    inf = n + 1
    dist = [inf] * n

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
                for b in adj[a]:
                    nxt = mate[b]
                    if nxt == -1:
                        found = dist[a] + 1
                    elif dist[nxt] == inf:
                        dist[nxt] = dist[a] + 1
                        queue.append(nxt)
        return found != inf

    def try_augment(root: int) -> bool:
        frames = [(root, iter(adj[root]))]
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
                    frames.append((nxt, iter(adj[nxt])))
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
    return mate


def maximum_matching_bipartite(g: Graph, sides) -> Matching:
    """Maximum matching of a bipartite graph via Hopcroft-Karp on ``sides``."""
    side_a, _ = validate_bipartition(g, sides)
    return _matching_from_array(g, _hopcroft_karp(g.adj, sorted(side_a)))


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
    adj = list(g.adj)  # g - u - v: no list names u or v
    for x in g.adj[u] + g.adj[v]:
        adj[x] = tuple(y for y in adj[x] if y != u and y != v)
    # seed has nu-2 edges; any augmenting path in g-u-v ends at a freed mate
    return _search(adj, match, [mu]) is None or _search(adj, match, [mv]) is None


def _missable_and_match(g: Graph) -> tuple[list[int], list[int], list[int]]:
    """``missable_vertices(g)`` as an ascending list, and the maximum
    matching and path pointers of the matcher that labelled it."""
    match, label, parent = _matcher(g)
    return [v for v in range(g.n) if label[v] == _DEAD_EVEN], match, parent


def missable_vertices(g: Graph) -> frozenset[int]:
    """All vertices missed by some maximum matching: the Gallai-Edmonds D set.

    The dead-even vertices of the matcher's final forest (``_matcher``).
    """
    return frozenset(_missable_and_match(g)[0])


def _matched_bridges(adj, match, alive):
    """The matched edges that are bridges of the subgraph of ``adj`` induced
    by the vertices marked in ``alive``, each given by one endpoint.

    One iterative lowlink DFS: the tree edge p-v is a bridge iff no back edge
    from v's subtree reaches p or above, i.e. low[v] > disc[p].
    """
    n = len(adj)
    disc = [0] * n  # discovery times from 1; 0 means unvisited
    low = [0] * n
    clock = 0
    out = []
    for root in range(n):
        if not alive[root] or disc[root]:
            continue
        clock += 1
        disc[root] = low[root] = clock
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            v, p, it = stack[-1]
            for w in it:
                if w == p or not alive[w]:
                    continue
                if disc[w]:
                    if disc[w] < low[v]:
                        low[v] = disc[w]
                else:
                    clock += 1
                    disc[w] = low[w] = clock
                    stack.append((w, v, iter(adj[w])))
                    break
            else:
                stack.pop()
                if p != -1:
                    if low[v] < low[p]:
                        low[p] = low[v]
                    elif low[v] > disc[p] and match[v] == p:
                        out.append(v)
    return out


def _peel(adj, match, alive):
    """The vertices, ascending, that the Kotzig peel of the subgraph of
    ``adj`` induced by the vertices marked in ``alive`` leaves when it
    stalls; ``match`` must be perfect on them.  ``alive`` is left untouched.

    Every perfect matching holds the edge at a degree-1 vertex, and every
    matched bridge (the two sides of a matched bridge are odd, so each
    perfect matching crosses the cut once, by the bridge).  Deleting the two
    ends of such an edge keeps the count of perfect matchings, so the peel
    deletes them: from a queue of degree-1 vertices first, and when the
    queue stalls, all matched bridges of the rest at once.  By Kotzig's
    theorem (1959) a graph whose perfect matching is unique has a bridge in
    it, so a non-empty rest with no matched bridge has a second one.  The
    peel acts on each connected component on its own: a component's
    perfect matching is unique iff none of its vertices is left.
    """
    alive = list(alive)
    deg = [len(nbrs) for nbrs in adj]
    for v, nbrs in enumerate(adj):
        if not alive[v]:
            for w in nbrs:
                deg[w] -= 1
    pendant = [v for v, d in enumerate(deg) if d == 1 and alive[v]]
    left = sum(alive)

    def delete(x):
        for a in (x, match[x]):
            alive[a] = False
        for a in (x, match[x]):
            for w in adj[a]:
                if alive[w]:
                    deg[w] -= 1
                    if deg[w] == 1:
                        pendant.append(w)

    while True:
        while pendant:
            x = pendant.pop()
            # an alive x still has degree 1, as its mate is alive too, and
            # that one neighbor is the mate
            if alive[x]:
                delete(x)
                left -= 2
        if not left:
            return []
        bridges = _matched_bridges(adj, match, alive)
        if not bridges:
            return [v for v, live in enumerate(alive) if live]
        for x in bridges:
            delete(x)
        left -= 2 * len(bridges)


def _alternating_cycle(adj, match, rest):
    """An even cycle inside ``rest`` that alternates under ``match``, as a
    vertex list whose edges alternate between in and out of ``match``,
    starting in, so that its closing edge is out.

    ``rest`` is what ``_peel`` left: ``match`` is perfect on it and no
    matched edge of it is a bridge, so by Kotzig's theorem it has a second
    perfect matching, and the symmetric difference of the two holds such a
    cycle.  A non-matching edge uv of ``rest`` lies on one iff, with u and
    v deleted and their mates freed, an augmenting path inside ``rest``
    joins match[u] to match[v]; the path plus v, u closes the cycle.  The
    edges are tried in ascending order, each with one search from match[u],
    and the first cycle found is cut short by ``_shortcut``.
    """
    n = len(adj)
    inside = [False] * n
    for x in rest:
        inside[x] = True
    outside = [x for x in range(n) if not inside[x]]
    for u in rest:
        mu = match[u]
        for v in adj[u]:
            if v <= u or v == mu or not inside[v]:
                continue
            mv = match[v]
            trial = list(match)
            trial[u] = trial[v] = trial[mu] = trial[mv] = -1
            if _search(adj, trial, [mu], dead=outside + [u, v]) is not None:
                continue
            # the only free vertex the search can reach is mv: walk the
            # path from mu, out by the new matching and on by the old
            cycle = [u, mu]
            x = mu
            while True:
                y = trial[x]
                cycle.append(y)
                if y == mv:
                    break
                x = match[y]
                cycle.append(x)
            cycle.append(v)
            return _shortcut(adj, cycle)
    raise InternalCheckError("the peel's remainder holds no alternating cycle")


def _shortcut(adj, cycle):
    """Shorten an alternating cycle, in the list form of
    ``_alternating_cycle``, along its chords until no chord closes a
    shorter one.

    A chord from c[i], i even, to c[j], j odd, closes the alternating cycle
    c[i], c[i + 1], ..., c[j] (indices mod the length): both ends keep
    their matched cycle edge.  Each pass takes the chord that closes the
    shortest such cycle.  A short cycle leaves more of the graph outside it.
    """
    while True:
        n = len(cycle)
        pos = {c: i for i, c in enumerate(cycle)}
        best, cut = n, None
        for i in range(0, n, 2):
            for y in adj[cycle[i]]:
                j = pos.get(y, i)
                if j % 2 and 2 < (j - i) % n + 1 < best:
                    best, cut = (j - i) % n + 1, (i, j)
        if cut is None:
            return cycle
        i, j = cut
        cycle = cycle[i:j + 1] if i < j else cycle[i:] + cycle[:j + 1]


def unique_perfect_matching(g: Graph) -> Matching | None:
    """The unique perfect matching of g, or None if g has zero or several.

    One maximum matching, then the Kotzig peel ``_peel``, which must leave
    nothing of it.
    The empty graph has the empty one.
    """
    if g.n % 2:
        return None
    match = _max_match_array(g)
    if -1 in match or _peel(g.adj, match, [True] * g.n):
        return None
    return _matching_from_array(g, match)


def is_factor_critical(g: Graph) -> bool:
    """True iff deleting any one vertex leaves a perfectly matchable graph."""
    if g.n == 0:
        return True
    if g.n % 2 == 0:
        return False
    match, label, _ = _matcher(g)
    if match.count(-1) != 1:
        return False
    return all(x == _DEAD_EVEN for x in label)


def _koenig_independent(adj, in_a, mate) -> frozenset[int]:
    """The maximum independent set of a bipartite graph, side A marked in
    ``in_a``, that complements the Koenig cover of its maximum matching
    ``mate``: the cover is the A-vertices that the alternating search from
    the free A-vertices misses and the B-vertices it reaches, so v is in the
    set iff ``reach[v] == in_a[v]``, isolated vertices of both sides too."""
    reach = [False] * len(adj)
    queue = [a for a, inside in enumerate(in_a) if inside and mate[a] == -1]
    for a in queue:
        reach[a] = True
    for a in queue:  # the loop also visits vertices appended while it runs
        for b in adj[a]:
            if not reach[b]:  # b is not a's mate, which reached a
                reach[b] = True
                a2 = mate[b]
                if a2 != -1:
                    reach[a2] = True
                    queue.append(a2)
    return frozenset(v for v, r in enumerate(reach) if r == in_a[v])


def max_independent_set_bipartite(g: Graph, sides) -> frozenset[int]:
    """A maximum independent set of a bipartite graph (complement of a Koenig cover)."""
    side_a, _ = validate_bipartition(g, sides)
    in_a = [v in side_a for v in range(g.n)]
    return _koenig_independent(g.adj, in_a, _hopcroft_karp(g.adj, sorted(side_a)))
