"""Maximum matchings (general and bipartite) and matching-theoretic predicates.

One alternating-forest search with union-find blossoms (Edmonds) serves the
one matcher and the deletion test of edges in some maximum matching; on a
bipartite graph the matcher's mate array also gives the Koenig independent
set (``max_independent_set_bipartite``).
The matcher (``_matcher``) seeds with the degree-1 rule of Karp & Sipser, then
searches from each vertex left free, lowest first, on arrays allocated once:
a search that augments resets only what it labelled, and the Hungarian tree
of one that fails stays out of every later search, its even vertices marked
dead-even and its odd ones dead-odd.  The trees left at the end form the
Edmonds forest of the final matching, so its labels are the Gallai-Edmonds
labelling (dead-even is D, dead-odd A, unlabelled C) and its path pointers
lead from every D vertex to the free vertex of its tree; an isolated free
vertex is labelled without a search.  The seed's matches before its first
greedy step, its forced pairs, are kept too: no search undoes them.  A
search's walks are bounded by the vertex count, so mates that are no
involution raise.  Uniqueness of a given perfect matching is a Kotzig peel
(``_peel``): a pendant queue plus, when it stalls, one low-link search for
matched bridges, with no matcher of its own; when it
stalls short of empty, ``_alternating_cycle`` finds an alternating cycle in
what is left, one search per edge tried.  All searches iterate vertices and
neighbors in ascending id order, so the "canonical" maximum matching
returned for a given graph is reproducible.
"""

from __future__ import annotations

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
        n, adj = g.n, g.adj
        norm: set[tuple[int, int]] = set()
        mate: dict[int, int] = {}
        for u, v in edges:
            e = (u, v) if u < v else (v, u)
            if e in norm:
                continue
            # scanning the row costs O(deg u) once per vertex: a vertex met
            # twice raises below
            if not (0 <= e[0] and e[1] < n and e[1] in adj[e[0]]):
                raise ValueError(f"edge {e} not in graph")
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


def _matching_from_array(g: Graph, arr) -> Matching:
    """The matching whose mate array is ``arr`` (-1 for a free vertex).
    Raises ValueError unless ``arr`` is an involution whose pairs are edges
    of g: each pair v < w must map back, and the pairs must cover every
    vertex that names a mate."""
    mate = {v: w for v, w in enumerate(arr) if w != -1}
    edges = [(v, w) for v, w in mate.items() if v < w]
    if 2 * len(edges) != len(mate) or not all(arr[w] == v and w in g.adj[v] for v, w in edges):
        raise ValueError("the mate array is not a matching of the graph")
    return Matching(frozenset(edges), frozenset(mate), mate)


def _greedy_seed(adj: tuple[tuple[int, ...], ...]) -> tuple[list[int], list[int]]:
    """A maximal matching by the degree-1 rule of Karp & Sipser (1981), and
    its forced pairs.

    A free vertex with one free neighbor is matched to it, which some
    maximum matching does too; matching two vertices lowers the free degree
    of their free neighbors, and the rule repeats on the new pendants.  When
    none is left, the lowest free vertex with a free neighbor is matched to
    its lowest free neighbor and the rule resumes.  On a forest the rule
    alone matches maximally, so the greedy step never runs there.

    Returns ``(match, forced)``, ``forced`` being ``match`` as it stood at
    the first greedy step (at the end if none runs): the forced pairs.
    """
    n = len(adj)
    match = [-1] * n
    forced = None
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
        if forced is None:
            forced = match[:]
        if v == n:
            return match, forced
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
                        for _ in adj:  # a longer walk repeats a base
                            if find(a) == x:
                                break
                            m = match[a]
                            bases.append(find(a))
                            if label[m] == _ODD:
                                odd.append(m)
                            parent[a] = child
                            child = m
                            a = parent[m]
                        else:
                            raise InternalCheckError(f"the blossom walk from {v} misses its base: no involution")
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
                for _ in adj:  # a longer walk repeats a vertex
                    if m == -1:
                        break
                    p = parent[m]
                    nxt = match[p]
                    match[m] = p
                    match[p] = m
                    m = nxt
                else:
                    raise InternalCheckError(f"the augmenting walk from {a} misses its root: no involution")
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
    """``(match, label, parent, forced)``: the Karp-Sipser seed, then one
    search from each vertex it left free, lowest first, all sharing one
    state; ``forced`` is the seed's forced pairs (``_greedy_seed``).

    The failed searches' Hungarian trees make up the Edmonds forest of the
    maximum matching ``match`` grown from all its free vertices, so by the
    Gallai-Edmonds theorem ``label`` is ``_DEAD_EVEN`` on D, ``_DEAD_ODD`` on
    A and ``_UNLABELLED`` on C.  ``parent`` holds the forest's path pointers
    (see ``_search``): each outermost blossom, a lone even vertex too, is a
    component of g[D], and the walk from any of its vertices stays inside
    it up to its base.
    """
    adj = g.adj
    match, forced = _greedy_seed(adj)
    label, parent = [_UNLABELLED] * g.n, [-1] * g.n
    state = (label, parent, list(range(g.n)))
    for v in range(g.n):
        if match[v] == -1:
            if adj[v]:
                _search(adj, match, [v], state)
            else:  # the search would label it alone
                label[v] = _DEAD_EVEN
    return match, label, parent, forced


def _max_match_array(g: Graph) -> list[int]:
    return _matcher(g)[0]


def maximum_matching(g: Graph) -> Matching:
    """A maximum matching of g.  Deterministic: the Karp-Sipser seed of
    ``_greedy_seed``, then one search from each vertex it left free, lowest
    first."""
    return _matching_from_array(g, _max_match_array(g))


def maximum_matching_bipartite(g: Graph, sides) -> Matching:
    """A maximum matching of a bipartite graph, once ``sides`` is checked to
    be a bipartition of it: the matcher's, as ``maximum_matching`` gives."""
    validate_bipartition(g, sides)
    return _matching_from_array(g, _max_match_array(g))


def edge_in_some_maximum_matching(g: Graph, e: tuple[int, int]) -> bool:
    """True iff nu(g - u - v) == nu(g) - 1 for e = uv."""
    u, v = edge_key(*e)
    if not g.has_edge(u, v):
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


def missable_vertices(g: Graph) -> frozenset[int]:
    """All vertices missed by some maximum matching: the Gallai-Edmonds D set.

    The dead-even vertices of the matcher's final forest (``_matcher``).
    """
    return frozenset([v for v, x in enumerate(_matcher(g)[1]) if x == _DEAD_EVEN])


def _matched_bridges(adj, match, alive, roots):
    """The matched edges that are bridges of the subgraph of ``adj`` induced
    by the vertices marked in ``alive``, each as its child end v in one
    low-link depth-first search (Tarjan 1972) from the marked ``roots``:
    tree edge pv is a bridge iff no back edge from v's subtree reaches p or
    above."""
    n = len(adj)
    disc = [0] * n  # discovery times from 1; 0 means unvisited
    low = [0] * n
    clock = 0
    out = []
    for root in roots:
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


def _peel(adj, match, alive, live=None):
    """The vertices, ascending, that the Kotzig peel of the subgraph of
    ``adj`` induced by the vertices marked in ``alive`` leaves when it
    stalls; ``match`` must be perfect on them.  ``alive`` is left untouched.
    ``live``, when given, lists the marked vertices ascending, and the peel
    visits no other; without it, the set-up counts every row and takes the
    dead rows off, which costs less when few vertices are dead.

    Every perfect matching holds the edge at a degree-1 vertex, and every
    matched bridge (its two sides are odd).  Deleting the ends of such an
    edge keeps the count of perfect matchings, so the peel deletes them:
    from a queue of degree-1 vertices first, and when the queue stalls, all
    matched bridges of the rest at once.  By Kotzig's theorem (1959) a graph
    whose perfect matching is unique has a bridge in it, so a non-empty
    rest with no matched bridge has a second one.  A component's perfect
    matching is unique iff none of its vertices is left.
    """
    alive = list(alive)
    if live is None:
        deg = [len(nbrs) for nbrs in adj]
        for v, nbrs in enumerate(adj):
            if not alive[v]:
                for w in nbrs:
                    deg[w] -= 1
        live = range(len(adj))
    else:
        deg = [0] * len(adj)
        for v in live:
            deg[v] = sum(map(alive.__getitem__, adj[v]))
    pendant = [v for v in live if deg[v] == 1 and alive[v]]
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
        bridges = _matched_bridges(adj, match, alive, live)
        if not bridges:
            return [v for v in live if alive[v]]
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

    One maximum matching, then the Kotzig peel ``_peel`` of the vertices
    that the seed's forced pairs leave, which must leave nothing of them.
    Every perfect matching of g holds each forced pair (the lemma of
    ``recognition._c_left``, with C all of g), so deleting them keeps the
    count of perfect matchings; on a forest they cover g and no peel runs.
    The empty graph has the empty one.
    """
    if g.n % 2:
        return None
    match, _, _, forced = _matcher(g)
    if -1 in match:
        return None
    if any(f != -1 and f != m for f, m in zip(forced, match)):
        raise InternalCheckError("a forced pair is not in the matching")
    live = [v for v, f in enumerate(forced) if f == -1]
    if live and _peel(g.adj, match, [f == -1 for f in forced], live):
        return None
    return _matching_from_array(g, match)


def is_factor_critical(g: Graph) -> bool:
    """True iff deleting any one vertex leaves a perfectly matchable graph."""
    if g.n == 0:
        return True
    if g.n % 2 == 0:
        return False
    match, label, _, _ = _matcher(g)
    if match.count(-1) != 1:
        return False
    return all(x == _DEAD_EVEN for x in label)


def max_independent_set_bipartite(g: Graph, sides) -> frozenset[int]:
    """A maximum independent set of a bipartite graph: the complement of
    the Koenig cover of the matcher's maximum matching, which any maximum
    matching gives.  The cover is the A-vertices that the alternating search
    from the free A-vertices misses and the B-vertices it reaches, so v is
    in the set iff ``reach[v]`` equals whether v is on side A, isolated
    vertices of both sides too."""
    side_a, _ = validate_bipartition(g, sides)
    mate = _max_match_array(g)
    reach = [False] * g.n
    queue = [a for a in side_a if mate[a] == -1]
    for a in queue:
        reach[a] = True
    for a in queue:  # the loop also visits vertices appended while it runs
        for b in g.adj[a]:
            if not reach[b]:  # b is not a's mate, which reached a
                reach[b] = True
                a2 = mate[b]
                if a2 != -1:
                    reach[a2] = True
                    queue.append(a2)
    return frozenset(v for v, r in enumerate(reach) if r == (v in side_a))
