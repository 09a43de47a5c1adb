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
involution raise.  Uniqueness of a given perfect matching M is one kernel,
``_m_alternating_cycle``, which returns an M-alternating cycle or None: a
depth-first search of the digraph with an arc u -> match[w] per edge uw
out of M finds most short cycles, and otherwise one search per matched edge
rt tested, from t in the graph without r on state shared by all of them,
decides, a failed search's tree leaving play but for its blossoms minus
their bases (the lemma in ``_cycle_or_none``).  All searches iterate vertices and
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


def _shrink(adj, match, label, parent, blossom, find, v, w, x, y):
    """Contract the blossom that the edge vw closes between two even
    vertices of different blossoms of one tree, and return the odd vertices
    it turns even; None if v and w lie in two trees.  The arrays and
    ``find`` are a search's (see ``_search``), x and y are the bases of v
    and w, and a root is a vertex with no mate.

    The nearest common base is found by stepping up from both sides in
    turn.  No base is merged before both walks end: a walk stops at the
    common base, so an early merge would end it inside a blossom.  The
    walks set the path pointers around the blossom, so that the walk from
    each odd vertex turned even runs through vw to the base.
    """
    seen = set()
    while True:
        if x != -1:
            if x in seen:
                break
            seen.add(x)
            x = -1 if match[x] == -1 else find(parent[match[x]])
        elif y == -1:
            return None
        x, y = y, x
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
    return odd


def _search(adj, match, roots, state=None, dead=()):
    """Grow Edmonds' alternating forest from the free vertices ``roots``.

    BFS: an unlabelled neighbor of an even vertex becomes odd and its mate
    even, and an edge between two even vertices of one tree closes a blossom
    whose odd vertices turn even (``_shrink``).  Blossom bases live in a union-find (each
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
                odd = _shrink(adj, match, label, parent, blossom, find, v, w, x, y)
                if odd is not None:
                    queue += odd
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


def _walk(match, parent, x, stop):
    """The path pointers' walk x, match[x], parent[match[x]], ... up to the
    even vertex ``stop`` on it, as a list; a walk that misses it within as
    many steps as there are vertices raises."""
    out = [x]
    for _ in match:
        if x == stop:
            return out
        m = match[x]
        x = parent[m]
        out += (m, x)
    raise InternalCheckError(f"the walk from {out[0]} misses {stop}")


def _m_alternating_cycle(adj, match, alive, live):
    """An M-alternating cycle of the subgraph of ``adj`` induced by the
    vertices marked in ``alive``, or None if it has none.  ``match`` (M)
    must be perfect on them, so None says that M is their only perfect
    matching: a second one differs from M on such cycles.  ``live`` lists
    the marked vertices, and no other is visited; ``alive`` and ``match``
    are left untouched.  A cycle is a vertex list whose first edge is in M
    and whose edges alternate, the closing one out of M; it is checked to
    be one, on vertices of ``live``, before it is returned.  Its arrays
    span the whole graph, so a caller with a ``live`` much smaller than
    the graph, several times over, relabels it first (``recognition._c_left``).

    See ``_cycle_or_none`` for the search and the lemma behind it.
    """
    cycle = _cycle_or_none(adj, match, alive, live)
    if cycle is not None:
        inside = set(live)
        k = len(cycle)
        if k < 4 or k % 2 or len(set(cycle)) != k or not all(alive[v] and v in inside for v in cycle) \
                or not all(match[cycle[i]] == cycle[i + 1] and cycle[(i + 2) % k] in adj[cycle[i + 1]]
                           for i in range(0, k, 2)):
            raise InternalCheckError(f"the kernel's cycle {cycle} does not alternate inside the live vertices")
    return cycle


# the longest path segment, in arcs, that a back arc of ``_arc_cycle`` may close
_SHORT = 6


def _arc_cycle(adj, match, label, live):
    """A short M-alternating cycle found by one depth-first search of the
    arc digraph, or None, which proves nothing.  The arc digraph has an
    arc u -> match[w] for each edge uw out of M between vertices in play
    (those that ``label`` marks unlabelled): a directed cycle is a closed
    alternating walk, and one that holds no vertex together with its mate
    is an M-alternating cycle.  The search never extends its path to a
    vertex whose mate is on it, so each back arc closes such a cycle; it
    returns the first that has at most ``2 * _SHORT`` vertices.  A short
    cycle leaves most of a D component outside it, which is what lets the
    D - h rejection rule (``recognition._unique_minus``) rule out many
    vertices at once; a long one is left to the Hungarian-tree search.
    The search enters each vertex once, follows each arc once, and gives
    up after as many arcs as there are live vertices: where it finds a
    cycle it mostly finds it early (on the benchmark's sparse random graphs
    after a median 17 % of the arcs), and the cap bounds what it costs on a
    graph that has none.  The cap, the vertices it leaves unexplored
    because of a mate on the path, and the long back arcs are what makes
    it miss cycles.  Measured with the benchmark (10 pairs of runs, one
    2-core host), it makes ``some_ur`` 5 % faster on the sparse random
    graphs, whose tests mostly find a cycle, and 3 % slower on the
    triangle trees, whose C tests all find none."""
    state = [0] * len(adj)  # 1 on the path, 2 left
    budget = len(live)
    for s in live:
        if state[s] or label[s] != _UNLABELLED:
            continue
        state[s] = 1
        stack = [(s, iter(adj[s]))]
        while stack:
            x, it = stack[-1]
            mx = match[x]
            for w in it:
                if w == mx or label[w] != _UNLABELLED:
                    continue
                budget -= 1
                if budget < 0:
                    return None
                y = match[w]
                if state[y] == 1:
                    path = [v for v, _ in stack[-_SHORT:]]
                    if y in path:
                        cycle = []
                        for v in path[path.index(y):]:
                            cycle += (match[v], v)
                        return cycle
                if not state[y] and state[w] != 1:
                    state[y] = 1
                    stack.append((y, iter(adj[y])))
                    break
            else:
                state[x] = 2
                stack.pop()
    return None


def _cycle_or_none(adj, match, alive, live):
    """The search behind ``_m_alternating_cycle``.  First one depth-first
    search of the arc digraph (``_arc_cycle``), which finds a short cycle
    in most graphs that have one, at less than the cost of one Edmonds
    search.  If it finds none, the answer comes from one Edmonds search per
    matched edge tested, on arrays shared by all of them, none of them over
    a vertex that an earlier one left, unless a blossom holds it.

    Each vertex r still in play, in the order of ``live``, is tested in
    turn: r leaves play, and a breadth-first alternating search with
    union-find blossoms, as in ``_search`` (path halving, ``_shrink``),
    grows the tree T of its mate t.  The edge rt lies on an M-alternating
    cycle iff r has a neighbor other than t that T labels even: a cycle
    through rt, minus r, is an alternating path from t that ends in the
    matched edge at such a neighbor u, and Edmonds' search labels even
    every vertex that such a path reaches.  The search stops at the first
    such u, and the cycle is the walk of the path pointers from u up to t,
    then r.  If there is none, T and t leave play too, except what the
    lemma puts back.

    Lemma: let T have the maximal blossoms B_0, which holds t, and B_1,
    ..., B_k, and the odd vertices O, whose mates are the bases b_1, ...,
    b_k of B_1, ..., B_k; let r have no even neighbor in T but t.  Then
    every perfect matching N of the vertices in play holds rt, joins each
    B_i (i >= 1) to O by exactly one edge, and matches B_0 - t inside
    itself.  Proof: a search ends when every neighbor in play of an even
    vertex is labelled, so no blossom vertex has a neighbor in play
    outside T, but for t's neighbor r, and no edge joins two blossoms (it
    would have closed a larger one): a blossom's neighbors outside it lie
    in O.  Each B_i is odd, so N matches one of its vertices at least
    outside it, into O; there are k blossoms B_i
    and k odd vertices, so it is exactly one each and O is used up.  B_0
    is odd too, and only r is left for it: N holds rt and matches B_0 - t
    inside.

    So an M-alternating cycle C, a component of M + N for such an N, that
    meets T or r lies in T - t, and crosses the boundary of each B_i
    either not at all or twice: in by the M-edge from the stem o_i (the
    mate of b_i) to b_i, out by an N-edge from some vertex of B_i to O.  C
    thus lies in one blossom minus its base (B_0 - t or B_i - b_i), or it
    follows a directed cycle of the contracted digraph on the blossoms with
    an arc B -> B_i for each edge out of M from B to o_i
    (``_contracted_cycle``).  Each directed cycle lifts back: enter B_i by
    the edge o_i b_i, walk up from the vertex that leaves B_i to b_i (the
    path pointers' walk stays in B_i) and take that walk in reverse.  So
    the kernel searches the contracted digraph, and then puts each blossom
    minus its base back in play, to be tested before the rest of
    ``live``, deepest vertex first; every other vertex of T leaves play,
    and the cycles that remain are those of the vertices still in play.

    Cost: the arc digraph search is linear.  Each Edmonds search, and the
    contracted digraph search after it, scans each edge at its tree a
    bounded number of times (the union-find aside), and a vertex that
    leaves play does not return.  A vertex is searched again
    only from inside a blossom minus its base, which is smaller than the
    blossom, so the work is linear in the edges per level of blossom
    nesting; that bound, not a linear one, is what this proof gives.  On
    the nested blossoms of the family N_k (``tests/strategies.py``), which
    made the Kotzig peel quadratic, the deepest vertex's tree climbs
    through the nesting and settles it at the contracted level: the kernel
    runs 60 to 170 lines of Python per vertex, walks and union-find steps
    included, at every size from 1006 to 16006 vertices.
    """
    n = len(adj)
    label = [_DEAD_ODD] * n
    parent = [-1] * n
    blossom = [0] * n
    trial = list(match)  # match with t free during t's search, for _shrink
    for v in live:
        if alive[v]:
            label[v] = _UNLABELLED
            blossom[v] = v
    for v in live:
        m = match[v]
        if label[v] == _UNLABELLED and (m == -1 or label[m] != _UNLABELLED or match[m] != v):
            raise InternalCheckError(f"the matching is not perfect on the live vertices at {v}")

    cycle = _arc_cycle(adj, match, label, live)
    if cycle is not None:
        return cycle

    def find(x):
        while blossom[x] != x:
            blossom[x] = blossom[blossom[x]]
            x = blossom[x]
        return x

    stack = [iter(live)]
    while stack:
        for r in stack[-1]:
            if label[r] == _UNLABELLED:
                break
        else:
            stack.pop()
            continue
        t = match[r]
        label[r] = _DEAD_ODD
        label[t] = _EVEN
        trial[t] = -1
        queue, odds = [t], []
        cross = False  # whether an edge out of M that is no tree edge joins an even and an odd vertex
        for v in queue:  # the loop also visits vertices appended while it runs
            mv = match[v]
            for w in adj[v]:
                lw = label[w]
                if w == r:
                    if v != t:
                        return _walk(match, parent, v, t) + [r]
                elif lw == _ODD:
                    cross = cross or w != mv
                elif lw == _UNLABELLED:
                    m = match[w]
                    label[w] = _ODD
                    parent[w] = v
                    odds.append(w)
                    label[m] = _EVEN
                    queue.append(m)
                elif lw == _EVEN:
                    x, y = find(v), find(w)
                    if x != y:
                        odd = _shrink(adj, trial, label, parent, blossom, find, v, w, x, y)
                        if odd is None:
                            raise InternalCheckError(f"the blossom walks from {v} and {w} miss {t}")
                        queue += odd
        trial[t] = r
        members = {}
        for v in queue:
            b = blossom[v]
            members.setdefault(b if blossom[b] == b else find(b), []).append(v)
        if cross:  # else the contracted digraph's arcs are the tree's, and it has no cycle
            cycle = _contracted_cycle(adj, match, parent, members, {o for o in odds if label[o] == _ODD})
            if cycle is not None:
                return cycle
        for v in odds:
            label[v] = _DEAD_ODD
        for b, vs in members.items():
            for v in vs:
                label[v] = _DEAD_ODD
            if len(vs) > 3:  # a triangle minus its base is one matched edge
                piece = [v for v in reversed(vs) if v != b]
                for v in piece:
                    label[v] = _UNLABELLED
                    parent[v] = -1
                    blossom[v] = v
                stack.append(iter(piece))
    return None


def _contracted_cycle(adj, match, parent, members, stems):
    """A directed cycle of a failed tree's contracted digraph (see
    ``_cycle_or_none``), lifted to an M-alternating cycle, or None.
    ``members`` maps each blossom's base to its vertices, and ``stems``
    holds the tree's odd vertices; B -> B' for each edge from a vertex of B
    to the stem of B' that is not in M.  One depth-first search: a back arc
    closes the cycle of the blossoms on the search path from its head."""
    def arcs(b):
        return ((v, w) for v in members[b] for w in adj[v] if w in stems and w != match[v])

    colour = dict.fromkeys(members, 0)
    for b0 in members:
        if colour[b0]:
            continue
        colour[b0] = 1
        path, entered, todo = [b0], [None], [arcs(b0)]
        while todo:
            for v, w in todo[-1]:
                c = match[w]
                if colour[c] == 1:
                    j = path.index(c)
                    # blossom path[i] is entered by the stem of entered[i]
                    # (by w for the first) and left at the vertex of entered[i + 1]
                    ins = [w] + [e[1] for e in entered[j + 1:]]
                    outs = [e[0] for e in entered[j + 1:]] + [v]
                    cycle = []
                    for o, x in zip(ins, outs):
                        cycle.append(o)
                        cycle += reversed(_walk(match, parent, x, match[o]))
                    return cycle
                if not colour[c]:
                    colour[c] = 1
                    path.append(c)
                    entered.append((v, w))
                    todo.append(arcs(c))
                    break
            else:
                colour[path.pop()] = 2
                entered.pop()
                todo.pop()
    return None


def unique_perfect_matching(g: Graph) -> Matching | None:
    """The unique perfect matching of g, or None if g has zero or several.

    One maximum matching, then one call of the alternating-cycle kernel
    ``_m_alternating_cycle`` on the vertices that the seed's forced pairs
    leave, which must find no cycle there.  Every perfect matching of g
    holds each forced pair (the lemma of ``recognition._c_left``, with C
    all of g), so deleting them keeps the count of perfect matchings; on a
    forest they cover g and the kernel does not run.  The empty graph has
    the empty one.
    """
    if g.n % 2:
        return None
    match, _, _, forced = _matcher(g)
    if -1 in match:
        return None
    if any(f != -1 and f != m for f, m in zip(forced, match)):
        raise InternalCheckError("a forced pair is not in the matching")
    live = [v for v, f in enumerate(forced) if f == -1]
    if live and _m_alternating_cycle(g.adj, match, [f == -1 for f in forced], live) is not None:
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
