"""The Kotzig peel, the test-side reference for the alternating-cycle kernel.

``matching._m_alternating_cycle`` replaced it in the library.  The peel
deletes the ends of every edge that all perfect matchings hold: those at a
vertex of degree 1 from a queue, and when the queue stalls, all matched
bridges at once (``_matched_bridges``), by Kotzig's theorem (1959) that a
graph with a unique perfect matching has a matched bridge.  It is
quadratic on nested bridges (``strategies.nested_bridges``), one bridge
search per round.  When it stalls short of empty, ``_alternating_cycle``
finds an alternating cycle in what is left, one search per edge tried, and
``_shortcut`` shortens it along its chords.  Tests hold the kernel's yes or
no to the peel and check the kernel's cycles with
``lemma_helpers.is_alternating_cycle``.
"""

from urmatch.matching import InternalCheckError, _search


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
