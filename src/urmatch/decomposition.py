"""Gallai-Edmonds decomposition and the bipartite contraction it induces.

The classes come from the matcher alone: the Edmonds forest that its failed
searches leave behind labels D (the vertices v with nu(g - v) == nu(g))
dead-even, A dead-odd and C not at all, and the matching, the forest's
path pointers and the seed's forced pairs are kept.  The contracted graph
gb, with A on one side and one vertex per component of g[D] on the other,
is kept as its edges, the attachments.  The decomposition is one component
array: the library's one component search, ``graph_core._classes``,
numbers the components of D and of C in it and hands over what it counted,
the component counts and the A-vertices, which come with the decomposition;
the member lists and the attachments are read off the array on first read.
No induced graph and no graph for gb is built.  ``gallai_edmonds`` adds the
Tutte-Berge count on A, from the same search, which checks that the
matching is maximum.  ``verify_gallai_edmonds``
checks a claim by its certificate, the matching and the path pointers, in
one linear pass, and runs no matcher.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .graph_core import Graph, _classes
from .matching import _DEAD_EVEN, _DEAD_ODD, _UNLABELLED, InternalCheckError, _greedy_seed, _matcher


@dataclass(frozen=True)
class GallaiEdmonds:
    """The three vertex classes, their components and gb's edges.

    Fields: ``comp`` names each vertex's class and component: D component
    ci is ci, C component ci is -4 - ci, and A is -1, the components
    numbered by their lowest vertex; it alone takes part in equality and
    hashing.  ``adj`` is g's adjacency.  ``match`` is the maximum matching
    of g the decomposition was found from, as a mate array (-1 for a free
    vertex), perfect on every C component and near-perfect on every D
    component; ``parent`` holds the path pointers of the matcher's Edmonds
    forest: the walk v, match[v], parent[match[v]], ... from a D vertex v
    stays inside v's D component up to the vertex that ``match`` leaves
    unmatched there; ``forced`` holds the seed's forced pairs as a mate
    array (``matching._greedy_seed``), which every perfect matching of g[C]
    holds inside C (the lemma of ``matching._unforced_cycle``).  ``upms``
    is the deciders' memo (see ``recognition``); ``replace`` starts it
    empty.

    Views, cached properties read off ``comp``: ``counts``, the numbers of
    D and of C components; ``a_list``, the A-vertices
    ascending (gb vertex i < |A| is ``a_list[i]``); ``d_members`` and
    ``c_members``, the ascending vertex lists of the D and the C components
    in ``comp``'s numbering; ``attachments``, gb's edges, one key
    ``(i, ci)`` per edge between gb vertex i, the A-vertex ``a_list[i]``,
    and gb vertex |A| + ci, D component ci: it maps to the A-vertex's one
    neighbor inside the component, or to -1 when it has several there.
    ``gallai_edmonds`` writes ``counts`` and ``a_list`` into the instance's
    cache, where a first read would put them, from its component search;
    the other three views, and every view of a decomposition built by
    ``replace`` or by a caller (a claim), are built on first read, and a
    copy keeps its original's cache.  Either way a cached view equals the
    one its body reads off ``comp``; the verifier reads none of them.
    """

    comp: tuple[int, ...]
    adj: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)
    match: tuple[int, ...] = field(compare=False, repr=False)
    parent: tuple[int, ...] = field(compare=False, repr=False)
    forced: tuple[int, ...] = field(compare=False, repr=False)
    upms: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @cached_property
    def a_list(self) -> list[int]:
        return [v for v, c in enumerate(self.comp) if c == -1]

    @cached_property
    def counts(self) -> tuple[int, int]:
        # D component ci is ci and C component ci is -4 - ci: the highest
        # and the lowest entry count them, an entry on the wrong side none
        return max(max(self.comp, default=-1) + 1, 0), max(-3 - min(self.comp, default=-3), 0)

    @cached_property
    def d_members(self) -> list[list[int]]:
        lists: list[list[int]] = [[] for _ in range(self.counts[0])]
        for v, c in enumerate(self.comp):
            if c >= 0:
                lists[c].append(v)
        return lists

    @cached_property
    def c_members(self) -> list[list[int]]:
        lists: list[list[int]] = [[] for _ in range(self.counts[1])]
        for v, c in enumerate(self.comp):
            if c <= -4:
                lists[-4 - c].append(v)
        return lists

    @cached_property
    def attachments(self) -> dict[tuple[int, int], int]:
        comp, adj = self.comp, self.adj
        out: dict[tuple[int, int], int] = {}
        for i, a in enumerate(self.a_list):
            for w in adj[a]:
                ci = comp[w]
                if ci >= 0 and out.setdefault((i, ci), w) != w:
                    out[i, ci] = -1  # a second neighbor
        return out


# the class of each label the matcher leaves: C, D and A (see ``graph_core._classes``)
_CLASS = {_UNLABELLED: -3, _DEAD_EVEN: -2, _DEAD_ODD: -1}


def gallai_edmonds(g: Graph) -> GallaiEdmonds:
    """The decomposition of g with its matching, path pointers and forced
    pairs, its classes read off the matcher's labels; ``counts`` and
    ``a_list`` come from its one component search, the other views are
    built when first read (see ``GallaiEdmonds``)."""
    match, label, parent, forced = _matcher(g)
    comp = list(map(_CLASS.__getitem__, label))
    odd, n_d, n_c, a_list = _classes(g.adj, comp)
    # Tutte-Berge on S = A: every matching leaves odd - |A| vertices free or
    # more, odd being the number of odd components of g - A
    if match.count(-1) != odd - len(a_list):
        raise InternalCheckError("the Tutte-Berge count on A fails: the matching is not maximum")
    ge = GallaiEdmonds(tuple(comp), g.adj, tuple(match), tuple(parent), tuple(forced))
    # where cached_property keeps them: the values its bodies read off comp
    views = vars(ge)
    views["counts"], views["a_list"] = (n_d, n_c), a_list
    return ge


def verify_gallai_edmonds(g: Graph, ge: GallaiEdmonds) -> bool:
    """Check a claimed decomposition against its certificate, in time
    linear in g.

    The certificate is the claim's own matching M and path pointers,
    ``match`` and ``parent``; a claim without them, or without
    ``forced``, is rejected.  A D-set alone is checked by comparing its
    ``comp`` with ``gallai_edmonds(g).comp``, as the decomposition is
    unique.  The checks, in order:

    1. ``ge`` is built on g's adjacency, and its component array is the
       one its D vertices induce: A is D's outside neighborhood and C the
       rest, so no edge joins D to C or two D components.
    2. M is a matching of g: an involution whose pairs are edges of g.
    3. M leaves #D components - |A| vertices free.
    4. For each matched D vertex v, p = parent[match[v]] is a neighbor of
       match[v]; v -> p is a forest on D rooted at the free D vertices (a
       pointer out of D leaves v unreached from them); and no D vertex's
       mate is a proper ancestor or descendant of it there (preorder
       intervals).  The walk v, match[v], p, match[p], ... then is a path:
       its forest vertices are distinct, and their mates distinct and off
       the forest path.  It alternates, has even length and ends at a free
       vertex, so M flipped along it is a matching as large as M that
       misses v.
    5. ``forced`` is the seed's forced pairs, which the C test skips.

    Then M is maximum and D is the set of missable vertices.  The walk
    from a vertex of a D component K leaves K, if at all, along an edge of
    M into A, since its edges out of M end at forest vertices, in D; so K
    holds a vertex free or matched into A, and two if |K| is even.
    Counting them, M leaves at least #D components - |A| vertices free,
    and more if a D component is even, a vertex of A or C is free, or a
    vertex of A is not matched into D.  By 3 none of these holds: every D
    component is odd, and C is matched within itself, so its components
    are even.  So M leaves odd(g - A) - |A| vertices free, the Tutte-Berge
    bound: M is maximum and A a barrier, and by the barrier lemma (Lovasz
    & Plummer, *Matching Theory*) every maximum matching matches each
    vertex of A into an odd component of g - A and each even one within
    itself, missing no vertex of A or C.  By 4 some maximum matching
    misses each vertex of D.  So D is the Gallai-Edmonds D, and by 1 the
    rest of the claim is the one D induces.  The other statements of the
    structure theorem (factor-critical D components, perfectly matchable
    C components, the positive surplus of gb seen from A) follow and are
    not checked.  Without 4 a wrong D passes: ``{0}`` on the path 0-1.
    """
    n, adj = g.n, g.adj
    match, parent = ge.match, ge.parent
    if ge.adj != adj or None in (ge.comp, match, parent, ge.forced) or len(ge.comp) != n:
        return False
    # the classes that the claimed D induces: A is its outside neighborhood
    d_nbrs = {w for v, c in enumerate(ge.comp) if c >= 0 for w in adj[v]}
    comp = [-2 if c >= 0 else -1 if v in d_nbrs else -3 for v, c in enumerate(ge.comp)]
    _, n_d, _, a_list = _classes(adj, comp)
    if ge.comp != tuple(comp):
        return False

    if len(match) != n or len(parent) != n:
        return False
    for v, w in enumerate(match):
        if w != -1 and not (0 <= w < n and match[w] == v and w in adj[v]):
            return False

    # the counts of its own search: a claim's cached views are not trusted
    if match.count(-1) != n_d - len(a_list):
        return False

    # the forest v -> parent[match[v]] on D, as children lists
    roots: list[int] = []
    kids: list[list[int]] = [[] for _ in range(n)]
    for v, c in enumerate(comp):
        if c < 0:
            continue
        u = match[v]
        if u == -1:
            roots.append(v)
        elif parent[u] in adj[u]:
            kids[parent[u]].append(v)
        else:
            return False
    # a depth-first preorder from the roots, in which each subtree is one
    # interval: a vertex on a cycle of v -> p, or below a pointer out of D,
    # is never reached
    order, stack = [], roots
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(kids[v])
    if len(order) != sum(c >= 0 for c in comp):
        return False
    pos, span = [-1] * n, [1] * n
    for i, v in enumerate(order):
        pos[v] = i
    for v in reversed(order):
        if match[v] != -1:
            span[parent[match[v]]] += span[v]
    # a mate below its D vertex; a mate above it is found from the mate
    for v in order:
        w = match[v]
        if w != -1 and pos[v] < pos[w] < pos[v] + span[v]:
            return False

    return ge.forced == tuple(_greedy_seed(adj)[1])
