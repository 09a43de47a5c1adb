"""Gallai-Edmonds decomposition and the bipartite contraction it induces.

The classes come from the matcher alone: the Edmonds forest that its failed
searches leave behind labels D (the vertices v with nu(g - v) == nu(g))
dead-even, A dead-odd and C not at all, and the matching, the forest's
path pointers and the seed's forced pairs are kept.  The contracted graph
``gb`` keeps A on one side and one vertex per component of g[D] on the
other.  The decomposition is one component array: ``_classes`` numbers
the components of D and of C in it, and every view is read off it on
first read; no induced graph is built.
``gallai_edmonds`` adds the Tutte-Berge count on A, from the component
sizes, which checks that the matching is maximum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .graph_core import Graph, induced_subgraph
from .matching import (
    _DEAD_EVEN,
    _DEAD_ODD,
    _UNLABELLED,
    InternalCheckError,
    _matcher,
    _max_match_array,
    is_factor_critical,
    maximum_matching,
)
from .ur_core import _reach


@dataclass(frozen=True)
class GallaiEdmonds:
    """The three vertex classes, their components and the contracted graph.

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
    holds inside C (the lemma of ``matching._unforced_cycle``).  A
    decomposition built without them serves the verifier only; the
    deciders refuse it.  ``upms`` is the deciders' memo (see
    ``recognition``); ``replace`` starts it empty.

    Views, each read off ``comp`` on first read: ``counts``, the numbers of
    D and of C components; ``a_list``, the A-vertices
    ascending (gb vertex i < |A| is ``a_list[i]``); ``d_members`` and
    ``c_members``, the ascending vertex lists of the D and the C components
    in ``comp``'s numbering; ``attachments``, the neighbors of the i-th
    A-vertex inside D component ci, keyed ``(i, ci)``, one key per gb edge;
    ``gb``: vertex i < |A| is the A-vertex ``a_list[i]`` and vertex
    |A| + ci is D component ci.
    """

    comp: tuple[int, ...]
    adj: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)
    match: tuple[int, ...] | None = field(default=None, compare=False, repr=False)
    parent: tuple[int, ...] | None = field(default=None, compare=False, repr=False)
    forced: tuple[int, ...] | None = field(default=None, compare=False, repr=False)
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
    def attachments(self) -> dict[tuple[int, int], list[int]]:
        comp, adj = self.comp, self.adj
        out: dict[tuple[int, int], list[int]] = {}
        for i, a in enumerate(self.a_list):
            for w in adj[a]:
                if comp[w] >= 0:
                    out.setdefault((i, comp[w]), []).append(w)
        return out

    @cached_property
    def gb(self) -> Graph:
        k = len(self.a_list)
        rows: list[list[int]] = [[] for _ in range(k + self.counts[0])]
        for i, ci in self.attachments:  # i ascending
            rows[i].append(k + ci)
            rows[k + ci].append(i)
        for row in rows[:k]:
            row.sort()
        return Graph(len(rows), tuple(map(tuple, rows)))


# the class of each label the matcher leaves: C, D and A (see ``_classes``)
_CLASS = {_UNLABELLED: -3, _DEAD_EVEN: -2, _DEAD_ODD: -1}


def _classes(adj, comp) -> int:
    """Number the components of the class array ``comp`` in place, D -2, A
    -1 and C -3 on entry, into the component array of ``GallaiEdmonds``,
    and return how many of them are odd: one breadth-first search that
    stays inside the class of its start numbers each."""
    n_d = n_c = odd = 0
    for s in range(len(adj)):  # ascending, so each component is numbered by its lowest vertex
        cls = comp[s]
        if cls == -2:
            ci, n_d = n_d, n_d + 1
        elif cls == -3:
            ci, n_c = -4 - n_c, n_c + 1
        else:
            continue  # A, or visited
        comp[s] = ci
        queue = [s]
        for v in queue:  # the loop also visits vertices appended while it runs
            for w in adj[v]:
                if comp[w] == cls:
                    comp[w] = ci
                    queue.append(w)
        odd += len(queue) & 1
    return odd


def gallai_edmonds(g: Graph) -> GallaiEdmonds:
    """The decomposition of g with its matching, path pointers and forced
    pairs, its classes read off the matcher's labels; its views are built
    when first read (see ``GallaiEdmonds``)."""
    match, label, parent, forced = _matcher(g)
    comp = list(map(_CLASS.__getitem__, label))
    # Tutte-Berge on S = A: every matching leaves odd - |A| vertices free or
    # more, odd being the number of odd components of g - A
    if match.count(-1) != _classes(g.adj, comp) - label.count(_DEAD_ODD):
        raise InternalCheckError("the Tutte-Berge count on A fails: the matching is not maximum")
    return GallaiEdmonds(tuple(comp), g.adj, tuple(match), tuple(parent), tuple(forced))


def verify_gallai_edmonds(g: Graph, ge: GallaiEdmonds) -> bool:
    """Structure-theorem check of a claimed decomposition.

    Verifies that ``ge`` was built on g's adjacency and that its component
    array is the one that its D vertices induce, then the classical
    structure-theorem consequences: factor-critical components on the
    deficient side, perfectly matchable components on the untouched side,
    the deficiency identity 2 nu(g) = n - (#D components - |A|),
    nu(gb) = |A|, and positive surplus of gb seen from A: every nonempty S
    of A-vertices has more than |S| component neighbors.  Given
    nu(gb) = |A|, that holds iff every A-vertex reaches an unmatched
    component vertex in D(M) of a maximum matching M of gb (one reachability
    pass).  Without it a wrong D can pass every other test: ``{0}`` on the
    path 0-1.  The matchings come from the library's own matcher, whose
    seed's forced pairs a given ``forced`` must be: the C test skips them.
    """
    if ge.adj != g.adj or ge.comp is None or len(ge.comp) != g.n:
        return False
    # the classes that the claimed D induces: A is its outside neighborhood
    d_nbrs = {w for v, c in enumerate(ge.comp) if c >= 0 for w in g.adj[v]}
    comp = [-2 if c >= 0 else -1 if v in d_nbrs else -3 for v, c in enumerate(ge.comp)]
    _classes(g.adj, comp)
    if ge.comp != tuple(comp):
        return False

    for members in ge.d_members:
        sub, _ = induced_subgraph(g, members)
        if not is_factor_critical(sub):
            return False
    for members in ge.c_members:
        sub, _ = induced_subgraph(g, members)
        if 2 * len(maximum_matching(sub).edges) != sub.n:
            return False

    match, _, _, forced = _matcher(g)
    if ge.forced is not None and ge.forced != tuple(forced):
        return False
    nu = (g.n - match.count(-1)) // 2
    k = len(ge.a_list)
    if 2 * nu != g.n - (ge.counts[0] - k):
        return False
    gb = ge.gb
    mate = _max_match_array(gb)
    if gb.n - mate.count(-1) != 2 * k:
        return False
    # gb vertices below k are A's: each must reach a free component vertex
    return all(_reach(gb.adj, [v < k for v in range(gb.n)], mate, False)[:k])
