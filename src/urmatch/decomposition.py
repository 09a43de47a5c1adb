"""Gallai-Edmonds decomposition and the bipartite contraction it induces.

``d_set`` (the vertices v with nu(g - v) == nu(g)) comes from the matcher
alone: it is the set of dead-even vertices of the Edmonds forest that the
matcher's failed searches leave behind, and the matching and the forest's
path pointers are kept.  The contracted graph ``gb`` keeps the neighbors of
``d_set`` on one side and one vertex per component of the induced subgraph
on ``d_set`` on the other; edges inside ``a_set`` and all of ``c_set`` are
dropped from it.  The components of g[c_set] are kept beside it for the
deciders and the verifier.  Everything after the matcher is linear and comes
in two halves.  ``_classes`` numbers the classes: one pass over D's
adjacency finds A, and one breadth-first search over g's own adjacency that
stays inside the class of its start splits D and C into one component
array.  ``_class_views`` builds the sets and the component tuples, and
``_gb_views`` gb, whose adjacency is read off A's; no induced graph is
built.  ``gallai_edmonds`` runs only the first half and the Tutte-Berge
count on A, which checks that the matching is maximum; the views are built
when first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

from .graph_core import Graph, induced_subgraph
from .matching import (
    InternalCheckError,
    _missable_and_match,
    is_factor_critical,
    maximum_matching,
    maximum_matching_bipartite,
)
from .ur_core import build_matching_digraph

# the public views in field order, as ``_class_views`` and ``_gb_views``
# build them; ``gallai_edmonds`` leaves them to ``GallaiEdmonds.__getattr__``
_CLASS_VIEWS = ("d_set", "a_set", "c_set", "d_components", "c_components")
_GB_VIEWS = ("gb", "gb_sides", "contraction_map")
_VIEWS = _CLASS_VIEWS + _GB_VIEWS


@dataclass(frozen=True)
class GallaiEdmonds:
    """The three vertex classes plus the contracted bipartite graph.

    ``d_components`` and ``c_components`` are the connected components of
    g[d_set] and g[c_set], each ordered by its lowest original vertex id;
    the deciders test every C component for a unique perfect matching.
    ``contraction_map[i]`` explains gb vertex i: ``("a", v)`` for an original
    vertex v of ``a_set``, ``("d", k)`` for index k into ``d_components``.
    Component-side ids are assigned after all a-side ids, in the order of
    ``d_components``.

    These eight fields are views.  ``gallai_edmonds`` builds none of them: it
    keeps a reference to g's adjacency, and ``__getattr__`` builds them on
    first read, in two groups: the class sets and component tuples
    (``_class_views``), and gb with its sides and ``contraction_map``
    (``_gb_views``).  Equality, hashing, repr, ``dataclasses.replace``,
    copying and pickling read the views and so build them.  A decomposition
    constructed with its views, by hand or through ``replace``, holds them
    all from the start.

    ``comp`` names each vertex's class and component: D component ci is
    ci, C component ci is -4 - ci, and A is -1.  ``match`` is the maximum
    matching of g that the decomposition was found from, as a mate array
    (-1 for a free vertex).  By the Gallai-Edmonds theorem it is perfect on
    every C component and near-perfect on every D component, so the
    deciders' uniqueness tests start from it and need no matcher of their
    own.  ``parent`` holds the path pointers of the matcher's Edmonds
    forest: the walk v, match[v], parent[match[v]], ... from a D vertex v
    stays inside v's D component up to the vertex that ``match`` leaves
    unmatched there, so flipping it frees v.  A decomposition built by hand
    may leave these three None for the verifier, which reads none of them;
    the deciders refuse it.

    Beside ``comp`` the deciders read three arrays that are not fields:
    ``a_list``, the A-vertices ascending (gb vertex i < |A| is
    ``a_list[i]``), and ``d_members`` and ``c_members``, the vertex lists of
    the D and the C components in ``comp``'s numbering.  ``gallai_edmonds``
    keeps them from its component search; a decomposition constructed with
    ``comp`` reads them off it, and one without ``comp`` has none.

    ``upms`` is the deciders' private memo, so that deciders sharing one
    decomposition test each set once.  ``("c", ci)`` maps to the edges, in
    g's ids, of the unique perfect matching of C component ``ci``, or to
    None; ``(ci, h)`` to whether D component ``ci`` minus its vertex h has a
    unique perfect matching; ``("d", ci)`` holds what those tests share: D
    component ``ci`` in local ids, which also gives its members ascending,
    its near-perfect matching and the path pointers of the alternating tree
    grown from its one free vertex.  The memo holds entries no caller asked
    for: the first C component test answers all of them, and a "no" for one
    h of a D component writes a "no" for every h' that the same alternating
    cycle rules out.  ``"attachments"`` holds the neighbors of each A-vertex
    in each D component it touches, which the allowed edges, witness
    assembly and the every route all read.

    None of the last four fields takes part in equality, hashing or repr.
    ``dataclasses.replace`` keeps ``comp``, ``match`` and ``parent`` and
    starts ``upms`` empty.  A decomposition, and so its memo, belongs to the
    one g it was built from.
    """

    d_set: frozenset[int]
    a_set: frozenset[int]
    c_set: frozenset[int]
    d_components: tuple[frozenset[int], ...]
    c_components: tuple[frozenset[int], ...]
    gb: Graph
    gb_sides: tuple[frozenset[int], frozenset[int]]
    contraction_map: tuple[tuple[str, int], ...]
    comp: tuple[int, ...] | None = field(default=None, compare=False, repr=False)
    match: tuple[int, ...] | None = field(default=None, compare=False, repr=False)
    parent: tuple[int, ...] | None = field(default=None, compare=False, repr=False)
    upms: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.comp is not None:
            self.__dict__.update(zip(("a_list", "d_members", "c_members"), _members(self.comp)))

    def __getattr__(self, name: str):
        # reached only for a missing attribute: a view left out by
        # gallai_edmonds, which kept g's adjacency in ``_adj`` to build it
        state = self.__dict__
        if name not in _VIEWS or "_adj" not in state:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        if name in _GB_VIEWS:
            views = _GB_VIEWS, _gb_views(state["_adj"], self.a_list, self.comp, len(self.d_members))
        else:
            views = _CLASS_VIEWS, _class_views(self.a_list, self.comp, self.d_members, self.c_members)
        state.update(zip(*views))
        return state[name]


def _members(comp) -> tuple[list[int], list[list[int]], list[list[int]]]:
    """``(a_list, d_members, c_members)`` read off a component array, each
    list ascending."""
    a_list: list[int] = []
    d_members: list[list[int]] = [[] for _ in range(max(comp, default=-1) + 1)]
    c_members: list[list[int]] = [[] for _ in range(max(-3 - min(comp, default=0), 0))]
    for v, c in enumerate(comp):
        if c >= 0:
            d_members[c].append(v)
        elif c == -1:
            a_list.append(v)
        else:
            c_members[-4 - c].append(v)
    return a_list, d_members, c_members


def _classes(adj, d_verts):
    """The first half of ``_contract``: ``(a_list, comp, d_members,
    c_members)`` for the D vertices ``d_verts``.  A is the outside
    neighborhood of D, ascending in ``a_list``, and C the rest.  One pass
    over D's adjacency finds A; one breadth-first search that stays inside
    the class of its start numbers the D and the C components in the shared
    array ``comp`` (see ``GallaiEdmonds``) and lists their members in search
    order, each list ordered by its lowest vertex."""
    n = len(adj)
    # unvisited D is -2, unvisited C -3, A -1; then D component ci is ci
    # and C component ci is -4 - ci
    comp = [-3] * n
    for v in d_verts:
        comp[v] = -2
    a_list = []
    for v in d_verts:
        for w in adj[v]:
            if comp[w] == -3:
                comp[w] = -1
                a_list.append(w)
    a_list.sort()
    d_members: list[list[int]] = []
    c_members: list[list[int]] = []
    for s in range(n):  # ascending, so each list is ordered by lowest vertex
        cls = comp[s]
        if cls == -2:
            lists, ci = d_members, len(d_members)
        elif cls == -3:
            lists, ci = c_members, -4 - len(c_members)
        else:
            continue  # A, or visited
        comp[s] = ci
        members = [s]
        for v in members:  # the loop also visits vertices appended while it runs
            for w in adj[v]:
                if comp[w] == cls:
                    comp[w] = ci
                    members.append(w)
        lists.append(members)
    return a_list, comp, d_members, c_members


def _class_views(a_list, comp, d_members, c_members):
    """``(d_set, a_set, c_set, d_components, c_components)`` from the output
    of ``_classes``; the class sets are filled in ascending order."""
    return (frozenset([v for v, c in enumerate(comp) if c >= 0]), frozenset(a_list),
            frozenset([v for v, c in enumerate(comp) if c <= -4]),
            tuple(map(frozenset, d_members)), tuple(map(frozenset, c_members)))


def _gb_views(adj, a_list, comp, n_d):
    """``(gb, gb_sides, contraction_map)`` from the output of ``_classes``,
    ``n_d`` being the number of D components.  gb joins each A-vertex to
    every D component it touches; one pass over A's adjacency reads off
    gb's."""
    k = len(a_list)
    gb_adj = [
        tuple([k + ci for ci in sorted(set(map(comp.__getitem__, adj[a]))) if ci >= 0])
        for a in a_list
    ]
    comp_side: list[list[int]] = [[] for _ in range(n_d)]
    for i, row in enumerate(gb_adj):
        for j in row:
            comp_side[j - k].append(i)  # ascending, as i is
    gb_edges = frozenset([(i, j) for i, row in enumerate(gb_adj) for j in row])
    gb_adj.extend(map(tuple, comp_side))
    gb = Graph(k + n_d, gb_edges, tuple(gb_adj))
    gb_sides = (frozenset(range(k)), frozenset(range(k, gb.n)))
    contraction_map = tuple(("a", v) for v in a_list) + tuple(("d", i) for i in range(n_d))
    return gb, gb_sides, contraction_map


def _contract(g: Graph, d_set: frozenset[int]):
    """Everything of the decomposition that follows from ``d_set``:
    ``(a_set, c_set, d_components, c_components, gb, gb_sides,
    contraction_map, comp)``.  ``_classes`` is its first half, and the two
    view builders its second."""
    a_list, comp, d_members, c_members = _classes(g.adj, d_set)
    return (*_class_views(a_list, comp, d_members, c_members)[1:],
            *_gb_views(g.adj, a_list, comp, len(d_members)), tuple(comp))


def gallai_edmonds(g: Graph) -> GallaiEdmonds:
    """The decomposition of g with its arrays; its views are built when
    first read (see ``GallaiEdmonds``)."""
    d_verts, match, parent = _missable_and_match(g)
    a_list, comp, d_members, c_members = _classes(g.adj, d_verts)
    # Tutte-Berge on S = A: every matching leaves odd - |A| vertices free or
    # more, odd being the number of odd components of g - A
    odd = sum(len(c) % 2 for c in chain(d_members, c_members))
    if match.count(-1) != odd - len(a_list):
        raise InternalCheckError("the Tutte-Berge count on A fails: the matching is not maximum")
    ge = object.__new__(GallaiEdmonds)
    ge.__dict__.update(comp=tuple(comp), match=tuple(match), parent=tuple(parent), upms={},
                       a_list=a_list, d_members=d_members, c_members=c_members, _adj=g.adj)
    return ge


def verify_gallai_edmonds(g: Graph, ge: GallaiEdmonds) -> bool:
    """Independent certificate check of a claimed decomposition.

    Verifies the partition and that A, C, both component lists and gb are
    the ones that ``d_set`` induces, then the classical structure-theorem
    consequences: factor-critical components on the deficient side, perfectly
    matchable components on the untouched side, the deficiency identity
    2 nu(g) = n - (#components - |a_set|), nu(gb) = |a_set|, and positive
    surplus of gb seen from A: every nonempty S of A-vertices has more than
    |S| component neighbors.  Given nu(gb) = |a_set|, that holds iff every
    A-vertex reaches an unmatched component vertex in D(M) of a maximum
    matching M of gb (one reachability pass).  Without it a wrong ``d_set``
    can pass every other test: ``{0}`` on the path 0-1.
    """
    verts = frozenset(range(g.n))
    if ge.d_set | ge.a_set | ge.c_set != verts:
        return False
    if ge.d_set & ge.a_set or ge.d_set & ge.c_set or ge.a_set & ge.c_set:
        return False
    claimed = (ge.a_set, ge.c_set, ge.d_components, ge.c_components, ge.gb, ge.gb_sides,
               ge.contraction_map)
    if claimed != _contract(g, ge.d_set)[:-1]:
        return False

    for comp in ge.d_components:
        sub, _ = induced_subgraph(g, comp)
        if not is_factor_critical(sub):
            return False
    for comp in ge.c_components:
        sub, _ = induced_subgraph(g, comp)
        if 2 * len(maximum_matching(sub).edges) != sub.n:
            return False

    nu = len(maximum_matching(g).edges)
    if 2 * nu != g.n - (len(ge.d_components) - len(ge.a_set)):
        return False
    gb_m = maximum_matching_bipartite(ge.gb, ge.gb_sides)
    if len(gb_m.edges) != len(ge.a_set):
        return False
    return ge.gb_sides[0] <= build_matching_digraph(ge.gb, ge.gb_sides, gb_m).v_minus
