"""Gallai-Edmonds decomposition and the bipartite contraction it induces.

``d_set`` (the vertices v with nu(g - v) == nu(g)) comes from the matcher
alone: it is the set of dead-even vertices of the Edmonds forest that the
matcher's failed searches leave behind, and the matching and the forest's
path pointers are kept.  The contracted graph ``gb`` keeps the neighbors of
``d_set`` on one side and one vertex per component of the induced subgraph
on ``d_set`` on the other; edges inside ``a_set`` and all of ``c_set`` are
dropped from it.  The components of g[c_set] are kept beside it, split once
here for the deciders and the verifier.  Everything after the matcher is
linear: one pass over D's adjacency finds A, one breadth-first search over
g's own adjacency that stays inside the class of its start splits D and C
into one component array, which is kept, and gb's adjacency is read off
A's; no induced graph is built.  The Tutte-Berge count on A then checks
that the matching is maximum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph_core import Graph, induced_subgraph
from .matching import (
    InternalCheckError,
    _missable_and_match,
    is_factor_critical,
    maximum_matching,
    maximum_matching_bipartite,
)
from .ur_core import build_matching_digraph


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

    ``upms`` is the deciders' private memo, so that deciders sharing one
    decomposition test each set once.  ``("c", ci)`` maps to the edges, in
    g's ids, of the unique perfect matching of C component ``ci``, or to
    None; ``(ci, h)`` to whether D component ``ci`` minus its vertex h has a
    unique perfect matching; ``("d", ci)`` holds what those tests share: D
    component ``ci`` in local ids, its near-perfect matching and the path
    pointers of the alternating tree grown from its one free vertex.  The
    memo holds entries no caller asked for: the first C component test
    answers all of them, and a "no" for one h of a D component writes a
    "no" for every h' that the same alternating cycle rules out.
    ``"attachments"`` holds the neighbors of each A-vertex in each D
    component it touches, which the allowed edges, witness assembly and the
    every route all read.

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


def _contract(g: Graph, d_set: frozenset[int]):
    """Everything of the decomposition that follows from ``d_set``.

    Returns ``(a_set, c_set, d_components, c_components, gb, gb_sides,
    contraction_map, comp)``: A is the outside neighborhood of D, C the
    rest, and gb joins each A-vertex to every D component it touches.  One
    pass over D's adjacency finds A; one breadth-first search that stays
    inside the class of its start numbers the D and the C components in the
    shared array ``comp`` (see ``GallaiEdmonds``); one pass over A's
    adjacency reads off gb's.
    """
    n, adj = g.n, g.adj
    # unvisited D is -2, unvisited C -3, A -1; then D component ci is ci
    # and C component ci is -4 - ci
    comp = [-3] * n
    for v in d_set:
        comp[v] = -2
    a_list = []
    for v in d_set:
        for w in adj[v]:
            if comp[w] == -3:
                comp[w] = -1
                a_list.append(w)
    a_list.sort()
    d_comps: list[frozenset[int]] = []
    c_comps: list[frozenset[int]] = []
    for s in range(n):  # ascending, so each list is ordered by lowest vertex
        cls = comp[s]
        if cls == -2:
            comps, ci = d_comps, len(d_comps)
        elif cls == -3:
            comps, ci = c_comps, -4 - len(c_comps)
        else:
            continue  # A, or visited
        comp[s] = ci
        members = [s]
        for v in members:  # the loop also visits vertices appended while it runs
            for w in adj[v]:
                if comp[w] == cls:
                    comp[w] = ci
                    members.append(w)
        comps.append(frozenset(members))

    k = len(a_list)
    gb_adj = [
        tuple([k + ci for ci in sorted(set(map(comp.__getitem__, adj[a]))) if ci >= 0])
        for a in a_list
    ]
    comp_side: list[list[int]] = [[] for _ in d_comps]
    for i, row in enumerate(gb_adj):
        for j in row:
            comp_side[j - k].append(i)  # ascending, as i is
    gb_edges = frozenset([(i, j) for i, row in enumerate(gb_adj) for j in row])
    gb_adj.extend(map(tuple, comp_side))
    gb = Graph(k + len(d_comps), gb_edges, tuple(gb_adj))
    gb_sides = (frozenset(range(k)), frozenset(range(k, gb.n)))
    contraction_map = tuple(("a", v) for v in a_list) + tuple(
        ("d", i) for i in range(len(d_comps))
    )
    c_set = frozenset(v for v in range(n) if comp[v] <= -4)
    return (frozenset(a_list), c_set, tuple(d_comps), tuple(c_comps), gb, gb_sides,
            contraction_map, tuple(comp))


def gallai_edmonds(g: Graph) -> GallaiEdmonds:
    d_set, match, parent = _missable_and_match(g)
    ge = GallaiEdmonds(d_set, *_contract(g, d_set), match=tuple(match), parent=tuple(parent))
    # Tutte-Berge on S = A: every matching leaves odd - |A| vertices free or
    # more, odd being the number of odd components of g - A
    odd = sum(len(c) % 2 for c in ge.d_components + ge.c_components)
    if match.count(-1) != odd - len(ge.a_set):
        raise InternalCheckError("the Tutte-Berge count on A fails: the matching is not maximum")
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
