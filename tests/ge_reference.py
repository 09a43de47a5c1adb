"""Definitional references for the Gallai-Edmonds classes and the gb-edge test.

The classes: v belongs to D iff nu(g - v) == nu(g), where nu(g - v) is the
size of a maximum matching of the subgraph induced by V - v; this is the
route that the labelling read off the library's matcher replaces, and it
shares nothing with that labelling beyond the matcher itself.  A is the outside
neighborhood of D and C the rest.  It costs one maximum matching per vertex,
so tests use it only on small and medium graphs.

The gb-edge condition of the general every-decider, as the characterization
states it: every gb edge that lies in some maximum matching of gb joins an
A-vertex to a component in which it has exactly one neighbor.  It asks
``edge_in_some_maximum_matching`` once per gb edge; the library's one pass
over the adjacency of A replaces it.  Each gb edge is decoded here by its
ends' ids: vertex i < |A| is the i-th A-vertex, vertex |A| + ci is D
component ci.

The contraction as the decomposition first built it: A by testing every
vertex's neighbors, the components of g[D] and of g[C] by the library's
general component search, the attachments by scanning each component's
neighbors, gb through ``Graph.from_edges``, and the component array from
the component lists.  Every view of the library's ``GallaiEdmonds`` must
equal the one of the same name here.  ``class_sets`` reads the classes as
sets off a decomposition's component array, ``gb_graph`` builds gb from a
decomposition's attachment keys, which the library holds as gb's edges
and builds no graph from, and ``gb_sides`` gives gb's two sides, for tests
that compare sets or need gb or its bipartition.

The Edmonds labelling as the decomposition first found it: one more search
from every free vertex of the matcher's maximum matching, on fresh arrays.
The library reads the same labels off the matcher's own failed searches.

The classes as the decomposition first read them off the matcher: its
dead-even vertices as D, then A by one pass over D's adjacency
(``classes_by_a_pass``, which also builds the decomposition a claimed D
induces), and the matcher's searches run from every vertex its seed left
free, isolated ones too (``matcher_searching_all``).  The library reads A
off the dead-odd labels and labels an isolated free vertex without a
search.

The structure-theorem check that ``verify_gallai_edmonds`` once ran
(``verify_by_resolving``): it solves the matching problems again, one
factor-criticality test per D component, one maximum matching per C
component, a second matcher run on g and one on gb, and a reachability
pass over gb for its positive surplus seen from A.  The library checks
the claim's own certificate in one linear pass instead.

Uniqueness of a perfect matching by the deletion device: a perfect matching
M is unique iff g - e has no perfect matching for every e in M.  It runs one
augmenting search per matched edge, which is quadratic on paths and cycles;
the library's Kotzig peel replaces it.
"""

from __future__ import annotations

from dataclasses import replace
from functools import cached_property

from urmatch.decomposition import GallaiEdmonds, _classes, gallai_edmonds
from lemma_helpers import is_factor_critical
from urmatch.graph_core import Graph, connected_components, induced_subgraph
from urmatch.matching import (
    InternalCheckError,
    Matching,
    _UNLABELLED,
    _greedy_seed,
    _matcher,
    _matching_from_array,
    _max_match_array,
    _search,
    edge_in_some_maximum_matching,
    maximum_matching,
)
from urmatch.ur_core import build_matching_digraph


# the views of a decomposition: every cached property of its class
VIEWS = tuple(name for name, attr in vars(GallaiEdmonds).items() if isinstance(attr, cached_property))
# the views that gallai_edmonds hands over from its component search; the
# others are built on first read
SEEDED = frozenset({"counts", "a_list"})


def _nu_without(g: Graph, v: int) -> int:
    sub, _ = induced_subgraph(g, (w for w in range(g.n) if w != v))
    return maximum_matching(sub).size


def missable_vertex(g: Graph, v: int) -> bool:
    """True iff nu(g - v) == nu(g), i.e. some maximum matching misses v."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    return _nu_without(g, v) == maximum_matching(g).size


def missable_vertices_by_deletion(g: Graph) -> frozenset[int]:
    """All vertices missed by some maximum matching (one nu test per vertex)."""
    nu = maximum_matching(g).size
    return frozenset(v for v in range(g.n) if _nu_without(g, v) == nu)


def reference_classes(g: Graph) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
    """(D, A, C) by the per-vertex deletion test."""
    d_set = missable_vertices_by_deletion(g)
    a_set = frozenset(
        v for v in range(g.n) if v not in d_set and any(w in d_set for w in g.adj[v])
    )
    return d_set, a_set, frozenset(range(g.n)) - d_set - a_set


def class_sets(ge: GallaiEdmonds) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
    """(D, A, C) of ``ge``, read off its component array."""
    comp = ge.comp
    return (frozenset(v for v, c in enumerate(comp) if c >= 0),
            frozenset(v for v, c in enumerate(comp) if c == -1),
            frozenset(v for v, c in enumerate(comp) if c <= -4))


def gb_graph(ge: GallaiEdmonds) -> Graph:
    """gb as a graph: vertex i < |A| is the A-vertex ``ge.a_list[i]`` and
    vertex |A| + ci is D component ci, one edge per attachment key."""
    k = len(ge.a_list)
    return Graph.from_edges(k + ge.counts[0], [(i, k + ci) for i, ci in ge.attachments])


def gb_sides(ge: GallaiEdmonds) -> tuple[range, range]:
    """gb's A side and component side: the first |A| vertex ids, then the rest."""
    k = len(ge.a_list)
    return range(k), range(k, k + ge.counts[0])


def contract_by_sets(g: Graph, d_set: frozenset[int]) -> dict:
    """Every view of the decomposition that ``d_set`` induces on g, and its
    ``comp``, by the direct route, keyed by name, and gb as a graph, keyed
    ``"gb_graph"``."""
    a_set = frozenset(
        v for v in range(g.n) if v not in d_set and any(w in d_set for w in g.adj[v])
    )
    c_set = frozenset(range(g.n)) - d_set - a_set
    d_components = tuple(connected_components(g, d_set))
    c_components = tuple(connected_components(g, c_set))
    a_list = sorted(a_set)
    a_pos = {v: i for i, v in enumerate(a_list)}
    k = len(a_list)
    nbrs: dict[tuple[int, int], list[int]] = {}
    for ci, members in enumerate(d_components):
        for v in sorted(members):
            for w in g.adj[v]:
                if w in a_set:
                    nbrs.setdefault((a_pos[w], ci), []).append(v)
    attachments = {key: vs[0] if len(vs) == 1 else -1 for key, vs in nbrs.items()}
    gb = Graph.from_edges(k + len(d_components), [(i, k + ci) for i, ci in attachments])
    comp = [-1] * g.n
    for ci, members in enumerate(d_components):
        for v in members:
            comp[v] = ci
    for ci, members in enumerate(c_components):
        for v in members:
            comp[v] = -4 - ci
    return {
        "counts": (len(d_components), len(c_components)),
        "a_list": a_list,
        "d_members": [sorted(c) for c in d_components],
        "c_members": [sorted(c) for c in c_components],
        "attachments": attachments,
        "comp": tuple(comp),
        "gb_graph": gb,
    }


def matcher_searching_all(g: Graph):
    """``(match, label, parent, forced)`` of the matcher with one search
    from every vertex the seed left free, isolated ones too."""
    match, forced = _greedy_seed(g.adj)
    label, parent = [_UNLABELLED] * g.n, [-1] * g.n
    state = (label, parent, list(range(g.n)))
    for v in range(g.n):
        if match[v] == -1:
            _search(g.adj, match, [v], state)
    return match, label, parent, forced


def claim(g: Graph, comp) -> GallaiEdmonds:
    """A claimed decomposition of g with the component array ``comp`` and
    the certificate of g's own decomposition: its matching, path pointers
    and forced pairs."""
    return replace(gallai_edmonds(g), comp=tuple(comp))


def classes_by_a_pass(g: Graph, d_set) -> list[int]:
    """The component array (see ``GallaiEdmonds``) that ``d_set`` as D
    induces: one pass over D's adjacency finds A, C is the rest, and
    ``_classes`` numbers the components."""
    comp = [-2 if v in d_set else -3 for v in range(g.n)]
    for v in d_set:
        for w in g.adj[v]:
            if comp[w] == -3:
                comp[w] = -1
    _classes(g.adj, comp)
    return comp


def edmonds_labels(adj, match):
    """Labels of the forest grown from every free vertex of a maximum ``match``.

    By the Gallai-Edmonds theorem the even vertices are D, the odd ones A and
    the unlabelled ones C.  A matching that is not maximum raises.
    """
    forest = _search(adj, match, [v for v in range(len(adj)) if match[v] == -1])
    if forest is None:
        raise InternalCheckError("an augmenting path exists: the matching is not maximum")
    return forest[0]


def gb_edge_condition_by_edges(g: Graph, ge: GallaiEdmonds) -> bool:
    """True iff no gb edge in some maximum matching of gb joins an A-vertex to
    a component in which it has two or more neighbors."""
    k, gb = len(ge.a_list), gb_graph(ge)
    for i, x in gb.sorted_edges():  # i < k <= x
        if not edge_in_some_maximum_matching(gb, (i, x)):
            continue
        comp = set(ge.d_members[x - k])
        if len([w for w in g.adj[ge.a_list[i]] if w in comp]) != 1:
            return False
    return True


def unique_perfect_matching_by_deletion(g: Graph) -> Matching | None:
    """The unique perfect matching of g, or None if g has zero or several."""
    if g.n % 2:
        return None
    match = _max_match_array(g)
    if any(x == -1 for x in match):
        return None
    adj = list(g.adj)
    for u, v in sorted(e for e in g.edges if match[e[0]] == e[1]):
        match[u] = match[v] = -1
        # g - uv: v is free outside the roots, so only u would scan the edge
        adj[u] = tuple(x for x in g.adj[u] if x != v)
        if _search(adj, match, [u]) is None:
            return None
        match[u], match[v] = v, u
        adj[u] = g.adj[u]
    return _matching_from_array(g, match)


def verify_by_resolving(g: Graph, ge: GallaiEdmonds) -> bool:
    """Structure-theorem check of a claimed decomposition by re-solving.

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
    seed's forced pairs a given ``forced`` must be.
    """
    if ge.adj != g.adj or ge.comp is None or len(ge.comp) != g.n:
        return False
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
    gb = gb_graph(ge)
    mate = _max_match_array(gb)
    if gb.n - mate.count(-1) != 2 * k:
        return False
    # gb vertices below k are A's: each must reach a free component vertex
    md = build_matching_digraph(gb, gb_sides(ge), _matching_from_array(gb, mate))
    return md.v_minus.issuperset(range(k))
