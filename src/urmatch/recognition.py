"""Deciders for the two graph-level properties.

``some_ur``: does some maximum matching of g admit no second matching on the
same vertex set?  ``every_ur``: do all of them?  Both reduce to structural
conditions on the Gallai-Edmonds decomposition; yes-instances of ``some_ur``
come with an explicit witness matching that callers can re-verify.  Both
read only the decomposition's arrays (``comp``, ``match``, ``parent``,
``a_list`` and the member lists) and its memo, and gb once they reach a gb
condition, so a run that stops at a C or D component test builds none of its
views.  The ``every_ur`` route works on arrays and masks over g's and gb's
adjacency: one two-coloring, one Hopcroft-Karp mate array, D(M)'s
acyclicity and the forest tests of its closures, and one block search kept
inside D; only the public entry points validate what they are given.

Failure tags form a closed set of stable strings; a report names the first
violated condition, and all violated conditions when diagnostics are requested.
"""

from __future__ import annotations

from dataclasses import dataclass

from .accessibility import _e_good_ordering
from .decomposition import GallaiEdmonds, gallai_edmonds
from .graph_core import Graph, _is_forest, _odd_cycle_blocks, _side_a, edge_key, validate_bipartition
from .matching import (
    InternalCheckError,
    Matching,
    _EVEN,
    _alternating_cycle,
    _hopcroft_karp,
    _koenig_independent,
    _peel,
    _search,
    unique_perfect_matching,  # noqa: F401  read as recognition.unique_perfect_matching by perfbench
)
from .ur_core import _arcs, _reach, is_acyclic

C_COMPONENT_PM_NOT_UNIQUE = "c_component_pm_not_unique"
GB_NO_UR_MATCHING_WITHIN_E = "gb_no_ur_matching_within_E"
D_COMPONENT_NO_UNIQUE_PM_VERTEX = "d_component_no_unique_pm_vertex"
D_COMPONENT_BLOCKS_NOT_ODD_CYCLES = "d_component_blocks_not_odd_cycles"
GB_EVERY_MAX_MATCHING_NOT_UR = "gb_every_max_matching_not_ur"
GB_EDGE_MULTIPLE_NEIGHBORS = "gb_edge_multiple_neighbors"
GB_DIGRAPH_CYCLIC = "gb_digraph_cyclic"
V_PLUS_NOT_FOREST = "v_plus_not_forest"
V_MINUS_NOT_FOREST = "v_minus_not_forest"

FAILURE_TAGS = frozenset({
    C_COMPONENT_PM_NOT_UNIQUE,
    GB_NO_UR_MATCHING_WITHIN_E,
    D_COMPONENT_NO_UNIQUE_PM_VERTEX,
    D_COMPONENT_BLOCKS_NOT_ODD_CYCLES,
    GB_EVERY_MAX_MATCHING_NOT_UR,
    GB_EDGE_MULTIPLE_NEIGHBORS,
    GB_DIGRAPH_CYCLIC,
    V_PLUS_NOT_FOREST,
    V_MINUS_NOT_FOREST,
})


# the key of ``_attachments`` in ``GallaiEdmonds.upms``
_ATTACHMENTS = "attachments"


@dataclass(frozen=True)
class RecognitionReport:
    property: str  # "some_ur" | "every_ur"
    answer: bool
    witness: Matching | None = None
    failure: str | None = None
    failures: tuple[str, ...] = ()


def _attachments(g: Graph, ge: GallaiEdmonds) -> dict[tuple[int, int], list[int]]:
    """One pass over the adjacency of A: the neighbors of the i-th A-vertex
    inside D component ci, keyed by (i, ci), for every pair that touches;
    memoised in ``ge.upms``.  These pairs are exactly the edges of gb:
    (i, k + ci) for k A-vertices."""
    if _ATTACHMENTS not in ge.upms:
        comp = ge.comp
        out: dict[tuple[int, int], list[int]] = {}
        for i, a in enumerate(ge.a_list):
            for w in g.adj[a]:
                if comp[w] >= 0:
                    out.setdefault((i, comp[w]), []).append(w)
        ge.upms[_ATTACHMENTS] = out
    return ge.upms[_ATTACHMENTS]


def _gb_matching(ge: GallaiEdmonds) -> tuple[list[bool], list[int]]:
    """gb's side-A mask and the mate array of Hopcroft-Karp on gb.
    ``_gb_views`` numbered gb's k A-vertices 0..k-1, so its sides are not
    validated again."""
    k = len(ge.a_list)
    return [True] * k + [False] * (ge.gb.n - k), _hopcroft_karp(ge.gb.adj, range(k))


def _decomposed(g: Graph, ge: GallaiEdmonds | None) -> GallaiEdmonds:
    """``ge``, or g's decomposition when it is None.  The uniqueness tests
    start from ``ge.match``, ``ge.comp`` and ``ge.parent``, so a
    decomposition without them is refused; with ``comp`` come the arrays
    read off it (``ge.a_list``, ``ge.d_members``, ``ge.c_members``)."""
    if ge is None:
        return gallai_edmonds(g)
    if ge.match is None or ge.comp is None or ge.parent is None:
        raise ValueError("the decomposition carries no matching, component array or path "
                         "pointers; build it with gallai_edmonds(g)")
    return ge


def _edges(verts, match) -> list[tuple[int, int]]:
    return [edge_key(verts[x], verts[y]) for x, y in enumerate(match) if y > x]


def _c_upm(g: Graph, ge: GallaiEdmonds, ci: int) -> list | None:
    """Edges of the unique perfect matching of C component ``ci``, in g's
    ids, or None, memoised in ``ge.upms``.  The first call answers every C
    component with one Kotzig peel of g[C] on g's adjacency and
    ``ge.match``: the peel acts on each component on its own, so component
    ci has a unique perfect matching iff none of its vertices is left when
    the peel stalls."""
    key = ("c", ci)
    if key not in ge.upms:
        match, comp = ge.match, ge.comp
        alive = [c <= -4 for c in comp]
        edges = [[] for _ in ge.c_members]
        for v, c in enumerate(comp):
            if c <= -4:
                if match[v] == -1 or comp[match[v]] != c:
                    raise InternalCheckError(f"the matching is not perfect on C at vertex {v}")
                if match[v] > v:
                    edges[-4 - c].append((v, match[v]))
        for v in _peel(g.adj, match, alive):
            edges[-4 - comp[v]] = None
        for cj, upm in enumerate(edges):
            ge.upms[("c", cj)] = upm
    return ge.upms[key]


def _d_local(g: Graph, ge: GallaiEdmonds, ci: int):
    """D component ``ci`` in local ids 0..|H|-1, ascending with g's ids:
    ``(verts, pos, adj, match, parent)``, where ``verts`` maps back, ``pos``
    forth, ``match`` is ``ge.match`` inside the component (-1 at the one
    vertex it leaves unmatched there), and ``parent`` is ``ge.parent``
    inside it (-1 where a pointer leaves it); memoised in ``ge.upms``."""
    key = ("d", ci)
    if key not in ge.upms:
        verts = sorted(ge.d_members[ci])
        pos = {v: i for i, v in enumerate(verts)}
        adj = tuple(tuple(pos[w] for w in g.adj[v] if w in pos) for v in verts)
        match = [pos.get(ge.match[v], -1) for v in verts]
        parent = [pos.get(ge.parent[v], -1) for v in verts]
        ge.upms[key] = verts, pos, adj, match, parent
    return ge.upms[key]


def _perfect_minus(g: Graph, ge: GallaiEdmonds, ci: int, h: int):
    """A perfect matching of D component ``ci`` minus h: ``(verts, adj, x,
    match)`` in local ids, x being h's.  The path pointers give an even
    alternating path from h to the component's one free vertex; flipping it
    frees h.  A walk that leaves the component, ends elsewhere or runs
    longer than the component raises."""
    verts, pos, adj, near, parent = _d_local(g, ge, ci)
    x = pos[h]
    match = list(near)
    m, match[x] = match[x], -1
    for _ in verts:
        if m == -1:
            return verts, adj, x, match
        p = parent[m]
        if p == -1 or p == x:
            break
        nxt = match[p]
        match[m] = p
        match[p] = m
        m = nxt
    raise InternalCheckError(f"D component {ci}: the path pointers from {h} miss its free vertex")


def _unique_minus(g: Graph, ge: GallaiEdmonds, ci: int, h: int) -> bool:
    """Whether D component ``ci`` minus its vertex h has a unique perfect
    matching: one path flip and the Kotzig peel, memoised in ``ge.upms``.

    A "no" rejects more vertices of the component with it.  The peel's
    remainder holds an even cycle C that alternates under the perfect
    matching M of H - h.  For any h' outside C such that H - V(C) - h' has
    a perfect matching, that matching plus either half of C gives two of
    H - h'.  M misses only h in H - V(C), so those h' are the even vertices
    of one search from h with C dead, and each is memoised as a "no".
    """
    if len(ge.d_members[ci]) == 1:
        return True  # the empty graph has the empty one
    key = (ci, h)
    if key not in ge.upms:
        verts, adj, x, match = _perfect_minus(g, ge, ci, h)
        alive = [True] * len(match)
        alive[x] = False
        rest = _peel(adj, match, alive)
        ge.upms[key] = not rest
        if rest:
            forest = _search(adj, match, [x], dead=_alternating_cycle(adj, match, rest))
            if forest is None:
                raise InternalCheckError(f"D component {ci} minus {h} has no perfect matching")
            for y, lab in enumerate(forest[0]):
                if lab == _EVEN and ge.upms.setdefault((ci, verts[y]), False):
                    raise InternalCheckError(
                        f"D component {ci} minus {verts[y]}: the memo and the alternating cycle disagree")
    return ge.upms[key]


def allowed_edges(g: Graph, ge: GallaiEdmonds) -> frozenset[tuple[int, int]]:
    """Edges of gb eligible to carry a uniquely restricted matching.

    A gb edge between a-side vertex (for original vertex a) and a component H
    qualifies iff a has exactly one neighbor h inside H and H - h has a unique
    perfect matching.  Like the deciders, it refuses a decomposition without
    its arrays.
    """
    ge = _decomposed(g, ge)
    k = len(ge.a_list)
    return frozenset([
        (i, k + ci) for (i, ci), nbrs in _attachments(g, ge).items()
        if len(nbrs) == 1 and _unique_minus(g, ge, ci, nbrs[0])
    ])


def some_ur(g: Graph, *, ge: GallaiEdmonds | None = None, all_failures: bool = False) -> RecognitionReport:
    """Decide whether some maximum matching of g is uniquely restricted.

    Yes-answers carry a witness built from the unique perfect matchings of the
    untouched components, one graph edge per matched contracted edge, and a
    near-perfect matching inside every deficient component.
    """
    ge = _decomposed(g, ge)
    failures: list[str] = []

    # condition 1: every untouched component has a unique perfect matching
    for ci in range(len(ge.c_members)):
        if _c_upm(g, ge, ci) is None:
            failures.append(C_COMPONENT_PM_NOT_UNIQUE)
            if not all_failures:
                return RecognitionReport("some_ur", False, None, failures[0], tuple(failures))
            break

    # condition 2: gb has a maximum uniquely restricted matching inside the
    # eligible edges; equivalent to an ordering of a maximum independent set
    eligible = allowed_edges(g, ge)
    i_max = _koenig_independent(ge.gb.adj, *_gb_matching(ge))
    ordering = _e_good_ordering(ge.gb, i_max, eligible)
    if ordering is None:
        failures.append(GB_NO_UR_MATCHING_WITHIN_E)
        if not all_failures:
            return RecognitionReport("some_ur", False, None, failures[0], tuple(failures))

    # condition 3: every deficient component has a vertex whose deletion
    # leaves a unique perfect matching
    chosen_h: dict[int, int] = {}
    cond3_ok = True
    for ci, members in enumerate(ge.d_members):
        found = None
        for h in sorted(members):
            if _unique_minus(g, ge, ci, h):
                found = h
                break
        if found is None:
            cond3_ok = False
            failures.append(D_COMPONENT_NO_UNIQUE_PM_VERTEX)
            if not all_failures:
                return RecognitionReport("some_ur", False, None, failures[0], tuple(failures))
            break
        chosen_h[ci] = found

    if failures:
        return RecognitionReport("some_ur", False, None, failures[0], tuple(failures))
    if ordering is None or not cond3_ok:
        raise InternalCheckError("some_ur reached witness assembly with a failed condition")

    # assemble the witness
    witness_edges: set[tuple[int, int]] = set()
    attachments, k = _attachments(g, ge), len(ge.a_list)
    for i, j in sorted(ordering.induced_matching.edges):  # i < k <= j
        nbrs = attachments.get((i, j - k), ())
        if len(nbrs) != 1:  # the ordering only uses eligible edges
            raise InternalCheckError(f"ordering edge {(i, j)} has no unique component neighbor")
        witness_edges.add(edge_key(ge.a_list[i], nbrs[0]))
        chosen_h[j - k] = nbrs[0]
    for ci in range(len(ge.c_members)):
        witness_edges.update(_c_upm(g, ge, ci))
    for ci, h in chosen_h.items():
        if not _unique_minus(g, ge, ci, h):
            raise InternalCheckError(f"D component {ci} minus {h} has no unique perfect matching")
        if len(ge.d_members[ci]) > 1:  # a single vertex leaves no edge
            verts, _, _, match = _perfect_minus(g, ge, ci, h)
            witness_edges.update(_edges(verts, match))
    witness = Matching.from_edges(g, sorted(witness_edges))
    return RecognitionReport("some_ur", True, witness, None, ())


def _every_bipartite(adj, in_a, mate, all_failures: bool) -> list[str]:
    """The failure tags of the bipartite every-test, side A marked in
    ``in_a`` and a maximum matching M in ``mate``: every maximum matching
    is uniquely restricted iff D(M) is acyclic and its closures V+ and V-
    induce forests, whichever maximum matching M is.  Without
    ``all_failures`` the list stops at the first tag."""
    failures = []
    if not is_acyclic(_arcs(adj, in_a, mate, True)):
        failures.append(GB_DIGRAPH_CYCLIC)
        if not all_failures:
            return failures
    if not _is_forest(adj, _reach(adj, in_a, mate, True)):
        failures.append(V_PLUS_NOT_FOREST)
        if not all_failures:
            return failures
    if not _is_forest(adj, _reach(adj, in_a, mate, False)):
        failures.append(V_MINUS_NOT_FOREST)
    return failures


def _every_report(failures: list[str]) -> RecognitionReport:
    if failures:
        return RecognitionReport("every_ur", False, None, failures[0], tuple(failures))
    return RecognitionReport("every_ur", True, None, None, ())


def every_ur_bipartite(g: Graph, sides, *, all_failures: bool = False) -> RecognitionReport:
    """Bipartite decider: every maximum matching is uniquely restricted iff the
    orientation of one maximum matching is acyclic and both reachability
    closures induce forests."""
    side_a, _ = validate_bipartition(g, sides)
    in_a = [v in side_a for v in range(g.n)]
    mate = _hopcroft_karp(g.adj, sorted(side_a))
    return _every_report(_every_bipartite(g.adj, in_a, mate, all_failures))


def every_ur(g: Graph, *, ge: GallaiEdmonds | None = None, all_failures: bool = False) -> RecognitionReport:
    """Decide whether every maximum matching of g is uniquely restricted.

    Bipartite inputs take the direct bipartite decider, all others the
    general route through the decomposition.
    """
    in_a = _side_a(g.adj)
    if in_a is not None:
        a_list = [v for v in range(g.n) if in_a[v]]
        return _every_report(_every_bipartite(g.adj, in_a, _hopcroft_karp(g.adj, a_list), all_failures))
    return every_ur_general(g, ge=ge, all_failures=all_failures)


def every_ur_general(
    g: Graph, *, ge: GallaiEdmonds | None = None, all_failures: bool = False
) -> RecognitionReport:
    """The every-decider through the Gallai-Edmonds decomposition; valid on
    any graph, and the route ``every_ur`` takes on non-bipartite ones.

    The characterization constrains only gb edges that lie in some maximum
    matching of gb.  By the Gallai-Edmonds structure theorem gb has positive
    surplus seen from A (every nonempty S of A-vertices has more than |S|
    component neighbors; ``verify_gallai_edmonds`` checks it), so every gb edge
    lies in one: gb - a - H still matches all of A - a by Hall's condition.
    The gb-edge condition is therefore one pass over the adjacency of A: no
    A-vertex may have two neighbors in the same D component.
    """
    ge = _decomposed(g, ge)
    failures: list[str] = []

    for ci in range(len(ge.c_members)):
        if _c_upm(g, ge, ci) is None:
            failures.append(C_COMPONENT_PM_NOT_UNIQUE)
            if not all_failures:
                return _every_report(failures)
            break

    # one block search over g's adjacency, kept inside D
    if not _odd_cycle_blocks(g.adj, [c >= 0 for c in ge.comp]):
        failures.append(D_COMPONENT_BLOCKS_NOT_ODD_CYCLES)
        if not all_failures:
            return _every_report(failures)

    if _every_bipartite(ge.gb.adj, *_gb_matching(ge), all_failures=False):
        failures.append(GB_EVERY_MAX_MATCHING_NOT_UR)
        if not all_failures:
            return _every_report(failures)

    if any(len(nbrs) > 1 for nbrs in _attachments(g, ge).values()):
        failures.append(GB_EDGE_MULTIPLE_NEIGHBORS)
        if not all_failures:
            return _every_report(failures)

    return _every_report(failures)
