"""Deciders for the two graph-level properties.

``some_ur``: does some maximum matching of g admit no second matching on the
same vertex set?  ``every_ur``: do all of them?  Both reduce to structural
conditions on the Gallai-Edmonds decomposition and read its arrays
(``comp``, ``match``, ``parent`` and ``forced``), its views and its memo;
no decider builds gb or matches it: both read gb's edges off the
attachments, ``some_ur`` as one row per A-vertex and ``every_ur`` by their
count first; only ``some_ur`` reads member lists.  A run that stops at a C
or D component test builds no view beyond the component counts and the A
list, which come with the decomposition.  Every uniqueness test is
one call of the alternating-cycle kernel ``matching._m_alternating_cycle``:
the C test makes one on what the seed's forced pairs leave of C
(``matching._unforced_cycle``), and each D - h test one.
Yes-instances of ``some_ur`` come with a witness matching, built as one
mate array, that callers can re-verify.  ``every_ur`` takes the one route
through the decomposition on every graph, bipartite ones included.  Only
the public entry points validate what they are given.

Failure tags form a closed set of stable strings.  Each decider's
conditions yield the tags of those that fail, in order; a report names the
first, and all of them when diagnostics are requested (``_report``).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice

from .accessibility import _e_good_ordering
from .decomposition import GallaiEdmonds, gallai_edmonds
from .graph_core import Graph, _odd_cycle_blocks, validate_bipartition
from .matching import (
    InternalCheckError,
    Matching,
    _EVEN,
    _m_alternating_cycle,
    _matching_from_array,
    _search,
    _unforced_cycle,
    unique_perfect_matching,  # noqa: F401  read as recognition.unique_perfect_matching by perfbench
)

C_COMPONENT_PM_NOT_UNIQUE = "c_component_pm_not_unique"
GB_NO_UR_MATCHING_WITHIN_E = "gb_no_ur_matching_within_E"
D_COMPONENT_NO_UNIQUE_PM_VERTEX = "d_component_no_unique_pm_vertex"
D_COMPONENT_BLOCKS_NOT_ODD_CYCLES = "d_component_blocks_not_odd_cycles"
GB_EVERY_MAX_MATCHING_NOT_UR = "gb_every_max_matching_not_ur"
GB_EDGE_MULTIPLE_NEIGHBORS = "gb_edge_multiple_neighbors"

FAILURE_TAGS = frozenset({
    C_COMPONENT_PM_NOT_UNIQUE,
    GB_NO_UR_MATCHING_WITHIN_E,
    D_COMPONENT_NO_UNIQUE_PM_VERTEX,
    D_COMPONENT_BLOCKS_NOT_ODD_CYCLES,
    GB_EVERY_MAX_MATCHING_NOT_UR,
    GB_EDGE_MULTIPLE_NEIGHBORS,
})


# ``GallaiEdmonds.upms``, the deciders' memo, so that deciders sharing one
# decomposition test each set once: ``"c"`` maps to the index of a C
# component whose perfect matching is not unique, or None (``_c_failure``);
# ``("cycle", ci)`` to whether D component ``ci``, of more than three
# vertices, is an odd cycle (``_odd_cycle``), whose every h needs no test;
# ``("d", ci)``, for one that is not, to its relabelled copy and one
# verdict per vertex h, whether H - h has a unique perfect matching
# (``_d_local``), a "no" written too for each h' that a "no"'s alternating
# cycle rules out (``_unique_minus``).


@dataclass(frozen=True)
class RecognitionReport:
    property: str  # "some_ur" | "every_ur"
    answer: bool
    witness: Matching | None = None
    failure: str | None = None
    failures: tuple[str, ...] = ()


_YES = {prop: RecognitionReport(prop, True) for prop in ("some_ur", "every_ur")}


def _report(prop: str, tags: Iterator[str], all_failures: bool) -> RecognitionReport:
    """The report of a decider whose conditions yield the tags of those that
    fail, in order: all of them under ``all_failures``, else the first, so
    that no condition after the first failing one runs.  A yes carries only
    its property, so one frozen report per property serves every call."""
    failures = tuple(tags) if all_failures else tuple(islice(tags, 1))
    return RecognitionReport(prop, False, None, failures[0], failures) if failures else _YES[prop]


def _decomposed(g: Graph, ge: GallaiEdmonds | None) -> GallaiEdmonds:
    """``ge``, or g's decomposition when it is None.  A decomposition built
    on another graph's adjacency is refused, and so is one without
    ``match``, ``comp``, ``parent`` or ``forced``, from which the
    uniqueness tests start."""
    if ge is None:
        return gallai_edmonds(g)
    if ge.adj is not g.adj and ge.adj != g.adj:
        raise ValueError("the decomposition belongs to another graph; build it with gallai_edmonds(g)")
    if ge.match is None or ge.comp is None or ge.parent is None or ge.forced is None:
        raise ValueError("the decomposition carries no matching, component array, path pointers "
                         "or forced pairs; build it with gallai_edmonds(g)")
    return ge


def _c_failure(g: Graph, ge: GallaiEdmonds) -> int | None:
    """The index of a C component whose perfect matching is not unique, or
    None if every one has a unique perfect matching, memoised in
    ``ge.upms`` once C is not empty.  ``ge.match`` is perfect on C, so one
    test of it on all of C (``_unforced_cycle``: one kernel call, on g's
    adjacency, on what the seed's forced pairs ``ge.forced`` leave of C)
    answers every component, as C's components share no edge: a cycle
    lies in one component that fails, which is named.  No kernel call runs
    when the forced pairs cover C.
    """
    if ge.counts[1] and "c" not in ge.upms:
        comp = ge.comp
        cycle = _unforced_cycle(g.adj, ge.match, ge.forced, [v for v, c in enumerate(comp) if c <= -4])
        ge.upms["c"] = None if cycle is None else -4 - comp[cycle[0]]
    return ge.upms.get("c")


def _d_local(g: Graph, ge: GallaiEdmonds, ci: int):
    """D component ``ci`` in local ids 0..|H|-1, ascending with g's ids:
    ``(verts, pos, adj, base, verdict)``, where ``verts`` maps back and
    ``pos`` forth, ``base`` is ``ge.match`` inside H (-1 at the vertex it
    leaves free in H), and ``verdict`` is ``_unique_minus``'s answers, None
    where untested; memoised in ``ge.upms``."""
    key = ("d", ci)
    if key not in ge.upms:
        verts, comp, mate = ge.d_members[ci], ge.comp, ge.match
        pos = {v: i for i, v in enumerate(verts)}
        adj = [[pos[w] for w in g.adj[v] if comp[w] == ci] for v in verts]
        ge.upms[key] = verts, pos, adj, [pos.get(mate[v], -1) for v in verts], [None] * len(verts)
    return ge.upms[key]


def _flip(ge: GallaiEdmonds, ci: int, h: int, mate: list[int], pos) -> None:
    """Free h in ``mate``, which holds ``ge.match`` on D component ``ci``
    through ``pos`` (``range(n)`` in g's ids; a mate outside it may read as
    anything).  The walk h, match[h], parent[match[h]], ... follows the even
    alternating path of the pointers to the component's free vertex, pairing
    each vertex a pointer reaches with the one before it (from that vertex
    itself, nothing).  A pointer that is -1 or leaves the component raises,
    and so does a vertex met twice: the walk then finds a mate in ``mate``
    changed or outruns the component."""
    match, parent, comp = ge.match, ge.parent, ge.comp
    m, prev = match[h], pos[h]
    mate[prev] = -1
    for _ in ge.d_members[ci]:
        if m == -1 or comp[m] != ci:
            return
        lm, p = pos[m], parent[m]
        if p == -1 or comp[p] != ci or mate[lm] != prev:
            break
        prev = pos[p]
        mate[lm], mate[prev], m = prev, lm, match[p]
    raise InternalCheckError(f"D component {ci}: the path pointers from {h} miss its free vertex")


def _odd_cycle(g: Graph, ge: GallaiEdmonds, ci: int) -> bool:
    """Whether D component ``ci`` is an odd cycle, memoised in ``ge.upms``.
    A factor-critical graph on three or more vertices has no vertex of
    degree below 2 (its one neighbor u would leave it alone in H - u), so
    it has as many edges as vertices iff each of its vertices has exactly
    two neighbors in it; the count stops at the first that has not."""
    key = ("cycle", ci)
    if key not in ge.upms:
        comp, adj = ge.comp, g.adj
        ge.upms[key] = all([comp[w] for w in adj[v]].count(ci) == 2 for v in ge.d_members[ci])
    return ge.upms[key]


def _unique_minus(g: Graph, ge: GallaiEdmonds, ci: int, h: int) -> bool:
    """Whether D component ``ci`` minus its vertex h has a unique perfect
    matching.

    A D component H is factor-critical, so it has an odd ear decomposition,
    with m - n + 1 ears (Lovasz 1972).  When H has as many edges as
    vertices it is one odd cycle, and every H - h is an even path, whose
    perfect matching is unique.  A single vertex leaves the empty graph, the
    triangle is the only factor-critical graph on three vertices, and a
    larger H has its edges counted once (``_odd_cycle``).  Every other H - h
    takes one path flip (``_flip``) and one call of the kernel
    ``_m_alternating_cycle`` on H's relabelled copy, kept in its verdicts.

    A "no" rejects more vertices of the component with it.  The kernel's
    "no" is an even cycle C that alternates under the perfect matching M of
    H - h.  For any h' outside C such that H - V(C) - h' has a perfect
    matching, that matching plus either half of C gives two of H - h'.  M
    misses only h in H - V(C), so those h' are the even vertices of one
    search from h with C dead, and each gets the verdict "no".  The
    kernel returns a short C where it can, which leaves more of H outside.
    """
    if ("d", ci) not in ge.upms and (len(ge.d_members[ci]) <= 3 or _odd_cycle(g, ge, ci)):
        return True
    verts, pos, adj, match, verdict = _d_local(g, ge, ci)
    x = pos[h]
    if verdict[x] is None:
        match = match[:]
        _flip(ge, ci, h, match, pos)
        cycle = _m_alternating_cycle(adj, match, [*range(x), *range(x + 1, len(match))])
        verdict[x] = cycle is None
        if cycle is not None:
            forest = _search(adj, match, [x], dead=cycle)
            if forest is None:
                raise InternalCheckError(f"D component {ci} minus {h} has no perfect matching")
            for y, lab in enumerate(forest[0]):
                if lab == _EVEN:
                    if verdict[y]:
                        raise InternalCheckError(
                            f"D component {ci} minus {verts[y]}: the memo and the alternating cycle disagree")
                    verdict[y] = False
    return verdict[x]


def _eligible(g: Graph, ge: GallaiEdmonds, kept: list):
    """``allowed_edges``' rule as a test ``allowed(i, ci)`` of the gb edge
    between A-vertex i and D component ci: it reads the attachment h once,
    tests nothing up to three vertices, and records each edge it allows as
    ``kept[ci] = (i, h)``."""
    att, members = ge.attachments, ge.d_members

    def allowed(i: int, ci: int) -> bool:
        h = att[i, ci]
        if h == -1 or len(members[ci]) > 3 and not _unique_minus(g, ge, ci, h):
            return False
        kept[ci] = i, h
        return True

    return allowed


def allowed_edges(g: Graph, ge: GallaiEdmonds) -> frozenset[tuple[int, int]]:
    """Edges of gb eligible to carry a uniquely restricted matching.

    A gb edge between a-side vertex (for original vertex a) and a component H
    qualifies iff a has exactly one neighbor h inside H and H - h has a unique
    perfect matching.  This tests H - h for every single attachment;
    ``some_ur`` asks the same question (``_eligible``) edge by edge, only
    where its ordering reads the answer.  Like the deciders, it refuses a
    decomposition of another graph or without its arrays.
    """
    ge = _decomposed(g, ge)
    k = len(ge.a_list)
    allowed = _eligible(g, ge, [None] * ge.counts[0])
    return frozenset([(i, k + ci) for i, ci in ge.attachments if allowed(i, ci)])


def _some_failures(g: Graph, ge: GallaiEdmonds, chosen: dict[int, tuple[int, int]]) -> Iterator[str]:
    """The tags of ``some_ur``'s three conditions that fail, in order.  Once
    none has, ``chosen`` maps each D component to ``(a, h)``: a vertex h
    whose deletion leaves a unique perfect matching, and the A-vertex a that
    the ordering matched to h, or -1: condition 2 keeps the h of each edge
    its rule allowed, and condition 3 reads the D - h verdicts."""
    # condition 1: every untouched component has a unique perfect matching
    if _c_failure(g, ge) is not None:
        yield C_COMPONENT_PM_NOT_UNIQUE

    # condition 2: gb has a maximum uniquely restricted matching inside the
    # eligible edges; equivalent to an ordering of a maximum independent set,
    # gb's component side, which needs rows on the A side only
    rows: list[list[int]] = [[] for _ in ge.a_list]
    for i, ci in ge.attachments:
        rows[i].append(ci)
    kept: list[tuple[int, int] | None] = [None] * ge.counts[0]
    ordering = _e_good_ordering(rows, ge.counts[0], _eligible(g, ge, kept))
    if ordering is None:
        yield GB_NO_UR_MATCHING_WITHIN_E
    else:
        for i, ci in ordering[1].items():
            edge = kept[ci]
            if edge is None or edge[0] != i:  # the ordering only uses eligible edges
                raise InternalCheckError(f"ordering edge {(i, ci)} was never allowed")
            chosen[ci] = ge.a_list[i], edge[1]

    # condition 3: every deficient component has a vertex whose deletion
    # leaves a unique perfect matching: where the ordering matched it, the one
    # its edge attaches to, any in a small component or an odd cycle, and
    # else the first whose verdict is not "no", testing those without one
    for ci, members in enumerate(ge.d_members):
        if ci not in chosen:
            h = members[0]
            if len(members) > 3 and not _odd_cycle(g, ge, ci):
                h = next((h for h, ok in zip(members, _d_local(g, ge, ci)[4])
                          if ok or ok is None and _unique_minus(g, ge, ci, h)), None)
                if h is None:
                    yield D_COMPONENT_NO_UNIQUE_PM_VERTEX
                    return
            chosen[ci] = -1, h


def some_ur(g: Graph, *, ge: GallaiEdmonds | None = None, all_failures: bool = False) -> RecognitionReport:
    """Decide whether some maximum matching of g is uniquely restricted.

    Condition 2 orders a maximum independent set of gb, and gb's component
    side is one, found with no matching of gb: by the structure theorem gb
    has positive surplus seen from A, so a maximum matching of gb leaves no
    A-vertex free, the alternating search from the free A-vertices reaches
    nothing, and the Koenig cover is A.

    A component minus a vertex is tested only where a condition reads the
    answer.  The ordering asks whether a gb edge is eligible (see
    ``allowed_edges``) only when it could use that edge, and each
    component it matches has a good vertex already, the one its edge
    attaches to; condition 3 scans only the components left unmatched, or
    all of them when the ordering failed.

    Yes-answers carry a witness, built as one mate array: ``ge.match``
    with A and its mates cleared, each D component flipped to its good
    vertex h where h is still matched (``_flip``), and each A-vertex
    paired with the vertex its ordering edge attaches to.
    """
    ge = _decomposed(g, ge)
    chosen: dict[int, tuple[int, int]] = {}
    report = _report("some_ur", _some_failures(g, ge, chosen), all_failures)
    if not report.answer:
        return report
    mate = list(ge.match)
    for a in ge.a_list:  # a maximum matching matches A into D
        mate[mate[a]] = mate[a] = -1
    ids, members = range(len(mate)), ge.d_members
    for ci, (a, h) in chosen.items():
        if len(members[ci]) > 3 and not _unique_minus(g, ge, ci, h):
            raise InternalCheckError(f"D component {ci} minus {h} has no unique perfect matching")
        if mate[h] != -1:
            _flip(ge, ci, h, mate, ids)
        if a != -1:
            mate[a], mate[h] = h, a
    return RecognitionReport("some_ur", True, _matching_from_array(g, mate), None, ())


def _every_failures(g: Graph, ge: GallaiEdmonds) -> Iterator[str]:
    """The tags of ``every_ur``'s four conditions that fail, in order."""
    if _c_failure(g, ge) is not None:
        yield C_COMPONENT_PM_NOT_UNIQUE
    # one block search over g's adjacency, kept inside D
    if not _odd_cycle_blocks(g.adj, [c >= 0 for c in ge.comp]):
        yield D_COMPONENT_BLOCKS_NOT_ODD_CYCLES
    # gb's two conditions off the attachments: gb, on V = |A| + #D vertices,
    # is cyclic if V > 0 and it has V edges or more, as a forest has fewer,
    # and else iff a union-find (path halving) over its edges joins joined ends
    k, att = len(ge.a_list), ge.attachments
    cyclic = len(att) >= k + ge.counts[0] > 0
    if not cyclic:
        root = list(range(k + ge.counts[0]))
        for x, y in att:
            y += k
            while root[x] != x:
                root[x] = x = root[root[x]]
            while root[y] != y:
                root[y] = y = root[root[y]]
            cyclic = cyclic or x == y
            root[x] = y
    if cyclic:
        yield GB_EVERY_MAX_MATCHING_NOT_UR
    if -1 in att.values():
        yield GB_EDGE_MULTIPLE_NEIGHBORS


def every_ur(g: Graph, *, ge: GallaiEdmonds | None = None, all_failures: bool = False) -> RecognitionReport:
    """Decide whether every maximum matching of g is uniquely restricted,
    through the Gallai-Edmonds decomposition, bipartite g too.

    By the Gallai-Edmonds structure theorem gb has positive surplus seen
    from A: every nonempty S of A-vertices has more than |S| component
    neighbors (true of any decomposition ``verify_gallai_edmonds``
    accepts).  Two consequences need no matching of gb.

    Every maximum matching of gb is uniquely restricted iff gb is a forest.
    A maximum matching M of gb matches all of A, so no A-vertex is free and
    V+ is empty.  By surplus every A-vertex reaches an unmatched component in
    D(M), and every matched component reaches one through its mate, so V-
    is all of gb.  "D(M) acyclic and V+, V- induce forests" is then "gb is
    a forest": a cycle of D(M) is a cycle of gb.

    The characterization constrains only gb edges that lie in some maximum
    matching of gb, and every gb edge lies in one: gb - a - H still matches
    all of A - a by Hall's condition.  The gb-edge condition is therefore
    that no A-vertex has two neighbors in one D component.  Both gb
    conditions are read off the attachments; gb is not built.  On a
    bipartite g every D component is a single vertex, so the D-block test
    passes and the answer rests on C and on gb being a forest.
    """
    return _report("every_ur", _every_failures(g, _decomposed(g, ge)), all_failures)


def every_ur_bipartite(g: Graph, sides, *, all_failures: bool = False) -> RecognitionReport:
    """``every_ur`` on g, once ``sides`` is checked to be a bipartition of
    it."""
    validate_bipartition(g, sides)
    return every_ur(g, all_failures=all_failures)
