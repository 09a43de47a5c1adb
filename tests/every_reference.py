"""The object routes of the every-decider's bipartite and D-block tests.

The bipartite test once ran on objects: a ``Matching`` from Hopcroft-Karp,
the digraph D(M) of ``build_matching_digraph``, ``is_acyclic`` on it, and
one induced ``Graph`` per reachability closure for ``is_forest``.  The
D-block test built one induced graph per D component and read its blocks.
The library now runs both on arrays and masks over the host graph's own
adjacency (``recognition._every_bipartite``, ``graph_core._odd_cycle_blocks``).
The object routes live on here, so that tests can hold the array cores to
them.  The closures are grown here by a search of their own over D(M)'s
lists, and the blocks are read off networkx, so neither reference shares
that step with the cores it checks.
"""

from __future__ import annotations

import networkx as nx

from urmatch.graph_core import Graph, induced_subgraph, is_forest
from urmatch.matching import maximum_matching_bipartite
from urmatch.recognition import GB_DIGRAPH_CYCLIC, V_MINUS_NOT_FOREST, V_PLUS_NOT_FOREST
from urmatch.ur_core import build_matching_digraph, is_acyclic


def closure(lists, sources) -> frozenset[int]:
    """Everything reachable from ``sources`` along ``lists``, sources included."""
    seen = set(sources)
    stack = list(seen)
    while stack:
        for w in lists[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return frozenset(seen)


def every_bipartite_by_objects(g: Graph, sides, all_failures: bool = False) -> list[str]:
    """The failure tags of the bipartite every-test, by the object route."""
    md = build_matching_digraph(g, sides, maximum_matching_bipartite(g, sides))
    failures = []
    if not is_acyclic(md.succ):
        failures.append(GB_DIGRAPH_CYCLIC)
        if not all_failures:
            return failures
    for tag, lists, sources in ((V_PLUS_NOT_FOREST, md.succ, md.a0),
                                (V_MINUS_NOT_FOREST, md.pred, md.b0)):
        if not is_forest(induced_subgraph(g, closure(lists, sources))[0]):
            failures.append(tag)
            if not all_failures:
                return failures
    return failures


def blocks_odd_by_networkx(g: Graph, comp) -> bool:
    """Whether every block of g[comp] is an odd cycle, from networkx's
    biconnected components: a block is a cycle iff it has as many edges as
    vertices."""
    sub, _ = induced_subgraph(g, comp)
    h = nx.Graph()
    h.add_nodes_from(range(sub.n))
    h.add_edges_from(sub.edges)
    for edges in nx.biconnected_component_edges(h):
        verts = {x for e in edges for x in e}
        if len(edges) != len(verts) or len(edges) % 2 == 0:
            return False
    return True
