"""The object route of the bipartite every-test that the library once ran,
and the block-list forms of the D-block test and of the peel's bridge step.

On bipartite g the library once decided ``every_ur`` by the D(M) test of
Golumbic, Hirst & Lewenstein (Algorithmica 2001): every maximum matching
is uniquely restricted iff D(M) is acyclic and its closures V+ and V-
induce forests, whichever maximum matching M is.  It first ran on objects:
a ``Matching`` of ``maximum_matching_bipartite``, the digraph D(M) of
``build_matching_digraph``, ``is_acyclic`` on it, and one induced
``Graph`` per reachability closure for ``is_forest``; later on arrays and
masks over g's adjacency.  ``every_ur`` now decides bipartite g through the
Gallai-Edmonds conditions, as every other graph, and the object route lives
on here, with its three failure tags, as an independent reference for the
answer.  The closures are grown here by a search of their own over D(M)'s
lists.

The D-block test built one induced graph per D component and read its
blocks; the blocks are read off networkx here.  It and the Kotzig peel's
bridge step once read the block lists of an edge-stack search
(``graph_core._blocks``): every block an odd cycle iff it has as many
edges as vertices and an odd number of them, and a matched bridge is a
one-edge block whose edge is matched.  One depth-first search does each
(``graph_core._odd_cycle_blocks`` in the library, and the Kotzig peel's
``peel_reference._matched_bridges`` on the test side); the block-list
forms live on here.
"""

from __future__ import annotations

import networkx as nx

from urmatch.graph_core import Graph, _blocks, induced_subgraph, is_forest
from urmatch.matching import maximum_matching_bipartite
from urmatch.ur_core import build_matching_digraph, is_acyclic

GB_DIGRAPH_CYCLIC = "gb_digraph_cyclic"
V_PLUS_NOT_FOREST = "v_plus_not_forest"
V_MINUS_NOT_FOREST = "v_minus_not_forest"


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


def odd_cycle_blocks_by_blocks(adj, keep) -> bool:
    """Whether every block of the subgraph of ``adj`` induced by ``keep``
    is an odd cycle, read off its block lists: a block is a cycle iff it
    has as many edges as vertices, and a bridge never is."""
    for block in _blocks(adj, keep):
        if len(block) % 2 == 0 or len(block) != len({x for e in block for x in e}):
            return False
    return True


def matched_bridges_by_blocks(adj, match, alive) -> list[int]:
    """The matched one-edge blocks of the subgraph of ``adj`` induced by
    ``alive``, each given by the end the search reached last, in the order
    the search finishes them."""
    return [v for b in _blocks(adj, alive) if len(b) == 1 for p, v in b if match[v] == p]
