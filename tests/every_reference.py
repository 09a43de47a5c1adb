"""The object routes of the every-decider's bipartite and D-block tests,
and the bipartite matcher the library once ran.

The bipartite test once ran on objects: a ``Matching`` of
``maximum_matching_bipartite``, the digraph D(M) of
``build_matching_digraph``, ``is_acyclic`` on it, and one induced ``Graph``
per reachability closure for ``is_forest``.  The D-block test built one
induced graph per D component and read its blocks.  The library now runs
both on arrays and masks over the host graph's own adjacency
(``recognition._every_bipartite``, ``graph_core._odd_cycle_blocks``).  The
object routes live on here, so that tests can hold the array cores to
them.  The closures are grown here by a search of their own over D(M)'s
lists, and the blocks are read off networkx, so neither reference shares
that step with the cores it checks.

The D-block test and the Kotzig peel's bridge step once read the block
lists of an edge-stack search (``graph_core._blocks``): every block an odd
cycle iff it has as many edges as vertices and an odd number of them, and
a matched bridge is a one-edge block whose edge is matched.  The library
now runs one depth-first search for each (``graph_core._odd_cycle_blocks``,
``matching._matched_bridges``); the block-list forms live on here.

The bipartite every-test once took its M from Hopcroft-Karp (Hopcroft &
Karp 1973, ``_hopcroft_karp``), and now takes the library's one matcher's.
The characterization holds whichever maximum matching M is, so a test
runs the bipartite test on both and compares the answers.
"""

from __future__ import annotations

from collections import deque

import networkx as nx

from urmatch.graph_core import Graph, _blocks, induced_subgraph, is_forest
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


def _hopcroft_karp(adj, a_list) -> list[int]:
    """The mate array (-1 for a free vertex) of a maximum matching of the
    bipartite graph ``adj`` whose side A is ``a_list``, ascending: phases of
    one BFS layering from the free A vertices and one DFS from each."""
    n = len(adj)
    mate = [-1] * n
    inf = n + 1
    dist = [inf] * n

    def bfs() -> bool:
        queue = deque()
        for a in a_list:
            if mate[a] == -1:
                dist[a] = 0
                queue.append(a)
            else:
                dist[a] = inf
        found = inf
        while queue:
            a = queue.popleft()
            if dist[a] < found:
                for b in adj[a]:
                    nxt = mate[b]
                    if nxt == -1:
                        found = dist[a] + 1
                    elif dist[nxt] == inf:
                        dist[nxt] = dist[a] + 1
                        queue.append(nxt)
        return found != inf

    def try_augment(root: int) -> bool:
        frames = [(root, iter(adj[root]))]
        pending: list[tuple[int, int]] = []
        while frames:
            a, it = frames[-1]
            moved = False
            for b in it:
                nxt = mate[b]
                if nxt == -1:
                    mate[a] = b
                    mate[b] = a
                    for pa, pb in pending:
                        mate[pa] = pb
                        mate[pb] = pa
                    return True
                if dist[nxt] == dist[a] + 1:
                    pending.append((a, b))
                    frames.append((nxt, iter(adj[nxt])))
                    moved = True
                    break
            if moved:
                continue
            dist[a] = inf
            frames.pop()
            if frames:
                pending.pop()
        return False

    while bfs():
        for a in a_list:
            if mate[a] == -1:
                try_augment(a)
    return mate
