"""The oracle gate on 8 vertices, by graphs up to isomorphism.

networkx's Atlas of Graphs holds all 1044 graphs on exactly 7 vertices.
Every graph on 8 vertices minus its vertex 7 is isomorphic to one of them,
so their 1044 x 2^7 one-vertex extensions cover every graph on 8 vertices.
This slice takes 16 seeded atlas graphs with all 128 extensions each, plus
one seeded relabelling of each extension, since the deciders break ties by
vertex id.  One enumeration of the maximum matchings answers both
properties; ``max_m`` is raised to 28, as the default guard refuses graphs
with 25 to 28 edges.

The full gate takes all 1044 atlas graphs, so it meets every graph on 8
vertices, the bipartite ones too, in some labelling.  It takes minutes and
runs only when the environment sets ``URMATCH_FULL_GATE=1``:

    URMATCH_FULL_GATE=1 PYTHONPATH=src python -m pytest -q tests/test_atlas.py
"""

import os
import random

import networkx as nx
import pytest

from urmatch.graph_core import Graph
from urmatch.oracle import _maximum_ur_profile, oracle_is_ur
from urmatch.recognition import every_ur, some_ur

N, MAX_M = 8, 28
SEVEN = [h for h in nx.graph_atlas_g() if h.number_of_nodes() == 7]
PICKS = sorted(random.Random(8).sample(range(len(SEVEN)), 16))


def _extensions(index):
    """Each one-vertex extension of atlas graph ``index``, and a seeded
    relabelling of it."""
    base = list(SEVEN[index].edges())
    rng = random.Random(index)
    for mask in range(1 << 7):
        edges = base + [(v, 7) for v in range(7) if mask >> v & 1]
        perm = list(range(N))
        rng.shuffle(perm)
        yield Graph.from_edges(N, edges)
        yield Graph.from_edges(N, [(perm[u], perm[v]) for u, v in edges])


def test_the_atlas_has_every_seven_vertex_graph():
    assert len(SEVEN) == 1044 and len(set(PICKS)) == 16


def _check_extensions(index):
    for g in _extensions(index):
        some_want, every_want = _maximum_ur_profile(g, N, MAX_M)
        some = some_ur(g)
        every = every_ur(g)
        assert (some.answer, every.answer) == (some_want, every_want), sorted(g.edges)
        if some.answer:
            h = nx.Graph(list(g.edges))
            assert len(some.witness) == len(nx.max_weight_matching(h, maxcardinality=True))
            assert oracle_is_ur(g, some.witness, max_n=N, max_m=MAX_M)


@pytest.mark.parametrize("index", PICKS)
def test_deciders_equal_the_oracle_on_one_vertex_extensions(index):
    _check_extensions(index)


@pytest.mark.skipif(os.environ.get("URMATCH_FULL_GATE") != "1",
                    reason="the full 8-vertex gate takes minutes; set URMATCH_FULL_GATE=1")
def test_deciders_equal_the_oracle_on_every_graph_on_eight_vertices():
    for index in range(len(SEVEN)):
        _check_extensions(index)
