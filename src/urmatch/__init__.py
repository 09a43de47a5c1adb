"""Uniquely restricted maximum matchings: recognition, certificates, oracles."""

from .accessibility import AccessibilityOrdering, find_e_good_ordering
from .decomposition import GallaiEdmonds, gallai_edmonds, verify_gallai_edmonds
from .graph_core import (
    Graph,
    bipartition,
    blocks_are_odd_cycles,
    connected_components,
    edge_key,
    induced_subgraph,
    is_forest,
)
from .matching import (
    Matching,
    edge_in_some_maximum_matching,
    max_independent_set_bipartite,
    maximum_matching,
    maximum_matching_bipartite,
    missable_vertices,
    unique_perfect_matching,
)
from .oracle import (
    GuardLimitError,
    MatchingEnumeration,
    enumerate_labeled_graphs,
    enumerate_matchings,
    oracle_every_ur,
    oracle_is_ur,
    oracle_some_ur,
)
from .recognition import (
    InternalCheckError,
    RecognitionReport,
    allowed_edges,
    every_ur,
    every_ur_bipartite,
    some_ur,
)
from .ur_core import (
    MatchingDigraph,
    build_matching_digraph,
    is_acyclic,
    is_uniquely_restricted,
)

__version__ = "0.1.0"

__all__ = [
    "AccessibilityOrdering",
    "GallaiEdmonds",
    "Graph",
    "GuardLimitError",
    "InternalCheckError",
    "Matching",
    "MatchingDigraph",
    "MatchingEnumeration",
    "RecognitionReport",
    "allowed_edges",
    "bipartition",
    "blocks_are_odd_cycles",
    "build_matching_digraph",
    "connected_components",
    "edge_in_some_maximum_matching",
    "edge_key",
    "enumerate_labeled_graphs",
    "enumerate_matchings",
    "every_ur",
    "every_ur_bipartite",
    "find_e_good_ordering",
    "gallai_edmonds",
    "induced_subgraph",
    "is_acyclic",
    "is_forest",
    "is_uniquely_restricted",
    "max_independent_set_bipartite",
    "maximum_matching",
    "maximum_matching_bipartite",
    "missable_vertices",
    "oracle_every_ur",
    "oracle_is_ur",
    "oracle_some_ur",
    "some_ur",
    "unique_perfect_matching",
    "verify_gallai_edmonds",
    "__version__",
]
