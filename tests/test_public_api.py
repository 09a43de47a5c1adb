"""The public API is pinned: adding or removing a name shows up as a diff here."""

import ast
import sys
from dataclasses import MISSING, fields
from functools import cached_property
from pathlib import Path

import urmatch
from urmatch.decomposition import GallaiEdmonds

PUBLIC = [
    "AccessibilityOrdering",
    "GallaiEdmonds",
    "Graph",
    "GuardLimitError",
    "InternalCheckError",
    "Matching",
    "MatchingDigraph",
    "MatchingEnumeration",
    "RecognitionReport",
    "__version__",
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
]


def test_public_names_are_pinned():
    assert sorted(urmatch.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in urmatch.__all__:
        assert getattr(urmatch, name) is not None


def test_decomposition_fields_and_views_are_pinned():
    # the component array and what the deciders need beside it, and the
    # views the deciders read, each built on first read
    assert [f.name for f in fields(GallaiEdmonds)] == ["comp", "adj", "match", "parent", "forced", "upms"]
    # the certificate is mandatory: the verifier checks it and runs no matcher
    assert [f.name for f in fields(GallaiEdmonds) if f.default is MISSING and f.default_factory is MISSING] \
        == ["comp", "adj", "match", "parent", "forced"]
    views = {name for name, attr in vars(GallaiEdmonds).items() if isinstance(attr, cached_property)}
    assert views == {"a_list", "counts", "d_members", "c_members", "attachments"}


def test_library_imports_only_the_standard_library():
    # urmatch has no runtime dependencies: every import of the package is
    # relative or names a module of Python's standard library
    found = []
    for path in sorted(Path(urmatch.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}:{name}" for name in names
                      if name.partition(".")[0] not in sys.stdlib_module_names]
    assert found == []
