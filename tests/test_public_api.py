"""Export lists: every exported name exists, and the package re-exports
every public module's names, so a deleted name cannot linger in one."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import zigzags

PUBLIC_MODULES = sorted(
    m.name for m in pkgutil.iter_modules(zigzags.__path__) if not m.name.startswith("_")
)


def test_package_exports_resolve():
    assert len(set(zigzags.__all__)) == len(zigzags.__all__)
    missing = [name for name in zigzags.__all__ if not hasattr(zigzags, name)]
    assert missing == []


@pytest.mark.parametrize("name", PUBLIC_MODULES)
def test_module_exports_resolve_and_are_reexported(name):
    module = importlib.import_module(f"zigzags.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    if name == "cli":  # the command line's helpers stay in its own namespace
        return
    for n in module.__all__:
        assert n in zigzags.__all__, f"zigzags does not re-export {name}.{n}"
        assert getattr(zigzags, n) is getattr(module, n)


def test_public_modules_are_covered():
    assert PUBLIC_MODULES == [
        "cli", "engine", "eulerian", "generators", "surgery", "triangulation",
    ]


# adding or removing a public name means editing its module's __all__ and
# this list
PUBLIC_NAMES = [
    "BuildLog", "Classification", "DirectedEmbedding", "EmbeddingError", "FOUR_ZIGZAG",
    "GluingRecord", "GluingSite", "HOST", "InvariantError", "ParseError", "Pass",
    "SpecialPair", "SurgeryError", "TWO_ZIGZAG", "TreeError", "TreeSpec", "Triangulation",
    "TriangulationError", "ValidationReport", "ZOrientation", "Zigzag", "__version__",
    "all_z_orientations", "bipyramid", "bipyramid_canonical_zorientation",
    "check_compatibility", "classify", "edge_key", "enumerate_zigzags",
    "extract_directed_embedding", "face_key", "face_shadow", "find_piece_pairs",
    "find_special_pairs", "glue", "is_homogeneous", "is_z_knotted", "make_pass",
    "make_z_orientation", "parse_embedding", "parse_tree", "parse_triangulation", "plan_gluing",
    "platonic", "predict_glued_zigzag", "resolve_site", "round_trip_check",
    "serialize_embedding", "serialize_triangulation", "tree_build",
    "triangulate_embedding", "validate_embedding", "validate_tree", "zigzag_successor",
]


def test_public_names_are_pinned():
    assert sorted(zigzags.__all__) == PUBLIC_NAMES
