"""Building z-knotted spheres from labeled trees."""

from __future__ import annotations

import hashlib
import random

import pytest

from helpers import random_tree_spec
from zigzags import (
    TreeError,
    TreeSpec,
    classify,
    is_homogeneous,
    is_z_knotted,
    serialize_tree,
    tree_build,
    validate_tree,
)


def test_two_child_example():
    spec = TreeSpec((("r", 5), ("x", 4), ("y", 6)), (("r", "x"), ("r", "y")))
    t, tau, log = tree_build(spec)
    assert (len(t.vertices), len(t.edges), len(t.faces)) == (17, 45, 30)
    assert t.euler_characteristic() == 2
    assert len(tau.zigzags) == 1
    assert len(tau.chosen[0]) == 90
    assert is_homogeneous(t, tau)
    assert len(classify(t, tau).type_i_vertices) == 6
    assert len(log.records) == 2
    assert str(log.records[0]) == (
        "glued node x into r at ('noder.2', 'noder.3')/('noder.1', 'noder.2') "
        "(four_zigzag_piece): V=11 E=27 F=18 zigzag=54"
    )
    assert str(log) == "\n".join(str(r) for r in log.records)


def test_single_node():
    t, tau, log = tree_build(TreeSpec((("solo", 7),), ()))
    assert len(t.vertices) == 9
    assert len(tau.zigzags) == 1
    assert str(log) == "no gluings (single-node tree)"
    assert all(v.startswith("nodesolo.") for v in t.vertices)


def test_chain_renames_grandchild_host_pair():
    # gluing b into a must use a's base vertices under their post-glue names
    spec = TreeSpec((("r", 5), ("a", 4), ("b", 4)), (("r", "a"), ("a", "b")))
    t, tau, log = tree_build(spec)
    assert (len(t.vertices), len(t.edges), len(t.faces)) == (15, 39, 26)
    assert len(classify(t, tau).type_i_vertices) == 6
    second = log.records[1]
    assert (second.parent, second.child) == ("a", "b")
    # a's pair slot (3, 4, 5 mod 4 = 1) wraps around its base cycle, and
    # vertices 1 and 3 of node a were renamed into r's namespace
    host_edges = {second.host_pair.e1, second.host_pair.e2}
    assert host_edges == {("nodea.4", "noder.1"), ("nodea.4", "noder.3")}


def test_record_counts_are_running_totals():
    spec = TreeSpec(
        (("r", 7), ("a", 4), ("b", 6), ("c", 4)),
        (("r", "a"), ("r", "b"), ("b", "c")),
    )
    t, tau, log = tree_build(spec)
    assert [r.child for r in log.records] == ["a", "b", "c"]
    sizes = [(r.vertices, r.edges, r.faces, r.zigzag_length) for r in log.records]
    assert sizes == sorted(sizes)
    last = log.records[-1]
    assert (last.vertices, last.edges, last.faces) == (
        len(t.vertices), len(t.edges), len(t.faces),
    )
    assert last.zigzag_length == len(tau.chosen[0])


def test_build_is_deterministic():
    spec = TreeSpec((("r", 5), ("x", 4), ("y", 6)), (("r", "x"), ("r", "y")))
    first = tree_build(spec)
    second = tree_build(spec)
    assert first[0] == second[0]
    assert first[1].bits == second[1].bits
    assert str(first[2]) == str(second[2])


def test_rejects_invalid_specs():
    with pytest.raises(TreeError):
        tree_build(TreeSpec((("r", 4),), ()))  # even root
    with pytest.raises(TreeError):
        tree_build(TreeSpec((("r", 5), ("x", 2)), (("r", "x"),)))  # leaf label 2
    with pytest.raises(TreeError):
        # root label 3 allows one gluing slot but has two children
        tree_build(TreeSpec((("r", 3), ("x", 4), ("y", 4)), (("r", "x"), ("r", "y"))))


def test_size_laws_over_random_corpus(tree_corpus):
    # every build is a z-knotted homogeneous sphere whose size is linear
    # in the label total
    for spec, t, tau, log in tree_corpus:
        total = sum(spec.labels.values())
        assert len(t.vertices) == total + 2
        assert len(t.edges) == 3 * total
        assert len(t.faces) == 2 * total
        assert t.euler_characteristic() == 2
        assert is_z_knotted(t)
        assert len(tau.chosen[0]) == 6 * total
        assert is_homogeneous(t, tau)
        assert len(classify(t, tau).type_i_vertices) == 2 * len(spec.nodes)
        assert len(log.records) == len(spec.nodes) - 1


def test_random_tree_spec_handles_high_degrees():
    # a node may have more neighbours than the default label cap allows
    for seed in range(300):
        spec = random_tree_spec(random.Random(seed), max_nodes=30)
        assert validate_tree(spec).ok, seed


def test_random_tree_spec_keeps_the_corpus(tree_corpus):
    # raising the label cap only where a degree needs it leaves every draw
    # that fit under the cap unchanged, so the corpus is the one its seed
    # has always given
    text = "".join(serialize_tree(spec) for spec, *_ in tree_corpus)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "91dcfce34e3cc1e1"
