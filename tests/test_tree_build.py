"""Building z-knotted spheres from labeled trees."""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import zigzags
from helpers import random_tree_spec
from zigzags import (
    BuildLog,
    GluingRecord,
    SpecialPair,
    TreeError,
    TreeSpec,
    bipyramid,
    bipyramid_canonical_zorientation,
    classify,
    edge_key,
    glue,
    is_homogeneous,
    is_z_knotted,
    plan_gluing,
    serialize_tree,
    tree_build,
    validate_tree,
)

TWO_CHILD = TreeSpec((("r", 5), ("x", 4), ("y", 6)), (("r", "x"), ("r", "y")))
SINGLE = TreeSpec((("solo", 7),), ())
CHAIN = TreeSpec((("r", 5), ("a", 4), ("b", 4)), (("r", "a"), ("a", "b")))
RUNNING = TreeSpec(
    (("r", 7), ("a", 4), ("b", 6), ("c", 4)),
    (("r", "a"), ("r", "b"), ("b", "c")),
)


def test_two_child_example():
    t, tau, log = tree_build(TWO_CHILD)
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
    t, tau, log = tree_build(SINGLE)
    assert len(t.vertices) == 9
    assert len(tau.zigzags) == 1
    assert str(log) == "no gluings (single-node tree)"
    assert all(v.startswith("nodesolo.") for v in t.vertices)


def test_chain_renames_grandchild_host_pair():
    # gluing b into a must use a's base vertices under their post-glue names
    t, tau, log = tree_build(CHAIN)
    assert (len(t.vertices), len(t.edges), len(t.faces)) == (15, 39, 26)
    assert len(classify(t, tau).type_i_vertices) == 6
    second = log.records[1]
    assert (second.parent, second.child) == ("a", "b")
    # a's pair slot (3, 4, 5 mod 4 = 1) wraps around its base cycle, and
    # vertices 1 and 3 of node a were renamed into r's namespace
    host_edges = {second.host_pair.e1, second.host_pair.e2}
    assert host_edges == {("nodea.4", "noder.1"), ("nodea.4", "noder.3")}


def test_record_counts_are_running_totals():
    t, tau, log = tree_build(RUNNING)
    assert [r.child for r in log.records] == ["a", "b", "c"]
    sizes = [(r.vertices, r.edges, r.faces, r.zigzag_length) for r in log.records]
    assert sizes == sorted(sizes)
    last = log.records[-1]
    assert (last.vertices, last.edges, last.faces) == (
        len(t.vertices), len(t.edges), len(t.faces),
    )
    assert last.zigzag_length == len(tau.chosen[0])


def test_build_is_deterministic():
    first = tree_build(TWO_CHILD)
    second = tree_build(TWO_CHILD)
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


def public_gluing_build(spec: TreeSpec):
    """tree_build's loop folded through the public bipyramid,
    bipyramid_canonical_zorientation, classify, plan_gluing and glue, each
    step classifying its host afresh: the reference for a build that passes
    each glue's classification on to the next step."""
    labels, adj, root = spec.labels, spec.adjacency(), spec.root
    prefix = {i: f"node{i}." for i in labels}
    t = bipyramid(labels[root], prefix[root])
    tau = bipyramid_canonical_zorientation(labels[root], prefix[root])
    names, cursor, records = {}, {root: 1}, []

    def token(node, i):
        i = (i - 1) % labels[node] + 1
        return names.get(node, {}).get(i, f"{prefix[node]}{i}")

    def base_pair(node, i):
        return SpecialPair(
            edge_key(token(node, i), token(node, i + 1)),
            edge_key(token(node, i + 1), token(node, i + 2)),
            token(node, i + 1),
        )

    parent_of, queue = {root: None}, [root]
    while queue:
        u = queue.pop(0)
        for c in sorted(w for w in adj[u] if w != parent_of[u]):
            parent_of[c] = u
            host_pair = base_pair(u, cursor[u])
            cursor[u] += 2
            piece = bipyramid(labels[c], prefix[c])
            piece_tau = bipyramid_canonical_zorientation(labels[c], prefix[c])
            host_site, piece_site = plan_gluing(
                classify(t, tau), host_pair, classify(piece, piece_tau),
                [base_pair(c, j) for j in range(1, labels[c] + 1)],
            )
            glued = glue(host_site, piece_site)
            t, tau = glued.triangulation, glued.orientation
            cut = len(prefix[c])
            names[c] = {
                int(piece_site.v1[cut:]): host_site.v1,
                int(piece_site.v2[cut:]): host_site.v2,
            }
            cursor[c] = int(piece_site.v[cut:]) + 1
            records.append(GluingRecord(
                u, c, host_site.pair, piece_site.pair, piece_site.kind,
                len(t.vertices), len(t.edges), len(t.faces), len(tau.chosen[0]),
            ))
            queue.append(c)
    return t, tau, BuildLog(tuple(records))


def test_build_matches_the_public_gluing_fold(tree_corpus):
    hand_written = [(spec, *tree_build(spec)) for spec in (TWO_CHILD, SINGLE, CHAIN, RUNNING)]
    for spec, t, tau, log in hand_written + tree_corpus:
        ref_t, ref_tau, ref_log = public_gluing_build(spec)
        assert t.faces == ref_t.faces
        assert tau.bits == ref_tau.bits
        assert tau.chosen[0].passes == ref_tau.chosen[0].passes
        assert str(log) == str(ref_log)


def test_glue_checks_run_under_python_O():
    # the glue verification raises InvariantError explicitly, so a wrong
    # prediction or a broken splice is caught even where asserts are
    # compiled away
    script = textwrap.dedent(f"""
        import zigzags.surgery as surgery
        from zigzags import InvariantError, TreeSpec, tree_build

        if __debug__:
            raise SystemExit("this check must run under python -O")
        spec = TreeSpec({TWO_CHILD.nodes!r}, {TWO_CHILD.edges!r})
        print(len(tree_build(spec)[0].faces))
        # predict the host's own zigzag, which the glued one never is
        predicted = surgery._predicted
        surgery._predicted = lambda host_site, *rest: (
            host_site.classification.orientation.chosen[0]
        )
        try:
            tree_build(spec)
        except InvariantError as exc:
            print(exc)
        surgery._predicted = predicted
        # leave the piece's v1, v2 unrenamed, which opens the glued surface
        namers = surgery._namers
        surgery._namers = lambda host_site, piece_site, split: (
            namers(host_site, piece_site, split)[0], surgery._namer(piece_site, split, {{}})
        )
        try:
            tree_build(spec)
        except InvariantError as exc:
            print(str(exc).splitlines()[0])
    """)
    src = str(Path(zigzags.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "30",
        "zigzag has 30 passes, not 2E = 54",
        "glued face list is no closed surface: edge noder.1-noder.2+ lies in 1 face(s), expected 2",
    ]


_NOT_SPECIAL = textwrap.dedent(f"""
    from zigzags import (
        SpecialPair, TreeSpec, bipyramid, bipyramid_canonical_zorientation, classify,
        find_piece_pairs, glue, inherited_pairs, plan_gluing, tree_build,
    )

    host = classify(*tree_build(TreeSpec({TWO_CHILD.nodes!r}, {TWO_CHILD.edges!r}))[:2])
    piece = classify(bipyramid(4, "P."), bipyramid_canonical_zorientation(4, "P."))
    pair = SpecialPair(("noder.1", "nodex.4"), ("noder.1", "noder.2+"), "noder.1")
    host_site, piece_site = plan_gluing(host, pair, piece, find_piece_pairs(piece))
    # its edges lie in the surviving segments, but on both sides of the split
    bad = SpecialPair(("noder.1", "noder.5"), ("noder.1", "nodex.b"), "noder.1")
    inherited_pairs(glue(host_site, piece_site), host_site, piece_site, host_pairs=[bad])
""")


def test_inherited_pairs_name_a_pair_that_is_not_special():
    message = (
        "pair ('noder.1', 'noder.5')/('noder.1', 'nodex.b') at 'noder.1' lies in the "
        "surviving segments but is no special pair of the glued zigzag"
    )
    with pytest.raises(zigzags.SurgeryError) as caught:
        exec(_NOT_SPECIAL, {})
    assert str(caught.value) == message
    script = 'if __debug__:\n    raise SystemExit("this check must run under python -O")\n'
    script += _NOT_SPECIAL
    src = str(Path(zigzags.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert run.returncode == 1
    assert run.stderr.splitlines()[-1] == f"zigzags.surgery.SurgeryError: {message}"
