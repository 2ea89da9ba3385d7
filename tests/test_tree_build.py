"""Building z-knotted spheres from labeled trees."""

from __future__ import annotations

import dataclasses
import hashlib
import os
import random
import subprocess
import sys
import textwrap
from itertools import product
from pathlib import Path

import pytest

import zigzag_oracle as oracle
import zigzags
import zigzags.engine as engine
import zigzags.generators as generators
import zigzags.surgery as surgery
from helpers import clear_templates, public_gluing_build, random_tree_spec, with_plan
from zigzags import (
    InvariantError,
    TreeError,
    TreeSpec,
    Triangulation,
    classify,
    enumerate_zigzags,
    is_homogeneous,
    is_z_knotted,
    make_pass,
    serialize_triangulation,
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
    # malformed specs fail in the constructor, before any build
    with pytest.raises(TreeError, match=r"edge \('r',\) does not join two nodes"):
        TreeSpec((("r", 5), ("x", 4)), (("r",),))
    with pytest.raises(TreeError, match=r"node \('r', 'x'\) is not an \(id string, integer"):
        TreeSpec((("r", "x"),), ())
    with pytest.raises(TreeError, match=r"node \('x', 4.0\) is not an \(id string, integer"):
        TreeSpec((("r", 5), ("x", 4.0)), (("r", "x"),))
    with pytest.raises(TreeError, match=r"node \(1, 5\) is not an \(id string, integer"):
        TreeSpec(((1, 5),), ())


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


def _rooted_shapes(n: int) -> set[tuple]:
    """Every rooted tree shape on n nodes, as the sorted tuple of its root's
    subtrees: each recursive tree (node i's parent < i) read off once."""

    def shape(parents, node):
        return tuple(sorted(shape(parents, c) for c, p in enumerate(parents, 1) if p == node))

    return {shape(ps, 0) for ps in product(*(range(i) for i in range(1, n)))}


def small_tree_specs(max_nodes: int, max_label: int = 6) -> list[TreeSpec]:
    """Every spec on a rooted tree shape of at most max_nodes nodes under
    every valid labelling with labels of at most max_label: the root odd
    from 3, each other node even from 4, each node's label allowing its
    degree."""
    specs = []
    for n in range(1, max_nodes + 1):
        for root in sorted(_rooted_shapes(n)):
            degrees, edges = [len(root)], []
            stack = [(root, 0)]
            while stack:
                subtree, node = stack.pop()
                for child in subtree:
                    edges.append((f"n{node}", f"n{len(degrees)}"))
                    stack.append((child, len(degrees)))
                    degrees.append(len(child) + 1)
            roots, others = range(3, max_label + 1, 2), range(4, max_label + 1, 2)
            choices = [[lab for lab in roots if (lab - 1) // 2 >= degrees[0]]]
            choices += [[lab for lab in others if lab // 2 >= d] for d in degrees[1:]]
            for labels in product(*choices):
                nodes = tuple((f"n{i}", lab) for i, lab in enumerate(labels))
                specs.append(TreeSpec(nodes, tuple(edges)))
    return specs


def test_every_small_tree_builds_the_theorem_sphere():
    # the tree theorem at small sizes, checked by a fresh analysis: one
    # zigzag, a homogeneous orientation, two type-I vertices per node, and
    # V, E, F the sums over the nodes' bipyramids less the glued vertices.
    # Every tree of at most 5 nodes with labels of at most 6, and a fixed
    # sample of those of at most 6 nodes with labels of at most 8, whose
    # BP(8) pieces hold the most cells off the seam
    specs = small_tree_specs(5)
    assert len(specs) == 154
    larger = small_tree_specs(6, 8)
    assert len(larger) == 7671
    for spec in specs + random.Random(0).sample(larger, 300):
        t, tau, _ = tree_build(spec)
        fresh = Triangulation(t.faces)
        (zigzag,) = enumerate_zigzags(fresh)
        assert zigzag == tau.chosen[0].canonical()
        cls = classify(fresh, tau)
        assert cls.homogeneous
        assert len(cls.type_i_vertices) == 2 * len(spec.nodes)
        labels = spec.labels.values()
        glued = 2 * (len(spec.nodes) - 1)
        assert len(fresh.vertices) == sum(n + 2 for n in labels) - glued
        assert len(fresh.edges) == sum(3 * n for n in labels)
        assert len(fresh.faces) == sum(2 * n for n in labels)


def test_small_tree_builds_match_the_oracle():
    # the brute-force walker finds one zigzag passing every edge twice
    specs = small_tree_specs(4)
    assert len(specs) == 50
    for spec in specs:
        t = tree_build(spec)[0]
        assert oracle.census(t.faces) == [2 * len(t.edges)]


def test_random_tree_spec_handles_high_degrees():
    # a node may have more neighbours than the default label cap allows
    for seed in range(300):
        spec = random_tree_spec(random.Random(seed), max_nodes=30)
        assert validate_tree(spec).ok, seed


def test_random_tree_spec_keeps_the_corpus(tree_corpus):
    # raising the label cap only where a degree needs it leaves every draw
    # that fit under the cap unchanged, so the corpus is the one its seed
    # has always given
    def tree_text(spec):
        lines = [f"n {i} {lab}" for i, lab in spec.nodes]
        return "\n".join(lines + [f"a {u} {w}" for u, w in spec.edges]) + "\n"

    text = "".join(tree_text(spec) for spec, *_ in tree_corpus)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "91dcfce34e3cc1e1"


def test_build_matches_the_public_gluing_fold(tree_corpus):
    hand_written = [(spec, *tree_build(spec)) for spec in (TWO_CHILD, SINGLE, CHAIN, RUNNING)]
    for spec, t, tau, log in hand_written + tree_corpus:
        ref_t, ref_tau, ref_log = public_gluing_build(spec)
        assert t.faces == ref_t.faces
        assert tau.bits == ref_tau.bits
        assert tau.chosen[0].passes == ref_tau.chosen[0].passes
        assert str(log) == str(ref_log)


def _numbered(n: int) -> list[str]:
    return [f"{i:03d}" for i in range(n)]


def path_tree(n: int) -> TreeSpec:
    """A root labelled 3, then a chain of n - 1 nodes labelled 4."""
    ids = _numbered(n)
    return TreeSpec(tuple((i, 3 if i == ids[0] else 4) for i in ids), tuple(zip(ids, ids[1:])))


def star_tree(n: int) -> TreeSpec:
    """A root labelled 2(n - 1) + 1 with n - 1 leaves labelled 4."""
    root, *leaves = _numbered(n)
    nodes = ((root, 2 * (n - 1) + 1), *((i, 4) for i in leaves))
    return TreeSpec(nodes, tuple((root, i) for i in leaves))


# sha256 of build_digest's record: any change to a build's faces, bits,
# zigzag or log changes it
PINNED_BUILDS = {
    (path_tree, 40): "a142f589a16ca0906a2c9b7d95eb4772dcdd5306aa4a6df796dbcec7639e1351",
    (path_tree, 80): "5cf3cb95c788852d045b20a40431c9e3268cce93e556d7a3e2388efa3c30c23f",
    (path_tree, 160): "1b3b927794eb8ca0da4c05962bad069083bca680427c0a5535b7e8affcd5a29b",
    (star_tree, 40): "ed6222f9698ef56d4723031f5acd4f55042baccb5a803fe7af567254e7640414",
    (star_tree, 80): "c59ce26c0724e474a279789279e748941a6e343095b51aae77ded73eb093f4b1",
    (star_tree, 160): "f8e9f6ee17b4006d31f55b3b2e3476833a2b988b87296bed19103d6c0a841f27",
}


def build_digest(spec: TreeSpec) -> str:
    t, tau, log = tree_build(spec)
    record = (serialize_triangulation(t), "".join(map(str, tau.bits)), str(log), str(tau.chosen[0]))
    return hashlib.sha256(repr(record).encode()).hexdigest()


@pytest.mark.parametrize("shape, n", PINNED_BUILDS)
def test_builds_match_their_pinned_digests(shape, n):
    assert build_digest(shape(n)) == PINNED_BUILDS[shape, n]


def test_pinned_builds_hold_in_reverse_order_in_a_fresh_process():
    # the bipyramid templates every build shares fill in the order builds
    # need them: built last to first in a new process, each pinned build
    # keeps its digest
    script = textwrap.dedent("""
        import test_tree_build as pinned

        for shape, n in reversed(list(pinned.PINNED_BUILDS)):
            print(pinned.build_digest(shape(n)) == pinned.PINNED_BUILDS[shape, n])
    """)
    paths = (Path(zigzags.__file__).resolve().parents[1], Path(__file__).resolve().parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, paths))}
    run = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["True"] * len(PINNED_BUILDS)


def test_a_failed_glue_leaves_the_next_build_as_it_was(monkeypatch):
    # a build whose last glue fails its checks, a piece face dropped as in
    # the test below, leaves the shared templates it filled as a good build
    # would
    before = build_digest(RUNNING)
    clear_templates()
    glue = surgery._Surface.glue

    def dropping_glue(self, cut, piece_site, what, prefix):
        # the last glue splices its shared piece site through a copy whose
        # plan lacks the last face
        if what == "glued node c into b":
            piece_site = with_plan(piece_site, lambda plan: plan._replace(faces=plan.faces[:-1]))
        return glue(self, cut, piece_site, what, prefix)

    monkeypatch.setattr(surgery._Surface, "glue", dropping_glue)
    with pytest.raises(InvariantError, match="^glued node c into b: "):
        tree_build(RUNNING)
    monkeypatch.undo()
    assert build_digest(RUNNING) == before


def test_a_large_root_leaves_no_template_over_the_bound(monkeypatch):
    # a root of more faces than the kept templates may hold is analysed
    # for its build and dropped; the pieces' templates stay.  Each surface
    # analysed builds one corner table, for its own walk: the root's and
    # each piece's enumeration, then the built surface's audit
    clear_templates()
    built = []
    table = engine._corner_table
    monkeypatch.setattr(engine, "_corner_table", lambda edge_faces: built.append(edge_faces) or table(edge_faces))
    big = generators._TEMPLATE_FACES // 2 + 1
    spec = TreeSpec((("r", big | 1), ("x", 4), ("y", 6)), (("r", "x"), ("r", "y")))
    t = tree_build(spec)[0]
    assert is_z_knotted(t)
    assert sorted(generators._templates) == [4, 6]
    pieces = [cls.triangulation._edge_faces for cls, _ in generators._templates.values()]
    assert [len(x) for x in built] == [3 * (big | 1), 12, 18, len(t.edges)]
    assert built[1:] == [*pieces, t._edge_faces]
    # labels 3 to 41 fit at once: every label of a tree of up to 20 nodes
    # whose labels are each at most one above their least
    assert 2 * sum(range(3, 42)) <= generators._TEMPLATE_FACES


def test_templates_leave_least_recently_used_first(monkeypatch):
    clear_templates()
    monkeypatch.setattr(generators, "_TEMPLATE_FACES", 40)
    kept = generators._template(9)
    for n in (7, 9, 5):
        generators._template(n)
    # 18 + 14 + 10 faces are over 40: BP(7), used least recently, left
    assert list(generators._templates) == [9, 5]
    assert generators._template(9) is kept
    # one label over the bound is analysed anew on each use
    assert generators._template(21) is not generators._template(21)
    assert list(generators._templates) == [5, 9]


def _far_pass_reversed(site):
    """A copy of a piece site whose segments, and so its slot plan, hold
    one pass reversed: a pass off v, v1 and v2 lying three or more
    positions from each pass that touches one of them, in the glued walk,
    where every piece segment lies between two split-edge passes at v."""
    pair = site.pair
    seam = {pair.shared_vertex, pair.v1, pair.v2}
    for key, segment in site.segments.items():
        near = [-1, len(segment)]
        near += [i for i, p in enumerate(segment) if p.src in seam or p.dst in seam]
        for i, p in enumerate(segment):
            if all(abs(i - j) >= 3 for j in near):
                reversed_ = (*segment[:i], make_pass(p.dst, p.src), *segment[i + 1:])
                return dataclasses.replace(site, segments={**site.segments, key: reversed_})
    raise AssertionError("no piece pass lies three positions from the seam")


def test_a_glue_checks_the_piece_passes_far_from_the_seam(monkeypatch):
    # a glue checks each pass it writes, however far from the seam: a piece
    # pass reversed three or more positions from every pass at v, v1 or v2
    # fails the glue that wrote it, not just the final audit
    spec = TreeSpec((("r", 3), ("x", 12)), (("r", "x"),))
    template_site = generators._template_site
    monkeypatch.setattr(
        generators, "_template_site", lambda n, wanted: _far_pass_reversed(template_site(n, wanted))
    )
    with pytest.raises(InvariantError, match=r"^glued node x into r: passes \d+ and \d+ do not chain$"):
        tree_build(spec)


def test_glue_checks_run_under_python_O():
    # the glue checks raise InvariantError explicitly, so a broken splice is
    # caught even where asserts are compiled away, and the message names
    # the glue that broke: here the last of three, node c into node b
    script = textwrap.dedent(f"""
        import dataclasses

        import zigzags.surgery as surgery
        from zigzags import InvariantError, TreeSpec, tree_build

        if __debug__:
            raise SystemExit("this check must run under python -O")
        spec = TreeSpec({RUNNING.nodes!r}, {RUNNING.edges!r})
        print(len(tree_build(spec)[0].faces))

        glue, namer, current = surgery._Surface.glue, surgery._namer, []

        def naming_glue(self, cut, piece_site, what, prefix):
            current[:] = [what]
            return glue(self, cut, piece_site, what, prefix)

        def leave_a_host_pass_on_v(v, sides, split):
            # the host's renaming in the last glue, its first pass at v
            # left unrenamed
            rename = namer(v, sides, split)

            def renamed(cells, make):
                out = rename(cells, make)
                if current == ["glued node c into b"] and make is surgery._renamed_pass:
                    out[0] = cells[0]
                return out
            return renamed

        def drop_a_piece_face(self, cut, piece_site, what, prefix):
            # the last glue's piece site, copied with its plan's last face
            # dropped
            if what == "glued node c into b":
                plan = piece_site._plan
                piece_site = dataclasses.replace(piece_site)
                vars(piece_site)["_plan"] = plan._replace(faces=plan.faces[:-1])
            return naming_glue(self, cut, piece_site, what, prefix)

        def failure():
            try:
                tree_build(spec)
            except InvariantError as exc:
                return str(exc)

        surgery._Surface.glue = naming_glue
        surgery._namer = leave_a_host_pass_on_v
        print(failure().splitlines()[0])
        surgery._namer = namer
        surgery._Surface.glue = drop_a_piece_face
        print(failure().splitlines()[0])
        surgery._Surface.glue = naming_glue

        # the last glue keeps the host's zigzag, which the glued one never is
        splice = surgery._Surface.splice

        def keep_the_hosts_zigzag(self, cut, piece_site, prefix):
            passes = self._passes
            change = splice(self, cut, piece_site, prefix)
            if current == ["glued node c into b"]:
                self._passes = passes
            return change

        surgery._Surface.splice = keep_the_hosts_zigzag
        print(failure())
    """)
    src = str(Path(zigzags.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "42",
        "glued node c into b: passes 93 and 94 do not chain",
        "glued node c into b: glued face list is no closed surface: "
        "edge nodec.4-nodec.b lies in 1 face(s), expected 2",
        "glued node c into b: zigzag has 102 passes, not 2E = 126",
    ]
