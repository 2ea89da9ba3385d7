"""Bipyramids, platonic solids, and tree specifications."""

from __future__ import annotations

import re

import pytest

import zigzag_oracle as oracle
from zigzags import (
    ParseError,
    TreeError,
    TreeSpec,
    bipyramid,
    bipyramid_canonical_zorientation,
    classify,
    enumerate_zigzags,
    is_homogeneous,
    parse_tree,
    parse_triangulation,
    platonic,
    serialize_triangulation,
    tree_build,
    validate_tree,
)

from bipyramid_walks import bipyramid_oracle_zigzags, example_zigzag_walks


# ----------------------------------------------------------------------
# bipyramids


@pytest.mark.parametrize("n", range(3, 13))
def test_bipyramid_structure(n):
    t = bipyramid(n)
    assert len(t.vertices) == n + 2
    assert len(t.edges) == 3 * n
    assert len(t.faces) == 2 * n
    assert t.euler_characteristic() == 2
    assert t.validate().ok
    assert len(t.vertex_link("a")) == n and len(t.vertex_link("b")) == n
    assert all(len(t.vertex_link(str(i))) == 4 for i in range(1, n + 1))


def test_bipyramid_rejects_small():
    with pytest.raises(ValueError):
        bipyramid(2)


def test_bipyramid_prefix():
    t = bipyramid(3, "L.")
    assert set(t.vertices) == {"L.a", "L.b", "L.1", "L.2", "L.3"}
    with pytest.raises(Exception):
        bipyramid(3, "bad prefix ")


def test_census_shape_by_residue():
    # one zigzag for odd n, two for n = 2 mod 4, four for n = 0 mod 4
    for n in range(3, 13):
        zs = enumerate_zigzags(bipyramid(n))
        if n % 2 == 1:
            assert [len(z) for z in zs] == [6 * n]
        elif n % 4 == 2:
            assert [len(z) for z in zs] == [3 * n, 3 * n]
        else:
            assert [len(z) for z in zs] == [3 * n // 2] * 4


@pytest.mark.parametrize("n", range(3, 41))
def test_oracle_zigzags_equal_engine(n):
    assert bipyramid_oracle_zigzags(n) == enumerate_zigzags(bipyramid(n))


def hand_walk_bits(n: int, prefix: str) -> tuple[int, ...]:
    """The canonical orientation's bits found by matching each enumerated
    zigzag against the directed hand-written walks, in either direction."""
    zs = enumerate_zigzags(bipyramid(n, prefix))
    directed = {z.passes: i for i, z in enumerate(example_zigzag_walks(n, prefix))}
    bits, used = [], set()
    for z in zs:
        for bit, cand in enumerate((z, z.reverse())):
            if cand.passes in directed:
                bits.append(bit)
                used.add(directed[cand.passes])
                break
        else:
            raise AssertionError(f"BP({n}) zigzag not matched by the hand construction")
    assert used == set(range(len(zs))), "hand-built zigzags exhaust the census"
    return tuple(bits)


@pytest.mark.parametrize("prefix", ["", "X.", "node7."])
def test_canonical_orientation_matches_the_hand_walks(prefix):
    # the orientation is read off the base cycle; the hand walks, directed
    # as written, are the reference it must agree with
    for n in range(3, 41):
        assert bipyramid_canonical_zorientation(n, prefix).bits == hand_walk_bits(n, prefix)


def test_oracle_zigzags_with_prefix():
    assert bipyramid_oracle_zigzags(5, "X.") == enumerate_zigzags(bipyramid(5, "X."))


@pytest.mark.parametrize("n", range(3, 13))
def test_canonical_orientation_properties(n):
    t = bipyramid(n)
    tau = bipyramid_canonical_zorientation(n)
    assert is_homogeneous(t, tau)
    cls = classify(t, tau)
    assert set(cls.type_i_vertices) == {"a", "b"}
    # every spoke is type I, the base cycle is directed
    for i in range(1, n + 1):
        for apex in ("a", "b"):
            assert cls.edge_types[tuple(sorted((str(i), apex)))] == "I"
        u, w = str(i), str(i % n + 1)
        assert cls.edge_directions[tuple(sorted((u, w)))] == (u, w)


# ----------------------------------------------------------------------
# platonic solids


def test_platonic_structures():
    tet = platonic("tetrahedron")
    assert (len(tet.vertices), len(tet.edges), len(tet.faces)) == (4, 6, 4)
    oct_ = platonic("octahedron")
    assert (len(oct_.vertices), len(oct_.edges), len(oct_.faces)) == (6, 12, 8)
    ico = platonic("icosahedron")
    assert (len(ico.vertices), len(ico.edges), len(ico.faces)) == (12, 30, 20)
    for t in (tet, oct_, ico):
        assert t.validate().ok
        assert t.euler_characteristic() == 2


def test_platonic_censuses():
    expected = {"tetrahedron": [4, 4, 4], "octahedron": [6, 6, 6, 6], "icosahedron": [10] * 6}
    for name, lengths in expected.items():
        t = platonic(name)
        assert sorted(len(z) for z in enumerate_zigzags(t)) == lengths
        assert oracle.census([frozenset(f) for f in t.faces]) == lengths


def test_platonic_unknown():
    with pytest.raises(ValueError, match="unknown"):
        platonic("cube")


# ----------------------------------------------------------------------
# tree specifications


def test_treespec_normalizes():
    a = TreeSpec((("y", 4), ("x", 5)), (("y", "x"),))
    b = TreeSpec((("x", 5), ("y", 4)), (("x", "y"),))
    assert a == b
    assert a.root == "x"
    assert a.labels == {"x": 5, "y": 4}
    assert a.adjacency() == {"x": ("y",), "y": ("x",)}


def test_treespec_keeps_list_nodes_and_edges_as_tuples():
    given = TreeSpec([["r", 3], ["c", 4]], [["r", "c"]])
    assert given == TreeSpec((("r", 3), ("c", 4)), (("r", "c"),))
    assert given.nodes == (("c", 4), ("r", 3)) and type(given.nodes[0]) is tuple
    assert hash(given) == hash(TreeSpec((("c", 4), ("r", 3)), (("c", "r"),)))


def test_treespec_rejects_bad_edges():
    with pytest.raises(TreeError, match="^node id 'x' is declared more than once$"):
        TreeSpec((("x", 5), ("x", 4)), ())
    with pytest.raises(TreeError, match="unknown node"):
        TreeSpec((("x", 5),), (("x", "y"),))
    with pytest.raises(TreeError, match="itself"):
        TreeSpec((("x", 5),), (("x", "x"),))
    with pytest.raises(TreeError, match="duplicate edge"):
        TreeSpec((("x", 5), ("y", 4)), (("x", "y"), ("y", "x")))


@pytest.mark.parametrize("bad", ["x y", "x#", "x\ty", " x", "#", " ", "\u2003", "a\u2003b"])
def test_treespec_rejects_an_id_no_vertex_token_can_hold(bad):
    # an id goes into the node's vertex tokens, so one with whitespace or '#'
    # is refused before any build, on the root as on a child; whitespace is
    # what str.split() splits at, a non-ASCII space such as U+2003 included
    message = f"^node id {re.escape(repr(bad))} contains whitespace or '#'$"
    for nodes, edges in (
        (((bad, 5),), ()),
        ((("r", 5), (bad, 4)), (("r", bad),)),
    ):
        with pytest.raises(TreeError, match=message):
            TreeSpec(nodes, edges)


def test_treespec_builds_with_an_empty_id():
    assert TreeSpec((("", 5),), ()).nodes == (("", 5),)
    t, _, log = tree_build(TreeSpec((("r", 5), ("", 4)), (("r", ""),)))
    assert parse_triangulation(serialize_triangulation(t)) == t
    assert len(log.records) == 1


def test_parse_tree():
    spec = parse_tree("# comment\nn r 5\nn x 4\na r x\n")
    assert spec == TreeSpec((("r", 5), ("x", 4)), (("r", "x"),))


def test_parse_tree_errors():
    with pytest.raises(ParseError, match="line 1"):
        parse_tree("n r\n")
    with pytest.raises(ParseError, match="not an integer"):
        parse_tree("n r five\n")
    # int() would read each of these; a label is decimal digits, -?[0-9]+
    for label in ("1_1", "+5", "\u0663", "5\u0663"):
        message = f"^line 1: label {re.escape(repr(label))} is not an integer$"
        with pytest.raises(ParseError, match=message):
            parse_tree(f"n r {label}\n")
    assert parse_tree("n r -5\n").labels == {"r": -5}
    with pytest.raises(ParseError, match="unknown node"):
        parse_tree("n r 5\na r x\n")
    with pytest.raises(ParseError, match="unknown record"):
        parse_tree("e r x\n")
    # a repeated node id is named with the line that declares it again
    with pytest.raises(ParseError, match="^line 2: node id 'r' is declared more than once$"):
        parse_tree("n r 5\nn r 4\n")
    # an arc that joins a node to itself or repeats an edge is named with
    # its line too
    with pytest.raises(ParseError, match=r"^line 2: edge \('r', 'r'\) joins a node to itself$"):
        parse_tree("n r 5\na r r\n")
    with pytest.raises(ParseError, match=r"^line 4: duplicate edge \('x', 'r'\)$"):
        parse_tree("n r 5\nn x 4\na r x\na x r\n")


def test_validate_tree_ok():
    spec = TreeSpec((("r", 5), ("x", 4), ("y", 6)), (("r", "x"), ("r", "y")))
    assert validate_tree(spec).ok
    assert validate_tree(TreeSpec((("solo", 3),), ())).ok


def test_validate_tree_rules():
    # no nodes
    assert not validate_tree(TreeSpec((), ())).ok
    # two odd labels
    rep = validate_tree(TreeSpec((("r", 5), ("x", 7)), (("r", "x"),)))
    assert any("exactly one odd" in v for v in rep.violations)
    # zero odd labels
    rep = validate_tree(TreeSpec((("r", 4), ("x", 6)), (("r", "x"),)))
    assert any("exactly one odd" in v for v in rep.violations)
    # root degree too high: label 3 means k=1 but degree 2
    rep = validate_tree(
        TreeSpec((("r", 3), ("x", 4), ("y", 4)), (("r", "x"), ("r", "y")))
    )
    assert any("needs k >= degree" in v for v in rep.violations)
    # root label 1
    rep = validate_tree(TreeSpec((("r", 1),), ()))
    assert any(">= 3" in v for v in rep.violations)
    # leaf label 2
    rep = validate_tree(TreeSpec((("r", 5), ("x", 2)), (("r", "x"),)))
    assert any(">= 4" in v for v in rep.violations)
    # internal node with too many children: label 4 means k=2 but degree 3
    rep = validate_tree(
        TreeSpec(
            (("r", 5), ("m", 4), ("x", 4), ("y", 4)),
            (("r", "m"), ("m", "x"), ("m", "y")),
        )
    )
    assert any("'m' label 2k=4 needs k >= degree" in v for v in rep.violations)
    # disconnected forest
    rep = validate_tree(TreeSpec((("r", 5), ("x", 4)), ()))
    assert any("disconnected" in v for v in rep.violations)
