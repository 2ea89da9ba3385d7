"""Core triangulation structure, validation, and the .tri format."""

from __future__ import annotations

import pytest

from zigzags import (
    ParseError,
    Triangulation,
    TriangulationError,
    bipyramid,
    edge_key,
    face_key,
    parse_embedding,
    parse_tree,
    parse_triangulation,
    platonic,
    serialize_triangulation,
)

TET = [("1", "2", "3"), ("1", "2", "4"), ("1", "3", "4"), ("2", "3", "4")]


def test_edge_key_sorts():
    assert edge_key("b", "a") == ("a", "b")
    with pytest.raises(TriangulationError):
        edge_key("a", "a")


def test_face_key_sorts():
    assert face_key("c", "a", "b") == ("a", "b", "c")
    with pytest.raises(TriangulationError):
        face_key("a", "b", "a")


def test_basic_accessors():
    t = Triangulation(TET)
    assert t.vertices == ("1", "2", "3", "4")
    assert len(t.edges) == 6
    assert len(t.faces) == 4
    assert len(t.vertex_link("1")) == 3
    assert sorted(t.vertex_link("1")) == ["2", "3", "4"]
    assert face_key("3", "2", "1") in t.faces
    assert face_key("1", "2", "x") not in t.faces
    assert t.euler_characteristic() == 2


def test_face_order_preserved():
    faces = [("2", "1", "3"), ("4", "1", "2"), ("1", "3", "4"), ("2", "3", "4")]
    t = Triangulation(faces)
    # stored as sorted triples, in the given order
    assert t.faces == (("1", "2", "3"), ("1", "2", "4"), ("1", "3", "4"), ("2", "3", "4"))


def test_duplicate_face_rejected():
    with pytest.raises(TriangulationError, match="duplicate face"):
        Triangulation(TET + [("3", "2", "1")])


def test_repeated_vertex_rejected():
    with pytest.raises(TriangulationError):
        Triangulation([("1", "1", "2")])


def test_face_of_two_vertices_rejected():
    with pytest.raises(TriangulationError, match=r"^face must have 3 vertices, got \('a', 'b'\)$"):
        Triangulation([("a", "b")])


def test_edge_and_vertex_faces():
    t = Triangulation(TET)
    assert t.edge_faces(("1", "2")) == (("1", "2", "3"), ("1", "2", "4"))
    assert len(t.vertex_faces("4")) == 3
    with pytest.raises(TriangulationError):
        t.edge_faces(("1", "x"))
    with pytest.raises(TriangulationError, match="^no such vertex 'zz'$"):
        bipyramid(3).vertex_faces("zz")


def test_common_face():
    t = Triangulation(TET)
    assert t.common_face(("1", "2"), ("2", "3")) == ("1", "2", "3")
    with pytest.raises(TriangulationError):
        t.common_face(("1", "2"), ("3", "4"))  # opposite edges share no face
    # an edge given in either order is one edge, not two sharing a face
    for e2 in (("1", "2"), ("2", "1")):
        with pytest.raises(TriangulationError, match="^edges must be distinct$"):
            t.common_face(("1", "2"), e2)


def test_vertex_link_cycle():
    t = bipyramid(4)
    link = t.vertex_link("a")
    assert set(link) == {"1", "2", "3", "4"}
    assert len(link) == 4
    # base vertex link alternates neighbors and apexes
    cycle = t.vertex_link("1")
    assert set(cycle) == {"2", "4", "a", "b"}
    link_edges = {edge_key(u, w) for u, w in zip(cycle, cycle[1:] + cycle[:1])}
    assert len(link_edges) == 4
    assert all(face_key("1", u, w) in t.faces for u, w in link_edges)


def test_vertex_link_rejects_a_pinched_vertex():
    # two fans share x: every link vertex has two neighbours, but the link
    # is two disjoint cycles
    fans = [("x", "1", "2"), ("x", "2", "3"), ("x", "1", "3")]
    fans += [("x", "4", "5"), ("x", "5", "6"), ("x", "4", "6")]
    t = Triangulation(fans)
    with pytest.raises(TriangulationError) as caught:
        t.vertex_link("x")
    assert str(caught.value) == "link of vertex 'x' is not a single cycle"
    assert "link of vertex x is not a single cycle" in t.validate().violations


def test_link_deterministic():
    t = bipyramid(5)
    assert t.vertex_link("3") == t.vertex_link("3")
    # starts at the least neighbour, toward the lesser of its two link-neighbours
    link = t.vertex_link("a")
    assert link[0] == min(link) and link[1] == min(link[1], link[-1])


def test_validate_ok():
    for t in (Triangulation(TET), bipyramid(3), bipyramid(8), platonic("icosahedron")):
        report = t.validate()
        assert report.ok, report
        t.require_valid()


def test_validate_open_surface():
    t = Triangulation([("1", "2", "3")])
    report = t.validate()
    assert not report.ok
    assert any("expected 2" in v for v in report.violations)


def test_validate_disconnected():
    far = [(f"x{a}", f"x{b}", f"x{c}") for a, b, c in TET]
    report = Triangulation(TET + far).validate()
    assert not report.ok
    assert any("disconnected" in v for v in report.violations)


def test_validate_pinched_vertex():
    # two tetrahedra sharing exactly one vertex: every edge is fine but the
    # shared vertex has two link cycles
    second = [tuple("x" if w == "1" else w + "'" for w in f) for f in TET]
    t = Triangulation([tuple("x" if w == "1" else w for w in f) for f in TET] + second)
    report = t.validate()
    assert not report.ok
    assert any("link of vertex x" in v for v in report.violations)


def test_require_valid_raises():
    with pytest.raises(TriangulationError, match="invalid triangulation"):
        Triangulation([("1", "2", "3")]).require_valid()


def test_equality_and_hash():
    a = Triangulation(TET)
    b = Triangulation([tuple(reversed(f)) for f in TET])
    assert a == b
    assert hash(a) == hash(b)
    assert a != Triangulation(TET[:3] + [("2", "3", "5"), ("2", "4", "5"), ("3", "4", "5")])


def test_parse_basic():
    text = "# a tetrahedron\nf 1 2 3\nf 1 2 4\n\nf 1 3 4  # inline comment\nf 2 3 4\n"
    t = parse_triangulation(text)
    assert t == Triangulation(TET)


def test_parse_errors_name_lines():
    with pytest.raises(ParseError, match="line 2"):
        parse_triangulation("f 1 2 3\nf 1 2\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_triangulation("g 1 2 3\n")
    with pytest.raises(ParseError, match="repeated vertex"):
        parse_triangulation("f 1 1 2\n")
    with pytest.raises(ParseError, match="duplicate face"):
        parse_triangulation("f 1 2 3\nf 3 2 1\n")


@pytest.mark.parametrize("text, message", [
    ("f 1 2 3\nf 1 1 2\n", "line 2: face has a repeated vertex"),
    ("f 1 2 3\n# comment\nf 3 2 1\n", "line 3: duplicate face 1 2 3"),
    # both faults: the earlier line wins, whichever it is
    ("f 1 2 3\nf 2 2 4\nf 3 1 2\n", "line 2: face has a repeated vertex"),
    ("f 1 2 3\nf 3 1 2\nf 2 2 4\n", "line 2: duplicate face 1 2 3"),
    ("f 1 2 3\nf 4 2 4\nf 2 3 1\n", "line 2: face has a repeated vertex"),
    # a face fault before a malformed record wins over it, and after it not
    ("f 1 2 3\nf 2 1 3\ng 1 2 3\n", "line 2: duplicate face 1 2 3"),
    ("f 1 1 3\nf 1 2\n", "line 1: face has a repeated vertex"),
    ("f 1 2\nf 1 1 3\n", "line 1: face record needs 3 vertices, got 2"),
    ("x 1 2 3\nf 1 1 3\n", "line 1: unknown record type 'x'"),
])
def test_parse_names_the_first_line_at_fault(text, message):
    with pytest.raises(ParseError) as caught:
        parse_triangulation(text)
    assert str(caught.value) == message


@pytest.mark.parametrize("parse, plain, unknown", [
    (parse_triangulation, "f 1 2 3\nf 1 2 4\nf 1 3 4\nf 2 3 4\n", "unknown record type 'zz'"),
    (parse_embedding, "v x\nv y\nv z\na 0 x y\na 1 y z\na 2 z x\nc F 0 1 2\n",
     "unknown record 'zz'"),
    (parse_tree, "n r 5\nn x 4\na r x\n", "unknown record 'zz'"),
])
def test_every_format_skips_comments_blanks_and_indents_alike(parse, plain, unknown):
    lines = plain.splitlines()
    decorated = ["# a comment", *(f"  \t{line}  # inline" for line in lines), " \t ", "zz"]
    assert parse("\n".join(decorated[:-1])) == parse(plain)
    # the skipped lines still count toward the line an error names
    with pytest.raises(ParseError) as caught:
        parse("\n".join(decorated))
    assert str(caught.value) == f"line {len(decorated)}: {unknown}"


def test_serialize_round_trip():
    for t in (Triangulation(TET), bipyramid(6), platonic("icosahedron")):
        assert parse_triangulation(serialize_triangulation(t)) == t


def test_serialize_deterministic():
    t = bipyramid(5)
    assert serialize_triangulation(t) == serialize_triangulation(bipyramid(5))


def test_token_rules():
    with pytest.raises(TriangulationError):
        Triangulation([("a b", "c", "d")])
    with pytest.raises(TriangulationError):
        Triangulation([("a#1", "c", "d")])
    with pytest.raises(TriangulationError):
        Triangulation([("", "c", "d")])
    # non-strings are rejected as such, hashable or not, also once seen
    with pytest.raises(TriangulationError, match="non-empty string"):
        Triangulation([(1, "c", "d")])
    with pytest.raises(TriangulationError, match="non-empty string"):
        Triangulation([(["a"], "c", "d")])
    with pytest.raises(TriangulationError, match="non-empty string"):
        Triangulation([("a", "c", "d"), (["a"], "c", "e")])
    # a token is checked where it first appears
    with pytest.raises(TriangulationError, match="whitespace"):
        Triangulation([("a", "c", "d"), ("a", "c\t", "e")])
