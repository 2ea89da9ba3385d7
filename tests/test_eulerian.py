"""Directed Eulerian embeddings and the coning correspondence."""

from __future__ import annotations

import re

import pytest

import zigzags.eulerian as eulerian
from helpers import coned_round_trip, embedding_from_directed_faces, torus7
from zigzags import (
    DirectedEmbedding,
    EmbeddingError,
    ParseError,
    Zigzag,
    ZOrientation,
    all_z_orientations,
    bipyramid,
    enumerate_zigzags,
    extract_directed_embedding,
    is_homogeneous,
    make_z_orientation,
    parse_embedding,
    parse_triangulation,
    round_trip_check,
    serialize_embedding,
    serialize_triangulation,
    triangulate_embedding,
    validate_embedding,
)
from zigzags.cli import main

TRIANGLE_ARCS = (("1", "2"), ("2", "3"), ("3", "1"))


def directed_triangle(names=("a", "b")) -> DirectedEmbedding:
    """The directed 3-cycle with both face cycles equal to the whole cycle."""
    return DirectedEmbedding(
        ("1", "2", "3"), TRIANGLE_ARCS, tuple((n, TRIANGLE_ARCS) for n in names)
    )


# ----------------------------------------------------------------------
# structure and validation


def test_embedding_normalizes():
    rotated = (TRIANGLE_ARCS[1], TRIANGLE_ARCS[2], TRIANGLE_ARCS[0])
    a = DirectedEmbedding(("3", "1", "2"), TRIANGLE_ARCS[::-1], (("a", rotated),))
    b = DirectedEmbedding(("1", "2", "3"), TRIANGLE_ARCS, (("a", TRIANGLE_ARCS),))
    assert a == b
    assert a.vertices == ("1", "2", "3")
    assert a.arcs == tuple(sorted(TRIANGLE_ARCS))


def test_list_arcs_are_kept_as_tuples():
    # an embedding given in lists is the one given in tuples, and it is
    # validated and triangulated as that one is
    arcs = [list(a) for a in TRIANGLE_ARCS]
    emb = DirectedEmbedding(["1", "2", "3"], arcs, [["a", arcs], ["b", arcs]])
    assert emb == directed_triangle() and hash(emb) == hash(directed_triangle())
    assert validate_embedding(emb).ok
    assert triangulate_embedding(emb)[0] == triangulate_embedding(directed_triangle())[0]


def test_degrees():
    emb = directed_triangle()
    for v in emb.vertices:
        assert sum(1 for a in emb.arcs if a[1] == v) == 1
        assert sum(1 for a in emb.arcs if a[0] == v) == 1


def test_validate_ok():
    assert validate_embedding(directed_triangle()).ok


def test_validate_rejects_loops_and_antiparallel():
    # a loop is no antiparallel pair, and each antiparallel pair is named once
    rep = validate_embedding(DirectedEmbedding(("x", "y"), (("x", "x"),), ()))
    assert rep.violations == ("arc x->x is a loop",)
    rep = validate_embedding(DirectedEmbedding(("x", "y"), (("x", "y"), ("y", "x")), ()))
    assert rep.violations == ("arcs x->y and y->x are antiparallel",)
    rep = validate_embedding(DirectedEmbedding(("x", "y"), (("y", "x"), ("x", "y")), ()))
    assert rep.violations == ("arcs x->y and y->x are antiparallel",)


def test_validate_rejects_unknown_vertex():
    rep = validate_embedding(DirectedEmbedding(("x",), (("x", "y"),), ()))
    assert any("unknown vertex" in v for v in rep.violations)


def test_validate_rejects_an_arc_run_against_its_direction():
    # the cycle runs y->x, but the graph directs that edge x->y only
    arcs = (("x", "y"), ("y", "z"), ("z", "x"))
    rep = validate_embedding(DirectedEmbedding(("x", "y", "z"), arcs, (("c", (("y", "x"),)),)))
    assert "face cycle 'c' uses unknown arc y->x" in rep.violations


def test_validate_rejects_unbalanced():
    emb = DirectedEmbedding(("x", "y", "z"), (("x", "y"), ("y", "z")), ())
    rep = validate_embedding(emb)
    assert any("in-degree" in v for v in rep.violations)


def test_validate_rejects_isolated_and_disconnected():
    emb = DirectedEmbedding(
        ("1", "2", "3", "z"), TRIANGLE_ARCS, (("a", TRIANGLE_ARCS), ("b", TRIANGLE_ARCS))
    )
    rep = validate_embedding(emb)
    assert any("isolated" in v for v in rep.violations)
    assert any("disconnected" in v for v in rep.violations)


def test_validate_rejects_broken_chain():
    scrambled = (TRIANGLE_ARCS[0], TRIANGLE_ARCS[2], TRIANGLE_ARCS[1])
    emb = DirectedEmbedding(
        ("1", "2", "3"), TRIANGLE_ARCS, (("a", scrambled), ("b", TRIANGLE_ARCS))
    )
    rep = validate_embedding(emb)
    assert any("breaks at" in v for v in rep.violations)


def test_validate_rejects_wrong_coverage():
    emb = DirectedEmbedding(("1", "2", "3"), TRIANGLE_ARCS, (("a", TRIANGLE_ARCS),))
    rep = validate_embedding(emb)
    assert any("expected 2" in v for v in rep.violations)


def test_validate_rejects_repeated_names_and_empty_cycles():
    emb = DirectedEmbedding(
        ("1", "2", "3"),
        TRIANGLE_ARCS,
        (("a", TRIANGLE_ARCS), ("a", TRIANGLE_ARCS), ("b", ())),
    )
    rep = validate_embedding(emb)
    assert any("repeated face cycle names" in v for v in rep.violations)
    assert any("empty" in v for v in rep.violations)


@pytest.mark.parametrize("names, violations", [
    (("", ""), ()),
    (("", "", ""), tuple(
        f"arc {u}->{w} lies on 3 face cycle(s), expected 2" for u, w in TRIANGLE_ARCS
    )),
    (("F1", ""), ("repeated face cycle names",)),
    (("", "F0"), ("repeated face cycle names",)),
    (("F0", ""), ()),
])
def test_validate_compares_the_names_cycles_cone_under(names, violations):
    # an unnamed cycle k cones as F<k>, and its text carries that name, so
    # validation agrees with the text's; a named F<k> beside it collides
    emb = directed_triangle(names)
    text = serialize_embedding(emb)
    assert validate_embedding(emb).violations == violations
    assert validate_embedding(parse_embedding(text)).violations == violations
    if not violations:
        t, tau = triangulate_embedding(emb)
        assert (len(t.vertices), t.euler_characteristic()) == (5, 2)
        assert t.faces == triangulate_embedding(parse_embedding(text))[0].faces
        assert is_homogeneous(t, tau)
    else:
        for case in (emb, parse_embedding(text)):
            with pytest.raises(EmbeddingError) as caught:
                triangulate_embedding(case)
            assert str(caught.value) == "\n".join(violations)


@pytest.mark.parametrize("vertex, cycle, violation", [
    ("3", "x y", "face cycle name 'x y' is no token (holding whitespace or '#')"),
    ("a b", "x", "vertex 'a b' is no token (empty, or holding whitespace or '#')"),
    ("", "x", "vertex '' is no token (empty, or holding whitespace or '#')"),
])
def test_validate_names_a_name_that_is_no_token(vertex, cycle, violation):
    # a name that is no token is a violation, so coning never meets it; an
    # unnamed cycle is legal, as it cones as F<k>
    arcs = (("1", "2"), ("2", vertex), (vertex, "1"))
    emb = DirectedEmbedding(("1", "2", vertex), arcs, ((cycle, arcs), ("", arcs)))
    assert validate_embedding(emb).violations == (violation,)
    with pytest.raises(EmbeddingError, match=f"^{re.escape(violation)}$"):
        triangulate_embedding(emb)


# the figure eight 0->1->2->0, 0->3->4->0 with each triangle's face cycle
# walked twice: every arc has two occurrences, but each lies on one cycle
FIGURE_EIGHT_ARCS = (("0", "1"), ("1", "2"), ("2", "0"), ("0", "3"), ("3", "4"), ("4", "0"))
FIGURE_EIGHT_TWICE = """\
v 0
v 1
v 2
v 3
v 4
a 0 0 1
a 1 1 2
a 2 2 0
a 3 0 3
a 4 3 4
a 5 4 0
c A 0 1 2 0 1 2
c B 3 4 5 3 4 5
"""


def test_validate_rejects_an_arc_used_twice_by_one_cycle():
    rep = validate_embedding(parse_embedding(FIGURE_EIGHT_TWICE))
    assert rep.violations == (
        "face cycle 'A' uses arc 0->1 more than once",
        "face cycle 'B' uses arc 0->3 more than once",
    )
    with pytest.raises(EmbeddingError, match="uses arc 0->1 more than once"):
        triangulate_embedding(parse_embedding(FIGURE_EIGHT_TWICE))


def test_verify_rejects_an_arc_used_twice_by_one_cycle(tmp_path, capsys):
    path = tmp_path / "eight.eul"
    path.write_text(FIGURE_EIGHT_TWICE)
    assert main(["verify", str(path)]) == 1
    assert "face cycle 'A' uses arc 0->1 more than once" in capsys.readouterr().err
    assert main(["convert", "--triangulate", str(path)]) == 1
    assert "uses arc 0->1 more than once" in capsys.readouterr().err


def test_rotations_of_one_cycle_compare_equal():
    # the least arc 0->1 occurs twice, so "rotate to its first occurrence"
    # depends on where the given rotation starts
    a, b, c, d, e, f = FIGURE_EIGHT_ARCS
    cyc = (a, b, c, a, b, c, d, e, f)
    rotations = [cyc[k:] + cyc[:k] for k in range(len(cyc))]
    vertices = ("0", "1", "2", "3", "4")
    embs = {DirectedEmbedding(vertices, FIGURE_EIGHT_ARCS, (("X", r),)) for r in rotations}
    assert len(embs) == 1
    assert embs.pop().face_cycles == (("X", cyc),)


# the cycle v0->v2->v5->v3->v2->v1->v0 taken as two face cycles: every arc
# lies on two cycles, but each cycle passes v2 twice
NON_SIMPLE_CYCLE = """\
v v0
v v1
v v2
v v3
v v5
a 0 v0 v2
a 1 v2 v5
a 2 v5 v3
a 3 v3 v2
a 4 v2 v1
a 5 v1 v0
c A 0 1 2 3 4 5
c B 0 1 2 3 4 5
"""

# the directed triangles v0->v1->v2->v0 and v2->v3->v4->v2, each taken as
# two face cycles: they meet only at v2, whose corners form two cycles
PINCHED_VERTEX = """\
v v0
v v1
v v2
v v3
v v4
a 0 v0 v1
a 1 v1 v2
a 2 v2 v0
a 3 v2 v3
a 4 v3 v4
a 5 v4 v2
c A 0 1 2
c B 0 1 2
c C 3 4 5
c D 3 4 5
"""

NOT_A_SURFACE = {
    "non_simple_cycle": (
        NON_SIMPLE_CYCLE,
        (
            "face cycle 'A' visits vertex 'v2' more than once",
            "face cycle 'B' visits vertex 'v2' more than once",
        ),
    ),
    "pinched_vertex": (PINCHED_VERTEX, ("the corners at vertex 'v2' form 2 cycles, not one",)),
}


@pytest.mark.parametrize("case", sorted(NOT_A_SURFACE))
def test_validate_rejects_what_cones_to_no_surface(case):
    text, violations = NOT_A_SURFACE[case]
    assert validate_embedding(parse_embedding(text)).violations == violations
    with pytest.raises(EmbeddingError, match=violations[0]):
        triangulate_embedding(parse_embedding(text))


@pytest.mark.parametrize("case", sorted(NOT_A_SURFACE))
def test_verify_rejects_what_cones_to_no_surface(case, tmp_path, capsys):
    text, violations = NOT_A_SURFACE[case]
    path = tmp_path / f"{case}.eul"
    path.write_text(text)
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == list(violations)
    assert main(["convert", "--triangulate", str(path)]) == 1
    assert violations[0] in capsys.readouterr().err


# ----------------------------------------------------------------------
# extraction and coning


def test_extract_from_minimal_bipyramid(bipyramid_corpus):
    t, tau = bipyramid_corpus[3]
    emb = extract_directed_embedding(t, tau)
    assert emb.vertices == ("1", "2", "3")
    assert emb.arcs == tuple(sorted(TRIANGLE_ARCS))
    assert [name for name, _ in emb.face_cycles] == ["a", "b"]
    for _, cyc in emb.face_cycles:
        assert set(cyc) == set(TRIANGLE_ARCS)


def test_extract_requires_homogeneous():
    t = bipyramid(4)
    tau = make_z_orientation(t, (0, 0, 0, 0))  # every edge type II
    with pytest.raises(EmbeddingError, match="homogeneous"):
        extract_directed_embedding(t, tau)


def test_triangle_cones_to_minimal_bipyramid():
    t, tau = triangulate_embedding(directed_triangle())
    assert set(t.faces) == set(bipyramid(3).faces)
    assert is_homogeneous(t, tau)


def test_cone_names_default_and_collide():
    t, _ = triangulate_embedding(directed_triangle(names=("", "b")))
    assert "F0" in t.vertices
    with pytest.raises(EmbeddingError, match="collides"):
        triangulate_embedding(directed_triangle(names=("1", "b")))


def test_triangulate_rejects_invalid():
    emb = DirectedEmbedding(("1", "2", "3"), TRIANGLE_ARCS, (("a", TRIANGLE_ARCS),))
    with pytest.raises(EmbeddingError):
        triangulate_embedding(emb)


def test_double_embedding_requires_all_type_ii(bipyramid_corpus):
    t, tau = bipyramid_corpus[3]
    with pytest.raises(EmbeddingError, match="type II"):
        embedding_from_directed_faces(t, tau)


def test_double_embedding_of_six_bipyramid():
    # all-type-II orientation: every face a directed cycle, cones once per face
    t = bipyramid(6)
    tau = make_z_orientation(t, (0, 0))
    emb = embedding_from_directed_faces(t, tau)
    assert len(emb.vertices) == 8
    assert len(emb.arcs) == 18
    assert len(emb.face_cycles) == 12
    big, big_tau = triangulate_embedding(emb)
    assert (len(big.vertices), len(big.edges), len(big.faces)) == (20, 54, 36)
    assert big.euler_characteristic() == 2
    assert is_homogeneous(big, big_tau)


# ----------------------------------------------------------------------
# round trips


def test_round_trip_bipyramids(bipyramid_corpus):
    for t, tau in bipyramid_corpus.values():
        assert round_trip_check(t, tau)


def test_round_trip_glued(glued_corpus):
    for t, tau, _, _ in glued_corpus.values():
        assert round_trip_check(t, tau)


def test_round_trip_trees(tree_corpus):
    for _, t, tau, _ in tree_corpus:
        assert round_trip_check(t, tau)


def test_round_trip_agrees_with_a_second_surface(bipyramid_corpus, glued_corpus, tree_corpus):
    # round_trip_check compares the coned faces with t's; the reference
    # builds, validates, enumerates and classifies the coned surface
    cases = [(t, tau) for t, tau in bipyramid_corpus.values()]
    cases += [(t, tau) for t, tau, _, _ in glued_corpus.values()]
    cases += [(t, tau) for _, t, tau, _ in tree_corpus]
    torus = torus7()
    big, big_tau = triangulate_embedding(
        embedding_from_directed_faces(torus, make_z_orientation(torus, (0, 0, 0)))
    )
    assert (big.euler_characteristic(), len(big.faces)) == (0, 42)
    homogeneous = [tau for tau in all_z_orientations(big) if is_homogeneous(big, tau)]
    assert homogeneous == [big_tau, big_tau.reversed()]
    cases.append((big, big_tau))
    for t, tau in cases:
        for oriented in (tau, tau.reversed()):
            assert round_trip_check(t, oriented) is coned_round_trip(t, oriented) is True


def test_round_trip_is_false_when_the_coned_faces_differ(bipyramid_corpus, monkeypatch):
    t, tau = bipyramid_corpus[5]
    emb = extract_directed_embedding(t, tau)
    renamed = DirectedEmbedding(
        emb.vertices, emb.arcs, tuple((f"{name}'", cyc) for name, cyc in emb.face_cycles)
    )
    monkeypatch.setattr(eulerian, "extract_directed_embedding", lambda t, tau: renamed)
    assert round_trip_check(t, tau) is False


def test_round_trip_validates_the_embedding_once(monkeypatch):
    # extraction validates what it returns, and the coning trusts it; a
    # surface parsed here has extracted nothing before
    seen = []
    validate = eulerian.validate_embedding
    monkeypatch.setattr(eulerian, "validate_embedding", lambda emb: seen.append(emb) or validate(emb))
    t = parse_triangulation(serialize_triangulation(bipyramid(5)))
    tau = make_z_orientation(t, (0,))
    assert round_trip_check(t, tau)
    assert len(seen) == 1


@pytest.mark.parametrize("n", (5, 6, 8))
def test_census_round_trip_reverses_no_zigzag(n, monkeypatch):
    # tau orients t's own enumeration, so the round trip compares bits
    t = parse_triangulation(serialize_triangulation(bipyramid(n)))
    tau = next(tau for tau in all_z_orientations(t) if is_homogeneous(t, tau))
    reversals = []
    reverse = Zigzag.reverse
    monkeypatch.setattr(Zigzag, "reverse", lambda z: reversals.append(z) or reverse(z))
    assert round_trip_check(t, tau) and round_trip_check(t, tau.reversed())
    assert reversals == []


def test_round_trip_is_false_when_the_arcs_orient_otherwise(bipyramid_corpus, monkeypatch):
    # by bits for t's own enumeration, by chosen zigzags for any other
    t, tau = bipyramid_corpus[8]
    copied = ZOrientation(tuple(Zigzag(z.passes) for z in tau.zigzags), tau.bits)
    assert copied.zigzags is not enumerate_zigzags(t) and copied.zigzags == tau.zigzags
    assert round_trip_check(t, tau) and round_trip_check(t, copied)
    along = eulerian._orient_along
    monkeypatch.setattr(eulerian, "_orient_along", lambda zs, arcs: along(zs, arcs).reversed())
    assert not round_trip_check(t, tau)
    assert not round_trip_check(t, copied)


# ----------------------------------------------------------------------
# file format


def test_serialize_parse_round_trip(bipyramid_corpus):
    for n in (3, 7, 12):
        t, tau = bipyramid_corpus[n]
        emb = extract_directed_embedding(t, tau)
        assert parse_embedding(serialize_embedding(emb)) == emb


@pytest.mark.parametrize("n", (3, 6, 7, 12))
def test_serialized_text_cones_to_the_same_faces(n, bipyramid_corpus):
    # an unnamed cycle is written under the name coning gives it, F<k>, so
    # any number of cycles may be unnamed
    t, tau = bipyramid_corpus[n]
    emb = extract_directed_embedding(t, tau)
    cases = [emb, directed_triangle(("", "x")), directed_triangle(("x", "")), directed_triangle(("", ""))]
    for k in (0, len(emb.face_cycles) - 1):
        cycles = list(emb.face_cycles)
        cycles[k] = ("", cycles[k][1])
        cases.append(DirectedEmbedding(emb.vertices, emb.arcs, tuple(cycles)))
    cases.append(DirectedEmbedding(emb.vertices, emb.arcs, tuple(("", c) for _, c in emb.face_cycles)))
    for case in cases:
        text = serialize_embedding(case)
        assert all(line.split()[1] != "" for line in text.splitlines())
        back = parse_embedding(text)
        assert back.face_cycles == tuple(
            (name or f"F{k}", cyc) for k, (name, cyc) in enumerate(case.face_cycles)
        )
        assert triangulate_embedding(back)[0].faces == triangulate_embedding(case)[0].faces


def test_an_unnamed_cycle_is_written_as_its_cone():
    text = serialize_embedding(directed_triangle(("", "x")))
    assert text.splitlines()[-2:] == ["c F0 0 1 2", "c x 0 1 2"]


@pytest.mark.parametrize("vertex, cycle", [
    ("a b", "x"), ("a#b", "x"), ("", "x"), ("3", "x y"), ("3", "x#"), ("3", "\tx"),
])
def test_serialize_rejects_a_name_that_is_no_token(vertex, cycle):
    arcs = (("1", "2"), ("2", vertex), (vertex, "1"))
    emb = DirectedEmbedding(("1", "2", vertex), arcs, ((cycle, arcs), ("y", arcs)))
    with pytest.raises(EmbeddingError, match="cannot serialize: vertex token"):
        serialize_embedding(emb)


def test_parse_embedding_small():
    emb = parse_embedding(
        "# a directed triangle\n"
        "v 1\nv 2\nv 3\n"
        "a 0 1 2\na 1 2 3\na 2 3 1\n"
        "c a 0 1 2\nc b 0 1 2\n"
    )
    assert emb == directed_triangle()


def test_parse_embedding_errors():
    with pytest.raises(ParseError, match="line 1"):
        parse_embedding("v\n")
    with pytest.raises(ParseError, match="out of order"):
        parse_embedding("v x\nv y\na 1 x y\n")
    with pytest.raises(ParseError, match="not an integer"):
        parse_embedding("v x\nv y\na zero x y\n")
    with pytest.raises(ParseError, match="out of range"):
        parse_embedding("v x\nv y\na 0 x y\nc f 0 1\n")
    with pytest.raises(ParseError, match="non-integer"):
        parse_embedding("v x\nv y\na 0 x y\nc f zero\n")
    # int() would read each of these; an index is decimal digits, -?[0-9]+
    for index in ("0_0", "+0", "\u0660"):
        message = f"^line 3: arc index {re.escape(repr(index))} is not an integer$"
        with pytest.raises(ParseError, match=message):
            parse_embedding(f"v x\nv y\na {index} x y\n")
        with pytest.raises(ParseError, match="^line 4: face cycle has a non-integer arc index$"):
            parse_embedding(f"v x\nv y\na 0 x y\nc f 0 {index}\n")
    with pytest.raises(ParseError, match="unknown record"):
        parse_embedding("q x\n")
