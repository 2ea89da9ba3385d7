"""End-to-end command line tests, run in process."""

from __future__ import annotations

import pytest

from helpers import torus_grid
from zigzags import bipyramid, parse_triangulation, serialize_triangulation, tree_build, TreeSpec
from zigzags.cli import main

BP5_FULL_REPORT = """\
zigzags: 1 (lengths 30)
z-knotted: yes
bits: 0
edges: 10 type I, 5 type II
vertices: 2 type I, 5 type II
faces: 10 type I, 0 type II
homogeneous: yes
balance:
  1 in=1 out=1
  2 in=1 out=1
  3 in=1 out=1
  4 in=1 out=1
  5 in=1 out=1
  a in=0 out=0
  b in=0 out=0
special pairs: 5
  1-2 / 1-5 at 1 (special)
  1-5 / 4-5 at 5 (special)
  2-3 / 1-2 at 2 (special)
  3-4 / 2-3 at 3 (special)
  4-5 / 3-4 at 4 (special)
"""


# a piece's report lists its piece pairs (find_piece_pairs), each with the
# census's site kind
BP4_PIECE_REPORT = """\
zigzags: 4 (lengths 6, 6, 6, 6)
z-knotted: no
bits: 0011
edges: 8 type I, 4 type II
vertices: 2 type I, 4 type II
faces: 8 type I, 0 type II
homogeneous: yes
balance:
  1 in=1 out=1
  2 in=1 out=1
  3 in=1 out=1
  4 in=1 out=1
  a in=0 out=0
  b in=0 out=0
special pairs: 4
  1-2 / 1-4 at 1 (four_zigzag_piece)
  1-2 / 2-3 at 2 (four_zigzag_piece)
  1-4 / 3-4 at 4 (four_zigzag_piece)
  2-3 / 3-4 at 3 (four_zigzag_piece)
"""

BP6_PIECE_TSV = """\
zigzag\t0\t18
zigzag\t1\t18
z_knotted\tfalse
bits\t01
edge\t1\t2\tII\t1\t2
edge\t1\t6\tII\t6\t1
edge\t1\ta\tI
edge\t1\tb\tI
edge\t2\t3\tII\t2\t3
edge\t2\ta\tI
edge\t2\tb\tI
edge\t3\t4\tII\t3\t4
edge\t3\ta\tI
edge\t3\tb\tI
edge\t4\t5\tII\t4\t5
edge\t4\ta\tI
edge\t4\tb\tI
edge\t5\t6\tII\t5\t6
edge\t5\ta\tI
edge\t5\tb\tI
edge\t6\ta\tI
edge\t6\tb\tI
vertex\t1\tII
vertex\t2\tII
vertex\t3\tII
vertex\t4\tII
vertex\t5\tII
vertex\t6\tII
vertex\ta\tI
vertex\tb\tI
face\t1\t2\ta\tI
face\t1\t2\tb\tI
face\t1\t6\ta\tI
face\t1\t6\tb\tI
face\t2\t3\ta\tI
face\t2\t3\tb\tI
face\t3\t4\ta\tI
face\t3\t4\tb\tI
face\t4\t5\ta\tI
face\t4\t5\tb\tI
face\t5\t6\ta\tI
face\t5\t6\tb\tI
homogeneous\ttrue
balance\t1\t1\t1
balance\t2\t1\t1
balance\t3\t1\t1
balance\t4\t1\t1
balance\t5\t1\t1
balance\t6\t1\t1
balance\ta\t0\t0
balance\tb\t0\t0
pair\t1\t2\t1\t6\t1\ttwo_zigzag_piece
pair\t1\t2\t2\t3\t2\ttwo_zigzag_piece
pair\t1\t6\t5\t6\t6\ttwo_zigzag_piece
pair\t2\t3\t3\t4\t3\ttwo_zigzag_piece
pair\t3\t4\t4\t5\t4\ttwo_zigzag_piece
pair\t4\t5\t5\t6\t5\ttwo_zigzag_piece
"""


def run(capsys, *argv):
    try:
        rc = main(list(argv))
    except SystemExit as e:  # argparse errors
        rc = e.code if isinstance(e.code, int) else 2
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture()
def bp5(tmp_path, capsys):
    path = tmp_path / "bp5.tri"
    rc, _, _ = run(capsys, "generate", "bipyramid", "--n", "5", "-o", str(path))
    assert rc == 0
    return path


# ----------------------------------------------------------------------
# generate


def test_generate_to_stdout(capsys):
    rc, out, err = run(capsys, "generate", "bipyramid", "--n", "3")
    assert rc == 0
    assert parse_triangulation(out) == bipyramid(3)
    assert err.splitlines() == ["zigzags: 1 (z-knotted)", "homogeneous zorient: 0"]


def test_generate_to_file_reports_on_stdout(tmp_path, capsys):
    path = tmp_path / "bp4.tri"
    rc, out, err = run(capsys, "generate", "bipyramid", "--n", "4", "-o", str(path))
    assert rc == 0
    assert err == ""
    assert "zigzags: 4" in out
    assert "homogeneous zorient: 0011" in out
    assert parse_triangulation(path.read_text()) == bipyramid(4)


def test_generate_prefix(capsys):
    rc, out, _ = run(capsys, "generate", "bipyramid", "--n", "3", "--prefix", "L.")
    assert rc == 0
    assert parse_triangulation(out) == bipyramid(3, "L.")


def test_generate_platonic(capsys):
    rc, out, err = run(capsys, "generate", "platonic", "--name", "tetrahedron")
    assert rc == 0
    t = parse_triangulation(out)
    assert (len(t.vertices), len(t.faces)) == (4, 4)
    assert err.splitlines() == ["zigzags: 3"]


# ----------------------------------------------------------------------
# analyze


def test_analyze_census_only(bp5, capsys):
    rc, out, _ = run(capsys, "analyze", str(bp5))
    assert rc == 0
    assert out == "zigzags: 1 (lengths 30)\nz-knotted: yes\n"


def test_analyze_full_text(bp5, capsys):
    rc, out, _ = run(capsys, "analyze", str(bp5), "--zorient", "0")
    assert rc == 0
    assert out == BP5_FULL_REPORT


def test_analyze_tsv(bp5, capsys):
    rc, out, _ = run(capsys, "analyze", str(bp5), "--zorient", "0", "--format", "tsv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "zigzag\t0\t30"
    assert lines[1] == "z_knotted\ttrue"
    assert lines[2] == "bits\t0"
    assert "edge\t1\t2\tII\t1\t2" in lines
    assert "edge\t1\ta\tI" in lines
    assert "vertex\ta\tI" in lines
    assert "face\t1\t2\ta\tI" in lines
    assert "homogeneous\ttrue" in lines
    assert "balance\t3\t1\t1" in lines
    assert "pair\t1\t2\t1\t5\t1\tspecial" in lines


@pytest.mark.parametrize("n, bits, fmt, expected", [
    (4, "0011", "text", BP4_PIECE_REPORT),
    (6, "01", "tsv", BP6_PIECE_TSV),
], ids=["bp4-text", "bp6-tsv"])
def test_analyze_reports_a_piece(tmp_path, capsys, n, bits, fmt, expected):
    path = tmp_path / f"bp{n}.tri"
    run(capsys, "generate", "bipyramid", "--n", str(n), "-o", str(path))
    rc, out, err = run(capsys, "analyze", str(path), "--zorient", bits, "--format", fmt)
    assert (rc, out, err) == (0, expected, "")


def test_analyze_is_deterministic(bp5, capsys):
    rc, first, _ = run(capsys, "analyze", str(bp5), "--zorient", "0")
    rc, second, _ = run(capsys, "analyze", str(bp5), "--zorient", "0")
    assert first == second


# ----------------------------------------------------------------------
# convert


def test_convert_round_trip(bp5, tmp_path, capsys):
    eul = tmp_path / "bp5.eul"
    rc, _, _ = run(capsys, "convert", "--extract", str(bp5), "--zorient", "0",
                   "-o", str(eul))
    assert rc == 0
    assert eul.read_text().startswith("v 1\n")
    back = tmp_path / "back.tri"
    rc, out, err = run(capsys, "convert", "--triangulate", str(eul), "-o", str(back))
    assert rc == 0
    assert "homogeneous zorient: 0" in out
    assert set(parse_triangulation(back.read_text()).faces) == set(bipyramid(5).faces)


def test_convert_names_an_antiparallel_pair_once(tmp_path, capsys):
    eul = tmp_path / "anti.eul"
    eul.write_text("v x\nv y\na 0 x y\na 1 y x\n")
    rc, _, err = run(capsys, "convert", "--triangulate", str(eul))
    assert rc == 1
    assert err == "error: arcs x->y and y->x are antiparallel\n"


def test_convert_extract_requires_bits(bp5, capsys):
    rc, _, err = run(capsys, "convert", "--extract", str(bp5))
    assert rc == 2
    assert "usage error: --extract requires --zorient" in err


# ----------------------------------------------------------------------
# glue


def glue_args(tmp_path, capsys):
    host = tmp_path / "L3.tri"
    piece = tmp_path / "R4.tri"
    run(capsys, "generate", "bipyramid", "--n", "3", "--prefix", "L.", "-o", str(host))
    run(capsys, "generate", "bipyramid", "--n", "4", "--prefix", "R.", "-o", str(piece))
    return ["glue", "--host", str(host), "--piece", str(piece),
            "--host-pair", "L.3,L.1,L.2", "--piece-pair", "R.1,R.2,R.3"]


def test_glue_report_and_output(tmp_path, capsys):
    out_path = tmp_path / "glued.tri"
    rc, out, err = run(capsys, *glue_args(tmp_path, capsys), "-o", str(out_path))
    assert rc == 0
    assert out.splitlines() == [
        "vertices: 9",
        "edges: 21",
        "faces: 14",
        "euler characteristic: 2",
        "zigzag length: 42",
        "prediction matches: yes",
        "homogeneous: yes",
        "homogeneous zorient: 0",
    ]
    glued = parse_triangulation(out_path.read_text())
    assert (len(glued.vertices), len(glued.edges), len(glued.faces)) == (9, 21, 14)
    assert glued.validate().ok


def test_glue_is_deterministic(tmp_path, capsys):
    a = tmp_path / "a.tri"
    b = tmp_path / "b.tri"
    args = glue_args(tmp_path, capsys)
    run(capsys, *args, "-o", str(a))
    run(capsys, *args, "-o", str(b))
    assert a.read_text() == b.read_text()


def test_glue_reports_a_bad_host_pair_in_the_order_given(tmp_path, capsys):
    # neither L.1-L.b nor L.a-L.b is type II: the first edge named is reported
    args = glue_args(tmp_path, capsys)
    args[args.index("--host-pair") + 1] = "L.1,L.b,L.a"
    rc, out, err = run(capsys, *args)
    assert (rc, out) == (1, "")
    assert err == "error: pair edge ('L.1', 'L.b') is not type II\n"


def test_glue_names_a_pair_edge_that_is_no_edge(tmp_path, capsys):
    args = glue_args(tmp_path, capsys)
    args[args.index("--host-pair") + 1] = "L.3,L.1,L.9"
    rc, out, err = run(capsys, *args)
    assert (rc, out) == (1, "")
    assert err == "error: pair edge ('L.1', 'L.9') is no edge of the triangulation\n"


def test_glue_rejects_a_pair_of_two_vertices(tmp_path, capsys):
    args = glue_args(tmp_path, capsys)
    args[args.index("--host-pair") + 1] = "L.1,L.2"
    rc, out, err = run(capsys, *args)
    assert (rc, out) == (2, "")
    assert err == "usage error: pair must be three comma-separated vertices u,v,w, got 'L.1,L.2'\n"


@pytest.mark.parametrize("option", ("--host-pair", "--piece-pair"))
@pytest.mark.parametrize("pair", ("L.1,L.1,L.2", "L.1,L.2,L.1"))
def test_glue_rejects_a_pair_that_repeats_a_vertex(tmp_path, capsys, option, pair):
    # a vertex named twice is a malformed pair, whichever place it repeats
    args = glue_args(tmp_path, capsys)
    args[args.index(option) + 1] = pair
    rc, out, err = run(capsys, *args)
    assert (rc, out) == (2, "")
    assert err == f"usage error: pair must be three distinct vertices u,v,w, got {pair!r}\n"


def test_glue_checks_the_host_census_before_searching_z_orientations(tmp_path, capsys):
    # the 7 x 7 grid torus has 21 zigzags, and no --host-zorient was given:
    # no host has more than one, so no orientation is searched
    args = glue_args(tmp_path, capsys)
    host = tmp_path / "torus.tri"
    host.write_text(serialize_triangulation(torus_grid(7)))
    args[args.index("--host") + 1] = str(host)
    rc, out, err = run(capsys, *args)
    assert (rc, out) == (1, "")
    assert err == "error: a host needs one zigzag, not 21\n"


def test_glue_names_the_census_of_a_host_that_is_a_piece(tmp_path, capsys):
    # the roles swapped: the four-zigzag BP(4) as host, the z-knotted BP(3) as piece
    args = glue_args(tmp_path, capsys)
    host, piece = args[args.index("--host") + 1], args[args.index("--piece") + 1]
    args[args.index("--host") + 1], args[args.index("--piece") + 1] = piece, host
    args[args.index("--host-pair") + 1] = "R.1,R.2,R.3"
    args[args.index("--piece-pair") + 1] = "L.3,L.1,L.2"
    rc, out, err = run(capsys, *args)
    assert (rc, out) == (1, "")
    assert err == "error: a host needs one zigzag, not 4\n"


@pytest.mark.parametrize("piece_pair", ("R.1,R.2,R.3", "R.3,R.2,R.1"))
def test_glue_names_the_census_of_a_z_knotted_piece(tmp_path, capsys, piece_pair):
    host = tmp_path / "L3.tri"
    piece = tmp_path / "R5.tri"
    run(capsys, "generate", "bipyramid", "--n", "3", "--prefix", "L.", "-o", str(host))
    run(capsys, "generate", "bipyramid", "--n", "5", "--prefix", "R.", "-o", str(piece))
    rc, out, err = run(capsys, "glue", "--host", str(host), "--piece", str(piece),
                       "--host-pair", "L.1,L.2,L.3", "--piece-pair", piece_pair)
    assert (rc, out) == (1, "")
    assert err == "error: a piece needs two or four zigzags, not 1\n"


# ----------------------------------------------------------------------
# build-tree


def test_build_tree(tmp_path, capsys):
    tree = tmp_path / "t.tree"
    tree.write_text("n r 5\nn x 4\nn y 6\na r x\na r y\n")
    built = tmp_path / "built.tri"
    rc, out, _ = run(capsys, "build-tree", str(tree), "-o", str(built))
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("glued node x into r at")
    assert lines[1].startswith("glued node y into r at")
    assert lines[2:] == [
        "vertices: 17",
        "edges: 45",
        "faces: 30",
        "euler characteristic: 2",
        "zigzag length: 90",
        "type-I vertices: 6",
        "homogeneous zorient: 0",
    ]
    expected, _, _ = tree_build(
        TreeSpec((("r", 5), ("x", 4), ("y", 6)), (("r", "x"), ("r", "y")))
    )
    assert parse_triangulation(built.read_text()) == expected


def test_an_empty_output_path_keeps_stdout_a_tri(bp5, tmp_path, capsys):
    # -o '' writes the .tri to stdout, as no -o does, so the lines that
    # -o FILE prints on stdout go to stderr
    eul, tree = tmp_path / "bp5.eul", tmp_path / "t.tree"
    run(capsys, "convert", "--extract", str(bp5), "--zorient", "0", "-o", str(eul))
    tree.write_text("n r 5\nn x 4\na r x\n")
    for argv in (
        ["generate", "bipyramid", "--n", "3"],
        ["convert", "--triangulate", str(eul)],
        glue_args(tmp_path, capsys),
        ["build-tree", str(tree)],
    ):
        path = tmp_path / "out.tri"
        rc, info, _ = run(capsys, *argv, "-o", str(path))
        assert rc == 0 and info
        rc, out, err = run(capsys, *argv, "-o", "")
        assert (rc, out, err) == (0, path.read_text(), info)
        assert parse_triangulation(out).validate().ok


def test_build_tree_rejects_invalid(tmp_path, capsys):
    tree = tmp_path / "bad.tree"
    tree.write_text("n r 4\n")
    rc, _, err = run(capsys, "build-tree", str(tree))
    assert rc == 1
    assert err.startswith("error:")


# ----------------------------------------------------------------------
# verify


def test_verify_all_formats(bp5, tmp_path, capsys):
    rc, out, _ = run(capsys, "verify", str(bp5))
    assert (rc, out) == (0, "OK\n")
    eul = tmp_path / "bp5.eul"
    run(capsys, "convert", "--extract", str(bp5), "--zorient", "0", "-o", str(eul))
    rc, out, _ = run(capsys, "verify", str(eul))
    assert (rc, out) == (0, "OK\n")
    tree = tmp_path / "t.tree"
    tree.write_text("n r 5\nn x 4\na r x\n")
    rc, out, _ = run(capsys, "verify", str(tree))
    assert (rc, out) == (0, "OK\n")


def test_verify_reports_violations(tmp_path, capsys):
    bad = tmp_path / "open.tri"
    bad.write_text("f 1 2 3\n")
    rc, out, err = run(capsys, "verify", str(bad))
    assert rc == 1
    assert out == ""
    assert "expected 2" in err


# a directed triangle whose two face cycles each run all three arcs
TRIANGLE_EUL = "v 1\nv 2\nv 3\na 0 1 2\na 1 2 3\na 2 3 1\nc a 0 1 2\nc b 0 1 2\n"


@pytest.mark.parametrize("name, text, violations", [
    ("empty.tri", "", "no faces"),
    ("twice.eul", "v x\nv y\nv z\na 0 x y\na 1 x y\na 2 y z\n",
     "arc x->y is declared more than once"),
    ("thrice.eul", "v x\nv y\nv z\na 0 y z\na 1 x y\na 2 y z\na 3 x y\na 4 y z\n",
     "arc x->y is declared more than once\narc y->z is declared more than once"),
    ("bare.eul", "a 0 x y\n",
     "arc x->y references unknown vertex 'x'\narc x->y references unknown vertex 'y'\n"
     "no vertices"),
    ("dup.eul", "v 1\n" + TRIANGLE_EUL, "vertex '1' is declared more than once"),
], ids=["empty.tri", "twice.eul", "thrice.eul", "bare.eul", "dup.eul"])
def test_verify_prints_each_violation(tmp_path, capsys, name, text, violations):
    path = tmp_path / name
    path.write_text(text)
    rc, out, err = run(capsys, "verify", str(path))
    assert (rc, out, err) == (1, "", violations + "\n")


def test_convert_names_a_repeated_vertex(tmp_path, capsys):
    ok, dup = tmp_path / "ok.eul", tmp_path / "dup.eul"
    ok.write_text(TRIANGLE_EUL)
    dup.write_text("v 1\n" + TRIANGLE_EUL)
    assert run(capsys, "verify", str(ok)) == (0, "OK\n", "")
    rc, out, err = run(capsys, "convert", "--triangulate", str(dup))
    assert (rc, out, err) == (1, "", "error: vertex '1' is declared more than once\n")


def test_a_cycle_named_like_a_vertex_fails_verify_as_it_fails_coning(tmp_path, capsys):
    # the cycles cone under the names 1 and b, and vertex 1 is taken
    path = tmp_path / "named.eul"
    path.write_text(TRIANGLE_EUL.replace("c a ", "c 1 "))
    message = "face cycle name '1' collides with another vertex"
    assert run(capsys, "verify", str(path)) == (1, "", message + "\n")
    assert run(capsys, "convert", "--triangulate", str(path)) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("name, text, message", [
    ("arc.eul", "v x\nv y\na 0 x\n", "line 3: expected 'a <index> <from> <to>'"),
    ("cycle.eul", "v x\nv y\na 0 x y\nc F\n", "line 4: expected 'c <name> <i1> ...'"),
    ("arc.tree", "n r 5\nn x 4\na r\n", "line 3: expected 'a <id1> <id2>', got 'a r'"),
    ("dup.tree", "n r 5\nn r 4\n", "line 2: node id 'r' is declared more than once"),
    ("dup3.tree", "n r 5\nn x 4\na r x\nn x 6\n",
     "line 4: node id 'x' is declared more than once"),
    # int() would read 1_1 as 11 and 0_1 as 1; these verified OK before
    ("label.tree", "n r 1_1\n", "line 1: label '1_1' is not an integer"),
    ("index.eul", "v x\nv y\na 0_1 x y\n", "line 3: arc index '0_1' is not an integer"),
    ("cycle_index.eul", "v x\nv y\na 0 x y\nc F 0 0_0\n",
     "line 4: face cycle has a non-integer arc index"),
], ids=[
    "arc.eul", "cycle.eul", "arc.tree", "dup.tree", "dup3.tree", "label.tree", "index.eul",
    "cycle_index.eul",
])
def test_verify_names_a_malformed_record(tmp_path, capsys, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    rc, out, err = run(capsys, "verify", str(path))
    assert (rc, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("text, message", [
    ("n r 5\nn x 4\na r r\n", "line 3: edge ('r', 'r') joins a node to itself"),
    ("n r 5\nn x 4\na r x\na x r\n", "line 4: duplicate edge ('x', 'r')"),
], ids=["loop.tree", "twice.tree"])
def test_tree_verbs_name_the_line_of_a_bad_arc(tmp_path, capsys, text, message):
    # as every other .tree parse error does, on both verbs that parse a tree
    path = tmp_path / "bad.tree"
    path.write_text(text)
    for verb in ("verify", "build-tree"):
        assert run(capsys, verb, str(path)) == (1, "", f"error: {message}\n")


def test_verify_unknown_extension(tmp_path, capsys):
    f = tmp_path / "x.unknown"
    f.write_text("")
    rc, _, err = run(capsys, "verify", str(f))
    assert rc == 2
    assert "cannot infer format" in err


# ----------------------------------------------------------------------
# export-dot


def test_export_dot_plain(bp5, capsys):
    rc, out, _ = run(capsys, "export-dot", str(bp5))
    assert rc == 0
    assert out.startswith("graph triangulation {")
    assert out.rstrip().endswith("}")
    assert out.count(" -- ") == 15


def test_export_dot_typed(bp5, capsys):
    rc, out, _ = run(capsys, "export-dot", str(bp5), "--zorient", "0")
    assert rc == 0
    assert out.startswith("digraph triangulation {")
    assert out.count("[style=bold]") == 5
    assert out.count("[dir=none]") == 10


# a tetrahedron with the legal token q"\ as a vertex, written in DOT
QUOTED_TET_DOT = r'''graph triangulation {
  "1";
  "2";
  "3";
  "q\"\\";
  "1" -- "2";
  "1" -- "3";
  "1" -- "q\"\\";
  "2" -- "3";
  "2" -- "q\"\\";
  "3" -- "q\"\\";
}
'''


def test_export_dot_escapes_quotes_and_backslashes(tmp_path, capsys):
    # a DOT quoted ID escapes each '"' and '\' of a token
    path = tmp_path / "tet.tri"
    path.write_text('f 1 2 q"\\\nf 1 2 3\nf 1 3 q"\\\nf 2 3 q"\\\n')
    rc, out, _ = run(capsys, "export-dot", str(path))
    assert (rc, out) == (0, QUOTED_TET_DOT)
    rc, out, _ = run(capsys, "export-dot", str(path), "--zorient", "000")
    assert rc == 0
    assert r'  "q\"\\" -> "1" [style=bold];' in out.splitlines()


# ----------------------------------------------------------------------
# error handling


def test_missing_file(capsys):
    rc, _, err = run(capsys, "analyze", "/nonexistent/nope.tri")
    assert rc == 1
    assert err.startswith("error:")


def test_wrong_bit_count(bp5, capsys):
    rc, _, err = run(capsys, "analyze", str(bp5), "--zorient", "0101")
    assert rc == 1
    assert "expected 1 bits, got 4" in err


def test_unknown_subcommand(capsys):
    rc, _, _ = run(capsys, "frobnicate")
    assert rc == 2


def test_invalid_triangulation_is_domain_error(tmp_path, capsys):
    bad = tmp_path / "open.tri"
    bad.write_text("f 1 2 3\n")
    rc, _, err = run(capsys, "analyze", str(bad))
    assert rc == 1
    assert err.startswith("error:")


KNOTTED_NOT_HOMOGENEOUS = "".join(f"f {f}\n" for f in (
    "1 2 3", "1 2 b", "1 3 a", "1 4 5", "1 4 a", "1 5 b", "2 3 b", "3 a b", "4 5 b", "4 a b",
))


@pytest.mark.parametrize("argv, files, message", [
    # ParseError
    (["analyze", "bad.tri"], {"bad.tri": "x 1 2 3\n"}, "line 1: unknown record type 'x'"),
    # TriangulationError
    (["analyze", "open.tri"], {"open.tri": "f 1 2 3\n"},
     "invalid triangulation: edge 1-2 lies in 1 face(s), expected 2; edge 1-3 lies in 1 "
     "face(s), expected 2; edge 2-3 lies in 1 face(s), expected 2; link of vertex 1 is not "
     "a single cycle; link of vertex 2 is not a single cycle; link of vertex 3 is not a "
     "single cycle"),
    # EmbeddingError
    (["convert", "--triangulate", "anti.eul"], {"anti.eul": "v x\nv y\na 0 x y\na 1 y x\n"},
     "arcs x->y and y->x are antiparallel"),
    # SurgeryError: a z-knotted 7-vertex sphere with no homogeneous z-orientation
    (["glue", "--host", "knot.tri", "--piece", "knot.tri", "--host-pair", "1,2,3",
      "--piece-pair", "1,2,3"], {"knot.tri": KNOTTED_NOT_HOMOGENEOUS},
     "no homogeneous z-orientation exists; pass bits explicitly"),
    # TreeError
    (["build-tree", "bad.tree"], {"bad.tree": "n r 4\n"},
     "expected exactly one odd-labeled node (the root), found 0"),
    # a bits string that is no 0/1 string
    (["analyze", "tetra.tri", "--zorient", "2"],
     {"tetra.tri": "f 1 2 3\nf 1 2 4\nf 1 3 4\nf 2 3 4\n"},
     "z-orientation bits must be a 0/1 string, got '2'"),
    # OSError
    (["analyze", "nope.tri"], {}, "[Errno 2] No such file or directory: '{tmp}/nope.tri'"),
    # SurgeryError: the tetrahedron's 3 zigzags fit no host, checked before any search
    (["glue", "--host", "tetra.tri", "--piece", "tetra.tri", "--host-pair", "1,2,3",
      "--piece-pair", "1,2,3"], {"tetra.tri": "f 1 2 3\nf 1 2 4\nf 1 3 4\nf 2 3 4\n"},
     "a host needs one zigzag, not 3"),
])
def test_each_error_family_exits_1_with_its_message(tmp_path, capsys, argv, files, message):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a.endswith((".tri", ".eul", ".tree")) else a for a in argv]
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (1, "")
    assert err == f"error: {message.replace('{tmp}', str(tmp_path))}\n"
