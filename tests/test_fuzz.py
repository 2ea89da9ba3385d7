"""Fuzzing the three text formats through the command-line verbs.

Records are drawn from small token alphabets, malformed ones included, and
mixed with records of real surfaces, embeddings and trees so that inputs
also reach the verbs past their parsers.  Whatever the input, the library
raises only its own error types, and main exits 0, 1 or 2.
"""

from __future__ import annotations

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from zigzags import (
    EmbeddingError,
    InvariantError,
    ParseError,
    SurgeryError,
    TreeError,
    TriangulationError,
    bipyramid,
    bipyramid_canonical_zorientation,
    enumerate_zigzags,
    extract_directed_embedding,
    parse_triangulation,
    platonic,
    serialize_embedding,
    serialize_triangulation,
)
from zigzags.cli import UsageError, _build_parser, main

LIBRARY_ERRORS = (
    ParseError, TriangulationError, EmbeddingError, TreeError, SurgeryError, InvariantError,
)
MAX_RECORDS = 12


# records of real inputs, so that a draw can be well formed or nearly so
SURFACES = [serialize_triangulation(t).splitlines() for t in (
    platonic("tetrahedron"), bipyramid(3), bipyramid(4), bipyramid(5), bipyramid(6),
)]
EMBEDDINGS = [
    serialize_embedding(
        extract_directed_embedding(bipyramid(n), bipyramid_canonical_zorientation(n))
    ).splitlines()
    for n in (3, 4)
]
TREES = [["n r 5", "n x 4", "a r x"], ["n r 3"], ["n r 5", "n x 4", "n y 6", "a r x", "a r y"]]

VERTEX = st.sampled_from(["1", "2", "3", "4", "5", "6", "a", "b"])
INTEGER = st.sampled_from(["0", "1", "2", "3", "5", "12", "-1", "0_1", "+1", "٣", "x"])
LABEL = st.sampled_from(["3", "4", "5", "6", "7", "8", "12", "-5", "1_1", "+4", "x"])
NODE = st.sampled_from(["r", "x", "y", "z"])
JUNK = st.sampled_from(["", "# a comment", "f", "v", "a", "c", "n", "q 1 2", "f 1 1 2"])


def _record(kind: str, *fields) -> st.SearchStrategy[str]:
    return st.tuples(*fields).map(lambda fs: " ".join((kind, *fs)))


TRI_RECORD = st.one_of(_record("f", VERTEX, VERTEX, VERTEX), _record("f", VERTEX, VERTEX), JUNK)
EUL_RECORD = st.one_of(
    _record("v", VERTEX),
    _record("a", INTEGER, VERTEX, VERTEX),
    st.tuples(VERTEX, st.lists(INTEGER, max_size=4)).map(
        lambda d: " ".join(("c", d[0], *d[1]))
    ),
    JUNK,
)
TREE_RECORD = st.one_of(_record("n", NODE, LABEL), _record("a", NODE, NODE), JUNK)


def _text(records, real) -> st.SearchStrategy[str]:
    """Drawn records, a real input, or a real input with one record replaced
    by up to two drawn ones."""
    drawn = st.lists(records, max_size=MAX_RECORDS)
    edited = st.tuples(st.sampled_from(real), drawn, st.integers(0, 12), st.integers(0, 2)).map(
        lambda d: d[0][:d[2]] + d[1][:d[3]] + d[0][d[2] + 1:]
    )
    whole = st.sampled_from(real)
    return st.one_of(drawn, edited, whole).map(lambda lines: "\n".join(lines) + "\n")


def _run(argv: list[str]) -> int:
    """The verb's exit status as main gives it, after running the verb once
    unguarded, so that an error of any other type fails the test: main
    turns every ValueError into exit status 1."""
    args = _build_parser().parse_args(argv)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args.func(args)
        except (*LIBRARY_ERRORS, UsageError):
            pass
        return main(argv)


def _bit_count(tri: str) -> int:
    """The number of zigzags of a valid surface, else 1."""
    try:
        return len(enumerate_zigzags(parse_triangulation(tri)))
    except LIBRARY_ERRORS:
        return 1


@settings(max_examples=60, deadline=None)
@given(
    tri=_text(TRI_RECORD, SURFACES),
    eul=_text(EUL_RECORD, EMBEDDINGS),
    tree=_text(TREE_RECORD, TREES),
    data=st.data(),
)
def test_every_verb_fails_only_with_a_library_error(tmp_path_factory, tri, eul, tree, data):
    # --zorient bits that fit the surface, so the verbs run past the bits to
    # classify, extract and orient, or bits of any length and alphabet,
    # which are a TriangulationError
    k = _bit_count(tri)
    fitting = st.text(alphabet="01", min_size=k, max_size=k)
    bits = data.draw(st.one_of(fitting, st.text(alphabet="012", max_size=6)), label="bits")
    base = tmp_path_factory.getbasetemp() / "fuzz"
    base.mkdir(exist_ok=True)
    paths = {}
    for name, text in (("in.tri", tri), ("in.eul", eul), ("in.tree", tree)):
        paths[name] = str(base / name)
        with open(paths[name], "w", encoding="utf-8") as f:
            f.write(text)
    tri_path, eul_path, tree_path = paths["in.tri"], paths["in.eul"], paths["in.tree"]
    for argv in (
        ["verify", tri_path],
        ["verify", eul_path],
        ["verify", tree_path],
        ["analyze", tri_path],
        ["analyze", tri_path, "--zorient", bits, "--format", "tsv"],
        ["convert", "--extract", tri_path, "--zorient", bits],
        ["convert", "--triangulate", eul_path],
        ["build-tree", tree_path],
        ["export-dot", tri_path],
        ["export-dot", tri_path, "--zorient", bits],
    ):
        assert _run(argv) in (0, 1, 2), argv
