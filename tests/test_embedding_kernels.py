"""The Eulerian round trip's kernels against the rules they implement.

validate_embedding tests the valid case of each rule in whole passes and
loops only to name offenders, so every report is pinned here byte for
byte: one mutation of a valid embedding per rule, and two embeddings that
break several rules at once, which pin the order of the messages.
_coned_faces sorts each cone face inline, and must give face_key's keys
and face_key's error."""

from __future__ import annotations

import pytest

from zigzags import (
    DirectedEmbedding,
    TriangulationError,
    extract_directed_embedding,
    face_key,
    validate_embedding,
)
from zigzags.eulerian import _cone_name, _coned_faces

T = (("1", "2"), ("2", "3"), ("3", "1"))
V = ("1", "2", "3")
# a second directed triangle, for a second component
T2 = (("4", "5"), ("5", "6"), ("6", "4"))
# a triangle through a vertex that is no token
XY = (("1", "2"), ("2", "x y"), ("x y", "1"))
# a second directed triangle at 1: with T, a figure eight through 1
FIG8 = (("1", "4"), ("4", "5"), ("5", "1"))


def _emb(vertices=V, arcs=T, cycles=(("a", T), ("b", T))) -> DirectedEmbedding:
    """The directed triangle with both face cycles the whole cycle (valid),
    or a mutation of it."""
    return DirectedEmbedding(vertices, arcs, cycles)


# one mutation per rule, in the order validate_embedding tests the rules
ONE_RULE = {
    "repeated arc": (_emb(arcs=T + (("1", "2"),)), "arc 1->2 is declared more than once"),
    "loop": (_emb(arcs=T + (("1", "1"),)), "arc 1->1 is a loop"),
    "antiparallel": (_emb(arcs=T + (("2", "1"),)), "arcs 1->2 and 2->1 are antiparallel"),
    "unknown vertex": (_emb(arcs=T + (("1", "9"),)), "arc 1->9 references unknown vertex '9'"),
    "no vertices": (_emb((), (), ()), "no vertices"),
    "repeated vertex": (_emb(V + ("3",)), "vertex '3' is declared more than once"),
    "vertex no token": (
        _emb(("1", "2", "x y"), XY, (("a", XY), ("b", XY))),
        "vertex 'x y' is no token (empty, or holding whitespace or '#')",
    ),
    "unbalanced": (
        _emb(arcs=(("1", "2"), ("2", "3"), ("1", "3")), cycles=()),
        "vertex '1' has in-degree 0 but out-degree 2\n"
        "vertex '3' has in-degree 2 but out-degree 0\n"
        "vertex '3' is isolated\n"
        "arc 1->2 lies on 0 face cycle(s), expected 2\n"
        "arc 1->3 lies on 0 face cycle(s), expected 2\n"
        "arc 2->3 lies on 0 face cycle(s), expected 2",
    ),
    "isolated": (
        _emb(V + ("4",)),
        "vertex '4' is isolated\ngraph disconnected: reached 3 of 4 vertices",
    ),
    "disconnected": (
        _emb(V + ("4", "5", "6"), T + T2, (("a", T), ("b", T), ("c", T2), ("d", T2))),
        "graph disconnected: reached 3 of 6 vertices",
    ),
    "repeated names": (_emb(cycles=(("a", T), ("a", T))), "repeated face cycle names"),
    "cycle name no token": (
        _emb(cycles=(("a b", T), ("b", T))),
        "face cycle name 'a b' is no token (holding whitespace or '#')",
    ),
    "empty cycle": (_emb(cycles=(("a", T), ("b", T), ("c", ()))), "face cycle 'c' is empty"),
    "unknown arc": (
        _emb(cycles=(("a", T), ("b", (("1", "2"), ("2", "1"), ("3", "1"))))),
        "face cycle 'b' uses unknown arc 2->1\n"
        "face cycle 'b' breaks at 2->1 followed by 3->1\n"
        "face cycle 'b' visits vertex '1' more than once\n"
        "arc 2->3 lies on 1 face cycle(s), expected 2",
    ),
    "broken chain": (
        _emb(cycles=(("a", T), ("b", (T[0], T[2], T[1])))),
        "face cycle 'b' breaks at 1->2 followed by 3->1\n"
        "face cycle 'b' breaks at 3->1 followed by 2->3\n"
        "face cycle 'b' breaks at 2->3 followed by 1->2",
    ),
    "arc twice in a cycle": (
        _emb(cycles=(("a", T + T),)),
        "face cycle 'a' uses arc 1->2 more than once",
    ),
    "vertex twice in a cycle": (
        _emb(V + ("4", "5"), T + FIG8, (("a", T + FIG8), ("b", T + FIG8))),
        "face cycle 'a' visits vertex '1' more than once\n"
        "face cycle 'b' visits vertex '1' more than once",
    ),
    "coverage": (
        _emb(cycles=(("a", T),)),
        "arc 1->2 lies on 1 face cycle(s), expected 2\n"
        "arc 2->3 lies on 1 face cycle(s), expected 2\n"
        "arc 3->1 lies on 1 face cycle(s), expected 2",
    ),
    "pinched": (
        _emb(
            ("0", "1", "2", "3", "4"),
            (("0", "1"), ("1", "2"), ("2", "0"), ("2", "3"), ("3", "4"), ("4", "2")),
            tuple((name, cyc) for name, cyc in zip("ABCD", (
                (("0", "1"), ("1", "2"), ("2", "0")),
                (("0", "1"), ("1", "2"), ("2", "0")),
                (("2", "3"), ("3", "4"), ("4", "2")),
                (("2", "3"), ("3", "4"), ("4", "2")),
            ))),
        ),
        "the corners at vertex '2' form 2 cycles, not one",
    ),
}

# the arc rules report a sorted set, and stop validation there
SEVERAL_ARC_RULES = (
    DirectedEmbedding(
        ("2", "1", "2", "3"),
        (("3", "1"), ("1", "1"), ("2", "1"), ("1", "2"), ("1", "2"), ("2", "9"), ("8", "8")),
        (),
    ),
    "arc 1->1 is a loop\n"
    "arc 1->2 is declared more than once\n"
    "arc 2->9 references unknown vertex '9'\n"
    "arc 8->8 is a loop\n"
    "arc 8->8 references unknown vertex '8'\n"
    "arcs 1->2 and 2->1 are antiparallel\n"
    "vertex '2' is declared more than once",
)

# the later rules report vertex by vertex, then cycle by cycle and arc by
# arc, then the coverage arc by arc
SEVERAL_LATER_RULES = (
    DirectedEmbedding(
        ("1", "2", "3", "x y", "5", "z"),
        (("1", "2"), ("2", "3"), ("3", "1"), ("1", "x y"), ("x y", "3"), ("3", "z")),
        (
            ("e", T),
            ("#c", (("1", "2"), ("3", "1"), ("2", "3"))),
            ("", ()),
            ("d", (("1", "x y"), ("x y", "7"), ("1", "x y"))),
            ("e", T + T),
        ),
    ),
    "vertex '1' has in-degree 1 but out-degree 2\n"
    "vertex '5' is isolated\n"
    "vertex 'x y' is no token (empty, or holding whitespace or '#')\n"
    "vertex 'z' has in-degree 1 but out-degree 0\n"
    "vertex 'z' is isolated\n"
    "graph disconnected: reached 5 of 6 vertices\n"
    "repeated face cycle names\n"
    "face cycle name '#c' is no token (holding whitespace or '#')\n"
    "face cycle '#c' breaks at 1->2 followed by 3->1\n"
    "face cycle '#c' breaks at 3->1 followed by 2->3\n"
    "face cycle '#c' breaks at 2->3 followed by 1->2\n"
    "face cycle '' is empty\n"
    "face cycle 'd' breaks at 1->x y followed by 1->x y\n"
    "face cycle 'd' uses unknown arc x y->7\n"
    "face cycle 'd' breaks at x y->7 followed by 1->x y\n"
    "face cycle 'd' uses arc 1->x y more than once\n"
    "face cycle 'e' uses arc 1->2 more than once\n"
    "arc 1->2 lies on 4 face cycle(s), expected 2\n"
    "arc 2->3 lies on 4 face cycle(s), expected 2\n"
    "arc 3->1 lies on 4 face cycle(s), expected 2\n"
    "arc 3->z lies on 0 face cycle(s), expected 2\n"
    "arc x y->3 lies on 0 face cycle(s), expected 2",
)


def test_the_unmutated_embedding_is_valid():
    assert str(validate_embedding(_emb())) == "valid"


@pytest.mark.parametrize("rule", ONE_RULE)
def test_each_rule_names_its_offenders(rule):
    emb, report = ONE_RULE[rule]
    assert str(validate_embedding(emb)) == report


@pytest.mark.parametrize("case", (SEVERAL_ARC_RULES, SEVERAL_LATER_RULES), ids=("arcs", "later"))
def test_several_rules_report_in_order(case):
    emb, report = case
    assert str(validate_embedding(emb)) == report


def _keyed(emb: DirectedEmbedding) -> list:
    return [
        face_key(_cone_name(k, name), u, w)
        for k, (name, cyc) in enumerate(emb.face_cycles)
        for u, w in cyc
    ]


def test_coned_faces_are_face_keys(bipyramid_corpus, glued_corpus, tree_corpus):
    cases = [(t, tau) for t, tau in bipyramid_corpus.values()]
    cases += [(t, tau) for t, tau, _, _ in glued_corpus.values()]
    cases += [(t, tau) for _, t, tau, _ in tree_corpus]
    embs = [extract_directed_embedding(t, tau) for t, tau in cases]
    # unnamed cycles cone as F<k>, which sorts before and after other names
    for emb in embs[:3]:
        embs.append(
            DirectedEmbedding(emb.vertices, emb.arcs, tuple(("", c) for _, c in emb.face_cycles))
        )
    embs.append(_emb(cycles=(("", T), ("", T))))
    # cones that sort before, between and after the vertices of their arcs
    baz = (("B", "a"), ("a", "z"), ("z", "B"))
    embs.append(_emb(("B", "a", "z"), baz, (("m", baz), ("", baz), ("~", baz), ("A", baz))))
    for emb in embs:
        assert _coned_faces(emb) == _keyed(emb)


@pytest.mark.parametrize("cyc, face", [
    ((("1", "1"),), ("c", "1", "1")),
    ((("1", "2"), ("2", "2")), ("c", "2", "2")),
    ((("c", "1"),), ("c", "c", "1")),
    ((("1", "c"),), ("c", "1", "c")),
])
def test_coned_faces_raise_face_keys_error(cyc, face):
    # an embedding handed over unvalidated: a loop arc, or an arc at the cone
    emb = _emb(cycles=(("c", cyc),))
    message = f"face vertices must be pairwise distinct, got {face!r}"
    with pytest.raises(TriangulationError) as caught:
        face_key(*face)
    assert str(caught.value) == message
    with pytest.raises(TriangulationError) as caught:
        _coned_faces(emb)
    assert str(caught.value) == message

