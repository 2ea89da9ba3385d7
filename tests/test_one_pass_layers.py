"""The one-pass parse, closed-surface check, special-pair sweep and zigzag
enumeration against the rules they replace (layer_oracle): the same
result, or the same error with the same text, on the census, torus,
flipped and tree corpora, on damaged surfaces and texts, and on forged
inputs that no surface gives."""

from __future__ import annotations

import dataclasses
import random
import re
from types import SimpleNamespace

import pytest

import layer_oracle as oracle
import zigzags.engine as engine
from helpers import random_flips, torus7, torus_grid
from zigzags import (
    InvariantError,
    Triangulation,
    TriangulationError,
    bipyramid,
    bipyramid_canonical_zorientation,
    classify,
    enumerate_zigzags,
    find_special_pairs,
    parse_triangulation,
    platonic,
    serialize_triangulation,
)
from zigzags.surgery import SurgeryError


def _outcome(fn, *args):
    """fn's result, or its error's type and text."""
    try:
        return fn(*args)
    except (TriangulationError, SurgeryError) as exc:
        return type(exc).__name__, str(exc)


def _surfaces(tree_corpus) -> list[Triangulation]:
    rng = random.Random(33)
    out = [bipyramid(n) for n in range(3, 15)]
    out += [platonic(name) for name in ("tetrahedron", "octahedron", "icosahedron")]
    out += [torus7(), *(torus_grid(m) for m in (3, 4, 5))]
    out += [random_flips(bipyramid(n), rng, k) for n in (5, 8, 12) for k in (2, 6)]
    return out + [t for _, t, _, _ in tree_corpus]


def _damaged(t: Triangulation) -> dict[str, list]:
    """Face lists that are no closed surface, each built from t."""
    faces = list(t.faces)
    u, v = t.edges[0]
    x = t.vertices[-1]
    return {
        "open": faces[1:],
        "two spheres": faces + [tuple(w + "'" for w in f) for f in faces],
        "pinched": faces + [tuple(w if w == x else w + "'" for w in f) for f in faces],
        "edge in three faces": faces + [(u, v, "extra")],
    }


# ----------------------------------------------------------------------
# parse


def _texts(t: Triangulation) -> dict[str, str]:
    """t's text and the same records written other ways, then each kind of
    record at fault, once near the start and once at the end."""
    text = serialize_triangulation(t)
    lines = text.splitlines()
    a, b, c = t.faces[1]
    out = {
        "plain": text,
        "comments": "# a header\n" + "".join(f"{r}  # face {i}\n" for i, r in enumerate(lines)),
        "crlf": text.replace("\n", "\r\n"),
        "blank lines": "\n\n".join(lines) + "\n\n",
        "indented": "".join(f"   \t{r}\n" for r in lines),
        "no newline at the end": text.rstrip("\n"),
        "comment glued to a field": text.replace("\n", "#x\n", 1),
    }
    faults = {
        "unknown type": "g 1 2 3",
        "short record": "f 1 2",
        "long record": "f 1 2 3 4",
        "repeated vertex": f"f {a} {b} {a}",
        "duplicate face": f"f {c} {a} {b}",
        "a type alone": "f",
    }
    for name, record in faults.items():
        out[f"{name} at line 2"] = "\n".join([lines[0], record, *lines[1:]]) + "\n"
        out[f"{name} at the end"] = text + record + "\n"
    return out


def test_parse_agrees_with_the_record_by_record_parse(tree_corpus):
    checked = errors = 0
    surfaces = _surfaces(tree_corpus)
    for t in surfaces:
        for name, text in _texts(t).items():
            got, want = _outcome(parse_triangulation, text), _outcome(oracle.parse_triangulation, text)
            assert got == want, (t, name)
            checked += 1
            errors += isinstance(got, tuple)
    # every text at fault names its line: 12 per surface
    assert errors == 12 * len(surfaces)
    assert checked == 19 * len(surfaces)


@pytest.mark.parametrize("text, message", [
    ("f 1 2 3\ng 1 2 4\nf 1 2 3\n", "line 2: unknown record type 'g'"),
    ("f 1 2 3\nf 1 2 3\ng 1 2 4\n", "line 2: duplicate face 1 2 3"),
    ("f 1 2\nf 1 1 2\n", "line 1: face record needs 3 vertices, got 2"),
    ("f 1 2 3\nf 2 2 3 # twice\n", "line 2: face has a repeated vertex"),
    ("\r\n  # only a comment\r\nf 3 2 1\r\nf 1 3 2\r\n", "line 4: duplicate face 1 2 3"),
    ("f a b c\n\n\nx\n", "line 4: unknown record type 'x'"),
], ids=["type", "duplicate before type", "count", "repeat", "crlf", "blank lines"])
def test_the_first_record_at_fault_is_named(text, message):
    for parse in (parse_triangulation, oracle.parse_triangulation):
        assert _outcome(parse, text) == ("ParseError", message)


# ----------------------------------------------------------------------
# validate


def test_validate_reports_as_the_neighbour_search_and_the_link_walks(tree_corpus, monkeypatch):
    # validate walks links on the edge index and builds no corner table
    built = []
    monkeypatch.setattr(engine, "_corner_table", built.append)
    kinds = dict.fromkeys(("disconnected", "link of vertex", "expected 2"), 0)
    surfaces = _surfaces(tree_corpus)
    for t in surfaces:
        for faces in [list(t.faces), *_damaged(t).values()]:
            u = Triangulation(faces)
            want = oracle.validate(Triangulation(faces))
            assert u.validate() == want, faces
            for kind in kinds:
                kinds[kind] += any(kind in v for v in want.violations)
    # each damage is met: a hole and a third face, a pinch and a copy
    assert min(kinds.values()) >= len(surfaces)
    assert built == []


def test_validate_counts_the_component_of_the_first_vertex():
    # the first vertex's sphere is the smaller one, and the other sphere's
    # links are walked too: one of them is pinched
    small, big = bipyramid(3).faces, bipyramid(5, "z").faces
    pinched = [tuple(w if w == "z1" else w + "'" for w in f) for f in big]
    report = Triangulation([*small, *big, *pinched]).validate()
    assert report == oracle.validate(Triangulation([*small, *big, *pinched]))
    assert report.violations == (
        "graph disconnected: reached 5 of 18 vertices",
        "link of vertex z1 is not a single cycle",
    )


# ----------------------------------------------------------------------
# special pairs


def _hosts(tree_corpus, flipped_hosts):
    out = []
    for n in range(3, 18, 2):
        t, tau = bipyramid(n), bipyramid_canonical_zorientation(n)
        out += [classify(t, tau), classify(t, tau.reversed())]
    out += [classify(t, tau) for _, t, tau, _ in tree_corpus]
    return out + list(flipped_hosts)


def _fresh(cls):
    """A copy of cls with nothing derived from it kept."""
    return dataclasses.replace(cls)


def test_special_pairs_agree_with_the_candidate_sweep(tree_corpus, flipped_hosts):
    pairs = 0
    for cls in _hosts(tree_corpus, flipped_hosts):
        got = find_special_pairs(_fresh(cls))
        assert got == oracle.find_special_pairs(_fresh(cls))
        pairs += len(got)
    assert pairs > 1000


def _tampered(cls, e, back: bool):
    """cls with the pass after e's second pass replaced: by the pass after
    e's first pass, so both turn to one side, or by that pass run back, so
    it turns in no face."""
    (zi, r), (zj, q) = cls.pass_positions[e]
    walks = [list(z.passes) for z in cls.orientation.chosen]
    after = walks[zj][q] if back else walks[zi][(r + 1) % len(walks[zi])]
    if back:
        after = after._replace(src=after.dst, dst=after.src)
    walks[zj][(q + 1) % len(walks[zj])] = after
    tau = dataclasses.replace(cls.orientation)
    tau.__dict__["chosen"] = tuple(SimpleNamespace(passes=tuple(w)) for w in walks)
    copy = dataclasses.replace(cls, orientation=tau)
    copy.__dict__["pass_positions"] = cls.pass_positions
    return copy


@pytest.mark.parametrize("back", (False, True), ids=("one side", "no face"))
def test_special_pairs_raise_as_the_candidate_sweep_on_tampered_walks(tree_corpus, back):
    raised = 0
    for _, t, tau, _ in tree_corpus[:6]:
        cls = classify(t, tau)
        for e in sorted({e for p in find_special_pairs(cls) for e in p.edges()}):
            tampered = _tampered(cls, e, back)
            got = _outcome(find_special_pairs, tampered)
            assert got == _outcome(oracle.find_special_pairs, tampered)
            assert got[0] == "SurgeryError" and re.search(re.escape(str(e)), got[1])
            raised += 1
    assert raised > 50


@pytest.mark.parametrize("back", (False, True), ids=("one side", "no face"))
def test_of_two_failing_candidates_the_least_raises(tree_corpus, back):
    # taken vertex by vertex, a candidate of e fails first; in sorted
    # (c1, c2, v) order a candidate of f comes first, and its error is the one
    _, t, tau, _ = tree_corpus[4]
    e, f = ("noden0.1", "noden0.2-"), ("noden0.2+", "noden0.3")
    tampered = _tampered(_tampered(classify(t, tau), e, back), f, back)
    got = _outcome(find_special_pairs, tampered)
    assert got == _outcome(oracle.find_special_pairs, tampered)
    assert got[0] == "SurgeryError" and str(f) in got[1] and str(e) not in got[1]


# ----------------------------------------------------------------------
# enumeration


def test_a_state_reached_twice_is_an_invariant_error(monkeypatch):
    # no surface's table has one, so it is forged: from (a, b, c) the walk
    # goes to (b, a, a), then (a, b, b), then back to (b, a, a), never
    # closing at its start
    forged = {("a", "b", "c"): "a", ("b", "a", "a"): "b", ("a", "b", "b"): "a", ("a", "c", "b"): "b"}
    monkeypatch.setattr(engine, "_corner_table", lambda edge_faces: dict(forged))
    with pytest.raises(InvariantError, match=r"^a zigzag walk reaches the state \('b', 'a', 'a'\) twice$"):
        enumerate_zigzags(Triangulation(bipyramid(3).faces))


def test_enumeration_marks_every_state_it_walks_in_the_table(monkeypatch):
    # the one table it builds ends with each walked state marked None: one
    # orbit of each reversal pair, half the states
    kept = []
    table = engine._corner_table
    monkeypatch.setattr(engine, "_corner_table", lambda edge_faces: kept.append(table(edge_faces)) or kept[-1])
    for t in (Triangulation(bipyramid(n).faces) for n in range(3, 9)):
        zs = enumerate_zigzags(t)
        walked = [s for s, y in kept[-1].items() if y is None]
        assert 2 * len(walked) == len(kept[-1]) == 2 * sum(map(len, zs))
