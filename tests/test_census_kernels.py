"""The census kernels against the rules they replace.  classify reads types
off the bits over one pass table, and must give what the passes of
tau.chosen give, byte for byte.  enumerate_zigzags walks each reversal pair
of orbits once and picks its direction off the least pass, and must give
the lesser of each pair of the oracle's orbits, in the same order."""

from __future__ import annotations

import random

import pytest

import zigzag_oracle as oracle
import zigzags.engine as engine
from helpers import (
    classify_by_passes,
    embedding_from_directed_faces,
    random_flips,
    torus7,
    torus_grid,
)
from zigzags import (
    InvariantError,
    Triangulation,
    TriangulationError,
    Zigzag,
    ZOrientation,
    all_z_orientations,
    bipyramid,
    classify,
    enumerate_zigzags,
    make_pass,
    make_z_orientation,
    platonic,
    triangulate_embedding,
)


def _classified(t, tau):
    cls = classify(t, tau)
    return cls.edge_types, cls.edge_directions, cls.vertex_types, cls.face_types, cls.homogeneous


def _corpus():
    rng = random.Random(15)
    out = {f"BP{n}": bipyramid(n) for n in range(3, 15)}
    out.update((name, platonic(name)) for name in ("tetrahedron", "octahedron", "icosahedron"))
    out.update((f"torus grid {m}", torus_grid(m)) for m in (3, 4))
    torus = torus7()
    out["coned torus7"] = triangulate_embedding(
        embedding_from_directed_faces(torus, make_z_orientation(torus, (0, 0, 0)))
    )[0]
    out.update((f"flipped BP{n}", random_flips(bipyramid(n), rng, 4)) for n in (6, 8, 10, 12))
    return out


CORPUS = _corpus()


@pytest.mark.parametrize("name", CORPUS)
def test_classify_agrees_with_the_passes_of_the_chosen_zigzags(name):
    t = CORPUS[name]
    verdicts = set()
    for tau in all_z_orientations(t):
        want = classify_by_passes(t, tau)
        got = _classified(t, tau)
        assert got == want, tau.bits
        # equal dicts, and equal in their insertion order too
        assert [list(d) for d in got[:4]] == [list(d) for d in want[:4]]
        verdicts.add(got[-1])
    if name in ("BP4", "BP12", "octahedron"):
        assert verdicts == {True, False}


@pytest.mark.parametrize("n, m", [(3, 4), (5, 6), (7, 8), (8, 9)])
def test_a_foreign_zigzag_is_rejected_and_keeps_the_table(n, m):
    # another bipyramid's first zigzag, in either direction, is no
    # orientation of t's own zigzags: classify names the first zigzag that
    # is not t's, or the count when it differs, and reads no table
    t = bipyramid(n)
    own = make_z_orientation(t, (0,) * len(enumerate_zigzags(t)))
    classify(t, own)
    table, kept = t._passes, t._classified
    foreign = enumerate_zigzags(bipyramid(m))[:1]
    k = len(enumerate_zigzags(t))
    want = (
        "zigzag 0 of the z-orientation is not the triangulation's zigzag 0"
        if k == 1
        else f"the z-orientation's zigzag count 1 is not the triangulation's {k}"
    )
    for bits in ((0,), (1,)):
        with pytest.raises(TriangulationError) as exc:
            classify(t, ZOrientation(foreign, bits))
        assert str(exc.value) == want
    assert t._passes is table and t._classified is kept


def test_a_missing_zigzag_fails_the_double_cover_and_keeps_the_table():
    t = bipyramid(6)
    zs = enumerate_zigzags(t)
    tau = make_z_orientation(t, (0, 1))
    classify(t, tau)
    table = t._passes
    # an orientation missing a zigzag is rejected by its count, before any
    # table is read
    for bits in ((0,), (1,)):
        missing = ZOrientation(zs[:1], bits)
        with pytest.raises(TriangulationError, match="zigzag count 1 is not the triangulation's 2"):
            classify(t, missing)
    # the same zigzags in another tuple give the same types off the same table
    copied = ZOrientation(tuple(list(zs)), (0, 1))
    assert _classified(t, copied) == _classified(t, tau)
    assert t._passes is table
    # a surface whose kept enumeration misses a zigzag fails the double
    # cover when its table is built
    fresh = Triangulation(t.faces)
    fresh._zigzags = zs[:1]
    with pytest.raises(TriangulationError, match="^each edge is passed exactly twice$"):
        classify(fresh, ZOrientation(zs[:1], (0,)))
    assert fresh._passes is None


# ----------------------------------------------------------------------
# enumeration


def _enumerated():
    # the corpus's flip spheres pass no least edge both ways; these do
    rng = random.Random(16)
    more = {
        f"BP{n} after {k} flips": random_flips(bipyramid(n), rng, k) for n in (6, 9) for k in (2, 6)
    }
    return {**CORPUS, "torus grid 5": torus_grid(5), **more}


ENUMERATED = _enumerated()


def _oracle_walks(t: Triangulation) -> list[tuple[Zigzag, Zigzag]]:
    """Each orbit of the oracle as a zigzag, with the zigzag of its reversal
    orbit: a state (prev, cur) passes cur from the vertex it shares with
    prev, and the reversal of (prev, cur) is (cur, prev)."""
    faces = [frozenset(f) for f in t.faces]
    orbits = oracle.orbits(faces)
    home = {state: i for i, orbit in enumerate(orbits) for state in orbit}

    def walk(orbit):
        passes = []
        for prev, cur in orbit:
            (src,) = prev & cur
            (dst,) = cur - prev
            passes.append(make_pass(src, dst))
        return Zigzag(tuple(passes))

    walks = [walk(orbit) for orbit in orbits]
    return [(walks[i], walks[home[orbit[0][1], orbit[0][0]]]) for i, orbit in enumerate(orbits)]


def _least_pass_case(z: Zigzag) -> str:
    """How z passes the edge of its least pass: only with the edge's key,
    only against it, or both ways."""
    e, src, dst = z.passes[0]
    if src != e[0]:
        return "against"
    return "both" if (e, dst, src) in z.passes else "with"


@pytest.mark.parametrize("name", ENUMERATED)
def test_enumeration_gives_the_lesser_walk_of_each_oracle_pair(name):
    t = ENUMERATED[name]
    pairs = _oracle_walks(t)
    assert all(z.passes != r.passes for z, r in pairs)
    want = sorted({min(z.passes, r.passes) for z, r in pairs})
    assert [z.passes for z in enumerate_zigzags(t)] == want


def test_canonical_reads_the_direction_off_the_least_pass(monkeypatch):
    # the triangle walk 1>2>3 passes its least edge 1-2 with the key, its
    # reversal only against it; a walk passing 1-2 both ways needs the full
    # comparison, which the next edge decides, 1-3 before 1-4
    one_way = Zigzag((make_pass("1", "2"), make_pass("2", "3"), make_pass("3", "1")))
    both_ways = Zigzag(tuple(make_pass(*p) for p in ("12", "21", "13", "34", "41")))
    reversals = []
    reverse = Zigzag.reverse
    monkeypatch.setattr(Zigzag, "reverse", lambda z: reversals.append(z) or reverse(z))
    against = reverse(one_way)
    mirrored = reverse(both_ways)
    assert [_least_pass_case(z) for z in (one_way, against, both_ways, mirrored)] == [
        "with", "against", "both", "both",
    ]
    assert one_way.canonical() is one_way and one_way.is_canonical
    assert reversals == []
    assert against.canonical() == one_way and not against.is_canonical
    assert reversals == [against, against]
    reversals.clear()
    assert both_ways.canonical() is both_ways and both_ways.is_canonical
    assert mirrored.canonical() == both_ways and not mirrored.is_canonical
    assert reversals == [both_ways, both_ways, mirrored, mirrored]
    # a walk that is its own reversal is its own canonical form
    there_and_back = Zigzag((make_pass("1", "2"), make_pass("2", "1")))
    assert there_and_back.canonical() is there_and_back and there_and_back.is_canonical


def test_the_corpus_reaches_the_shortcut_and_the_full_comparison(monkeypatch):
    reversals = []
    reverse = Zigzag.reverse
    monkeypatch.setattr(Zigzag, "reverse", lambda z: reversals.append(z) or reverse(z))
    cases = set()
    for t in ENUMERATED.values():
        for pair in _oracle_walks(t):
            for z, r in (pair, pair[::-1]):
                case = _least_pass_case(z)
                cases.add(case)
                reversals.clear()
                assert z.canonical().passes == min(z.passes, r.passes)
                # only a walk passing its least edge with the key is left
                # unreversed
                assert len(reversals) == (case != "with")
    assert cases == {"with", "against", "both"}


def _starts(t: Triangulation, order) -> list[int]:
    """The positions in order of the states that start a walk: the first of
    each reversal pair of orbits, which the oracle finds.  A state (s, d, x)
    passes s->d from the face {s, d, x}, so it is the oracle's state
    ({s, x}, {s, d})."""
    faces = [frozenset(f) for f in t.faces]
    pair_of = {}
    for i, orbit in enumerate(oracle.orbits(faces)):
        for prev, cur in orbit:
            pair_of[prev, cur] = pair_of[cur, prev] = i
    seen, out = set(), []
    for k, (s, d, x) in enumerate(order):
        pair = pair_of[frozenset((s, x)), frozenset((s, d))]
        if pair not in seen:
            seen.add(pair)
            out.append(k)
    return out


@pytest.mark.parametrize("name", ENUMERATED)
def test_enumeration_stops_once_every_state_is_covered(name, monkeypatch):
    t = Triangulation(ENUMERATED[name].faces)
    drawn = []

    class Drawn(dict):
        def __iter__(self):
            for state in dict.__iter__(self):
                drawn.append(state)
                yield state

    table = engine._corner_table
    monkeypatch.setattr(engine, "_corner_table", lambda edge_faces: Drawn(table(edge_faces)))
    zs = enumerate_zigzags(t)
    starts = _starts(t, drawn)
    assert len(starts) == len(zs)
    # the last state drawn starts the last walk
    assert starts[-1] == len(drawn) - 1
    if len(zs) == 1:
        assert len(drawn) == 1


def test_an_orbit_that_is_its_own_reversal_is_an_invariant_error(monkeypatch):
    # no surface has one, so the corner table is forged: the walk through the
    # vertices a, b, a, c, which read backwards is the walk from its third
    # state on, so the orbit holds the reversal (a, c, b) of its start
    forged = {("a", "b", "c"): "a", ("b", "a", "a"): "c", ("a", "c", "b"): "a", ("c", "a", "a"): "b"}
    monkeypatch.setattr(engine, "_corner_table", lambda edge_faces: forged)
    with pytest.raises(InvariantError, match="a zigzag is never its own reversal"):
        enumerate_zigzags(Triangulation(bipyramid(3).faces))
