"""Zigzag dynamics, orientations, and classification, checked against the
independent brute-force walker in zigzag_oracle."""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zigzag_oracle as oracle
import zigzags
from helpers import random_flips, reads_ii_i_i, sampled_orientations, torus7, torus_grid
from zigzags import (
    InvariantError,
    Pass,
    Triangulation,
    TriangulationError,
    Zigzag,
    ZOrientation,
    all_z_orientations,
    bipyramid,
    classify,
    enumerate_zigzags,
    extract_directed_embedding,
    face_shadow,
    is_homogeneous,
    is_z_knotted,
    make_pass,
    make_z_orientation,
    platonic,
    round_trip_check,
    zigzag_successor,
)
from zigzags.cli import analyze_report
from zigzags.engine import _homogeneity_scan, _orient_along, _oriented

TET = Triangulation([("1", "2", "3"), ("1", "2", "4"), ("1", "3", "4"), ("2", "3", "4")])


# ----------------------------------------------------------------------
# Pass and Zigzag basics


def test_pass_ordering_fields():
    p = make_pass("2", "1")
    assert p.edge == ("1", "2")
    assert (p.src, p.dst) == ("2", "1")
    assert Pass(p.edge, p.dst, p.src) == make_pass("1", "2")
    assert str(p) == "2>1"


def test_zigzag_normalizes_rotation():
    ps = [make_pass("1", "2"), make_pass("2", "3"), make_pass("3", "1")]
    a = Zigzag(tuple(ps))
    b = Zigzag(tuple(ps[1:] + ps[:1]))
    assert a == b
    assert a.passes == b.passes


def test_zigzag_rejects_broken_chain():
    with pytest.raises(ValueError, match="do not chain"):
        Zigzag((make_pass("1", "2"), make_pass("3", "1"), make_pass("2", "3")))
    with pytest.raises(ValueError, match="at least one pass"):
        Zigzag(())
    # the edge entry must be the key of the pass's own ends; the first pass
    # off its key is named, and a loop, which has no key, by edge_key
    bent = (Pass(("a", "b"), "a", "c"), Pass(("a", "c"), "c", "a"))
    with pytest.raises(ValueError) as caught:
        Zigzag(bent)
    assert str(caught.value) == f"pass {bent[0]!r} is inconsistent with its edge"
    with pytest.raises(ValueError) as caught:
        Zigzag((make_pass("a", "c"), bent[0], Pass(("a", "b"), "b", "a")))
    assert str(caught.value) == f"pass {bent[0]!r} is inconsistent with its edge"
    with pytest.raises(TriangulationError) as caught:
        Zigzag((make_pass("c", "a"), Pass(("a", "a"), "a", "a"), bent[0]))
    assert str(caught.value) == "edge endpoints must differ, got 'a' twice"
    with pytest.raises(ValueError) as caught:
        Zigzag((make_pass("1", "2"), make_pass("3", "1"), make_pass("2", "3")))
    assert str(caught.value) == "passes 0 and 1 do not chain"


def test_zigzag_reverse_and_canonical():
    z = enumerate_zigzags(TET)[0]
    r = z.reverse()
    assert r.reverse() == z
    assert z.canonical() == r.canonical()
    assert z.is_canonical
    assert not (z.passes < r.passes) or z.canonical() == z


def test_unchecked_reversal_is_a_checked_zigzag(bipyramid_corpus, tree_corpus):
    # reverse() skips __post_init__'s checks: the checked construction of
    # the flipped, reversed passes must accept them and give the same passes
    surfaces = [t for t, _ in bipyramid_corpus.values()] + [torus7()]
    for t in surfaces + [t for _, t, _, _ in tree_corpus]:
        for z in enumerate_zigzags(t):
            r = z.reverse()
            assert r.reverse() == z
            assert Zigzag(r.passes).passes == r.passes
            assert Zigzag(tuple(Pass(p.edge, p.dst, p.src) for p in reversed(z.passes))) == r


def test_occurrences_and_counts():
    z = enumerate_zigzags(bipyramid(3))[0]
    counts = Counter(p.edge for p in z.passes)
    assert set(counts.values()) == {2}  # double cover on a z-knotted instance
    e = next(iter(counts))
    occ = z.occurrences(e)
    assert len(occ) == 2 and all(z.passes[i].edge == e for i in occ)


# ----------------------------------------------------------------------
# successor dynamics


def test_successor_predecessor_inverse():
    # every state: each ordered pair of distinct edges of each face.  The
    # predecessor of (cur, nxt) is (prev, cur) for the step of the reversed
    # state (nxt, cur) to (cur, prev)
    def predecessor(t, state):
        cur, nxt = state
        return (zigzag_successor(t, (nxt, cur))[1], cur)

    for t in [bipyramid(n) for n in range(3, 15)] + [platonic("icosahedron"), torus7()]:
        for a, b, c in t.faces:
            for s in itertools.permutations(((a, b), (a, c), (b, c)), 2):
                assert predecessor(t, zigzag_successor(t, s)) == s
                assert zigzag_successor(t, predecessor(t, s)) == s


def test_successor_matches_oracle_step():
    # the oracle walks frozenset states; translate back and forth each step
    t = bipyramid(7)
    faces = [frozenset(f) for f in t.faces]
    s = (("1", "2"), ("2", "a"))
    for _ in range(50):
        o_prev, o_cur = oracle.step(faces, (frozenset(s[0]), frozenset(s[1])))
        expected = (tuple(sorted(o_prev)), tuple(sorted(o_cur)))
        got = zigzag_successor(t, s)
        assert got == expected
        s = got


def test_successor_rejects_an_edge_not_in_two_faces():
    t = Triangulation([("1", "2", "3"), ("1", "2", "4"), ("1", "2", "5")])
    with pytest.raises(TriangulationError) as info:
        zigzag_successor(t, (("1", "2"), ("1", "3")))
    assert str(info.value) == "edge ('1', '3') lies in 1 face(s), expected 2"
    with pytest.raises(TriangulationError) as info:
        zigzag_successor(t, (("1", "3"), ("1", "2")))
    assert str(info.value) == "edge ('1', '2') lies in 3 face(s), expected 2"


# ----------------------------------------------------------------------
# enumeration against the oracle


@pytest.mark.parametrize("n", range(3, 13))
def test_bipyramid_census_matches_oracle(n, bipyramid_corpus):
    t, _ = bipyramid_corpus[n]
    lengths = sorted(len(z) for z in enumerate_zigzags(t))
    assert lengths == oracle.census([frozenset(f) for f in t.faces])


@pytest.mark.parametrize("name", ["tetrahedron", "octahedron", "icosahedron"])
def test_platonic_census_matches_oracle(name, platonic_corpus):
    t = platonic_corpus[name]
    lengths = sorted(len(z) for z in enumerate_zigzags(t))
    assert lengths == oracle.census([frozenset(f) for f in t.faces])


def test_orbits_cover_all_states():
    t = platonic("icosahedron")
    zs = enumerate_zigzags(t)
    assert sum(len(z) for z in zs) * 2 == 6 * len(t.faces)


def _state_pass(state):
    prev, cur = state
    (src,) = set(prev) & set(cur)
    (dst,) = set(cur) - {src}
    return make_pass(src, dst)


def _least_rotation(seq):
    # naive reference: the least of the rotations starting at the least item
    m = min(seq)
    return min(seq[k:] + seq[:k] for k, x in enumerate(seq) if x == m)


def _common_face(t, e1, e2):
    (f,) = set(t.edge_faces(e1)) & set(t.edge_faces(e2))
    return f


def assert_walks_match_oracle(t):
    """Every zigzag, in both directions, is an oracle orbit pass for pass, and
    its face shadow is the common face of each two consecutive passes."""
    walks = [w for z in enumerate_zigzags(t) for w in (z, z.reverse())]
    faces = [frozenset(f) for f in t.faces]
    expected = [tuple(_state_pass(s) for s in orbit) for orbit in oracle.orbits(faces)]
    assert sorted(_least_rotation(w.passes) for w in walks) == sorted(
        _least_rotation(seq) for seq in expected
    )
    for w in walks:
        ps = w.passes
        assert face_shadow(t, w) == tuple(
            _common_face(t, p.edge, q.edge) for p, q in zip(ps, ps[1:] + ps[:1])
        )


def test_zigzag_pass_sets_match_oracle(platonic_corpus):
    rng = random.Random(3)
    flipped = [
        random_flips(base, rng, 6)
        for base in (bipyramid(5), bipyramid(8), platonic_corpus["icosahedron"], bipyramid(11))
    ]
    assert len({len(enumerate_zigzags(t)) for t in flipped}) > 1
    for t in [bipyramid(6), TET, platonic_corpus["icosahedron"], torus7(), *flipped]:
        assert_walks_match_oracle(t)


def test_torus_census():
    t = torus7()
    assert t.euler_characteristic() == 0
    assert sorted(len(z) for z in enumerate_zigzags(t)) == [14, 14, 14]


def test_glued_walks_match_oracle(glued_corpus, tree_corpus):
    for t, _, _, _ in glued_corpus.values():
        assert_walks_match_oracle(t)
    for _, t, _, _ in tree_corpus:
        assert_walks_match_oracle(t)


def test_face_shadow_rejects_passes_off_the_faces():
    # the base cycle of BP(5) chains, but 1, 2, 3 span no face
    base = Zigzag(tuple(make_pass(str(i), str(i % 5 + 1)) for i in range(1, 6)))
    with pytest.raises(TriangulationError, match="share no face"):
        face_shadow(bipyramid(5), base)


def test_no_self_reversed_zigzags():
    for t in (TET, bipyramid(4), bipyramid(9), platonic("icosahedron")):
        for z in enumerate_zigzags(t):
            assert z.passes != z.reverse().passes


def test_is_z_knotted():
    assert is_z_knotted(bipyramid(5))
    assert not is_z_knotted(bipyramid(6))
    assert not is_z_knotted(TET)


def test_enumeration_deterministic():
    a = enumerate_zigzags(bipyramid(8))
    b = enumerate_zigzags(bipyramid(8))
    assert a == b


# ----------------------------------------------------------------------
# z-orientations


def test_zorientation_chosen_and_reversed():
    t = bipyramid(6)
    zs = enumerate_zigzags(t)
    tau = make_z_orientation(t, (0, 1))
    assert tau.chosen[0] == zs[0]
    assert tau.chosen[1] == zs[1].reverse()
    assert tau.reversed().bits == (1, 0)


def test_zorientation_keeps_its_zigzags_as_a_tuple():
    t = bipyramid(5)
    zs = enumerate_zigzags(t)
    bits = (0,) * len(zs)
    tau = ZOrientation(list(zs), bits)
    assert tau.zigzags == zs and type(tau.zigzags) is tuple
    assert tau == ZOrientation(zs, bits) and hash(tau) == hash(ZOrientation(zs, bits))
    assert type(classify(t, tau).orientation.zigzags) is tuple


def test_make_z_orientation_validates():
    # bits of the wrong length or alphabet are a library error, by both
    # constructors
    t = bipyramid(6)
    zs = enumerate_zigzags(t)
    for make in (partial(make_z_orientation, t), partial(ZOrientation, zs)):
        with pytest.raises(TriangulationError, match="^expected 2 bits, got 1$"):
            make((0,))
        with pytest.raises(TriangulationError, match="^bits must be 0 or 1$"):
            make((0, 2))


def test_every_constructor_keeps_bits_as_ints():
    # a bit equal to 0 or 1 is kept as that int by the public constructor,
    # make_z_orientation and _oriented alike, and so is its reversal; any
    # other bit is refused by all three
    t = bipyramid(5)
    zs = enumerate_zigzags(t)
    makers = (partial(ZOrientation, zs), partial(make_z_orientation, t), partial(_oriented, zs))
    for given in ((1,), (True,), (1.0,), [1]):
        for make in makers:
            tau = make(given)
            assert repr(tau.bits) == "(1,)" and repr(tau.reversed().bits) == "(0,)"
    for bad in ((1.5,), (0.5,), ("1",), (-1,)):
        for make in makers:
            with pytest.raises(TriangulationError, match="^bits must be 0 or 1$"):
                make(bad)


def test_bits_given_otherwise_read_as_their_ints():
    # bits as a list, as True or as 1.0 round-trip, report and classify
    # as the tuple of ints does
    t = bipyramid(5)
    zs = enumerate_zigzags(t)
    tau = next(tau for tau in all_z_orientations(t) if is_homogeneous(t, tau))
    (b,) = tau.bits
    assert round_trip_check(t, ZOrientation(zs, [b]))
    want = [analyze_report(t, tau, fmt) for fmt in ("text", "tsv")]
    for given in ([b], (bool(b),), (float(b),)):
        tau2 = ZOrientation(zs, given)
        assert [analyze_report(t, tau2, fmt) for fmt in ("text", "tsv")] == want
        assert classify(t, tau2)._facts is classify(t, tau)._facts
    assert f"bits\t{b}\n" in want[1] and f"bits: {b}\n" in want[0]


def _base_cycle_twice_and_spokes() -> tuple[Zigzag, ...]:
    """BP(5)'s base cycle walked twice, and the ten spoke walks x -> i -> x:
    closed walks that pass every edge of BP(5) twice, none of them its
    zigzag."""
    base = [make_pass(str(i), str(i % 5 + 1)) for i in range(1, 6)]
    walks = [Zigzag(tuple(base * 2))]
    walks += [Zigzag((make_pass(x, str(i)), make_pass(str(i), x))) for x in "ab" for i in range(1, 6)]
    return tuple(sorted((z.canonical() for z in walks), key=lambda z: z.passes))


def _other_zigzags():
    """(t, an orientation of zigzags that are not t's enumeration, message)."""
    bp4, bp5, bp6 = bipyramid(4), bipyramid(5), bipyramid(6)
    walks = _base_cycle_twice_and_spokes()
    not_zigzag_0 = "zigzag 0 of the z-orientation is not the triangulation's zigzag 0"
    return [
        (bp5, ZOrientation(enumerate_zigzags(bipyramid(7)), (0,)), not_zigzag_0),
        (bp6, ZOrientation(enumerate_zigzags(bp6)[:1], (0,)),
         "the z-orientation's zigzag count 1 is not the triangulation's 2"),
        (bp4, ZOrientation(enumerate_zigzags(bp4)[::-1], (0, 0, 0, 0)), not_zigzag_0),
        (bp5, ZOrientation(walks, (0,) * len(walks)),
         "the z-orientation's zigzag count 11 is not the triangulation's 1"),
    ]


def test_every_entry_point_rejects_orientations_of_other_zigzags():
    # classify takes only t's own zigzags; every path through it raises
    # its one error, and the screen raises it before reading a table
    entry_points = (
        classify,
        is_homogeneous,
        extract_directed_embedding,
        round_trip_check,
        analyze_report,
        lambda t, tau: analyze_report(t, tau, "tsv"),
    )
    for t, tau, message in _other_zigzags():
        for call in entry_points:
            with pytest.raises(TriangulationError) as exc:
                call(t, tau)
            assert type(exc.value) is TriangulationError and str(exc.value) == message
    # the base cycle walked twice and the spokes double-cover BP(5) with a
    # type-II base and type-I spokes, which a face test alone calls
    # homogeneous
    walks = _base_cycle_twice_and_spokes()
    covered = Counter(p.edge for z in walks for p in z.passes)
    assert covered == Counter({e: 2 for e in bipyramid(5).edges})


def test_zorientation_rejects_non_canonical_zigzags():
    z = enumerate_zigzags(bipyramid(5))[0]
    assert not z.reverse().is_canonical
    with pytest.raises(ValueError, match="canonical representatives"):
        ZOrientation((z.reverse(),), (0,))


def test_all_z_orientations_order():
    t = bipyramid(4)
    taus = list(all_z_orientations(t))
    assert len(taus) == 16
    assert taus[0].bits == (0, 0, 0, 0)
    assert taus[-1].bits == (1, 1, 1, 1)
    assert taus[5].bits == (0, 1, 0, 1)


def test_all_z_orientations_refuses_more_than_20_zigzags():
    # the 7 x 7 grid torus has 21 zigzags; the refusal comes before any yield
    t = torus_grid(7)
    assert len(enumerate_zigzags(t)) == 21
    message = r"^refusing to enumerate 2\^21 z-orientations \(limit k=20\)$"
    with pytest.raises(ValueError, match=message):
        next(all_z_orientations(t))


# ----------------------------------------------------------------------
# classification


def test_classify_bipyramid_counts(bipyramid_corpus):
    for n, (t, tau) in bipyramid_corpus.items():
        cls = classify(t, tau)
        n_i = sum(1 for ty in cls.edge_types.values() if ty == "I")
        n_ii = sum(1 for ty in cls.edge_types.values() if ty == "II")
        assert (n_i, n_ii) == (2 * n, n)
        assert set(cls.type_i_vertices) == {"a", "b"}
        assert all(ty == "I" for ty in cls.face_types.values())
        assert is_homogeneous(t, tau)


def test_classify_base_directed(bipyramid_corpus):
    for n, (t, tau) in bipyramid_corpus.items():
        cls = classify(t, tau)
        for i in range(1, n + 1):
            u, w = str(i), str(i % n + 1)
            assert cls.edge_directions[tuple(sorted((u, w)))] == (u, w)


def test_all_type_ii_orientations():
    # one orientation of BP_4 and BP_6 turns every edge type II
    for n, bits in ((4, (0, 0, 0, 0)), (6, (0, 0))):
        t = bipyramid(n)
        cls = classify(t, make_z_orientation(t, bits))
        assert all(ty == "II" for ty in cls.edge_types.values())
        assert not cls.type_i_vertices
        assert all(ty == "II" for ty in cls.face_types.values())


def test_homogeneous_bits():
    # the homogeneous orientations of BP_4 and BP_6 in canonical bit order
    t4 = bipyramid(4)
    assert is_homogeneous(t4, make_z_orientation(t4, (0, 0, 1, 1)))
    assert not is_homogeneous(t4, make_z_orientation(t4, (0, 0, 0, 0)))
    t6 = bipyramid(6)
    assert is_homogeneous(t6, make_z_orientation(t6, (0, 1)))
    assert not is_homogeneous(t6, make_z_orientation(t6, (0, 0)))


def test_double_cover_under_every_orientation():
    rng = random.Random(7)
    for t in (TET, bipyramid(5), bipyramid(6)):
        for tau in sampled_orientations(t, rng):
            counts = Counter(p.edge for z in tau.chosen for p in z.passes)
            assert counts == {e: 2 for e in t.edges}


def test_face_dichotomy_everywhere():
    # classify() raises if any face fails the two-type dichotomy
    rng = random.Random(11)
    for t in (TET, bipyramid(4), bipyramid(7), platonic("icosahedron")):
        for tau in sampled_orientations(t, rng):
            cls = classify(t, tau)
            assert set(cls.face_types.values()) <= {"I", "II"}


def test_balance_at_every_vertex():
    rng = random.Random(13)
    for t in (bipyramid(5), bipyramid(8), platonic("tetrahedron")):
        for tau in sampled_orientations(t, rng):
            cls = classify(t, tau)
            arcs = list(cls.edge_directions.values())
            for v in t.vertices:
                assert sum(1 for a in arcs if a[0] == v) == sum(
                    1 for a in arcs if a[1] == v
                )


def test_classification_reversal_stable():
    rng = random.Random(17)
    for t in (bipyramid(5), bipyramid(6)):
        for tau in sampled_orientations(t, rng):
            cls = classify(t, tau)
            rev = classify(t, tau.reversed())
            assert cls.edge_types == rev.edge_types
            assert cls.vertex_types == rev.vertex_types
            assert cls.face_types == rev.face_types
            assert {e: (d[1], d[0]) for e, d in cls.edge_directions.items()} == (
                rev.edge_directions
            )


def test_classify_rejects_foreign_orientations_under_python_O():
    # the checks raise TriangulationError explicitly, so they run where
    # asserts are compiled away: the first four inputs' zigzags are not t's
    # own, and the last three forge what t keeps, so that the double-cover,
    # dichotomy and directed-cycle checks still have something to catch
    script = textwrap.dedent("""
        from zigzags import (
            Triangulation, TriangulationError, Zigzag, ZOrientation, bipyramid,
            bipyramid_canonical_zorientation, classify, enumerate_zigzags,
            make_pass, make_z_orientation, platonic,
        )
        from zigzags.engine import _pass_table

        def walk(vs):
            n = len(vs)
            return Zigzag(tuple(make_pass(vs[i], vs[(i + 1) % n]) for i in range(n)))

        if __debug__:
            raise SystemExit("this check must run under python -O")
        bp5 = bipyramid(5)
        # an Eulerian circuit of the octahedron, walked twice
        circuit = walk("1b4a3b2a1234").canonical()
        faces_as_zigzags = sorted(
            (walk(f).canonical() for f in ("123", "124", "134", "234")),
            key=lambda z: z.passes,
        )
        cases = [
            (bp5, bipyramid_canonical_zorientation(7)),
            (bp5, ZOrientation(enumerate_zigzags(bp5) * 2, (0, 0))),
            (platonic("tetrahedron"), ZOrientation(tuple(faces_as_zigzags), (0, 0, 0, 0))),
            (bipyramid(4), ZOrientation((circuit, circuit), (0, 0))),
        ]
        # BP(5)'s zigzag kept twice passes each edge four times
        doubled = Triangulation(bp5.faces)
        doubled._zigzags = enumerate_zigzags(bp5) * 2
        cases.append((doubled, ZOrientation(doubled._zigzags, (0, 0))))
        # BP(4) with every edge type II: edge 1-2 made type I, then reversed
        for flip in ((True, False), (True, True)):
            forged = Triangulation(bipyramid(4).faces)
            table = dict(_pass_table(forged))
            i, f, j, g = table["1", "2"]
            table["1", "2"] = i, f ^ flip[0], j, g ^ flip[1]
            forged._passes = table
            cases.append((forged, make_z_orientation(forged, (0, 0, 0, 0))))
        for t, tau in cases:
            try:
                classify(t, tau)
            except TriangulationError as exc:
                print(exc)
    """)
    src = str(Path(zigzags.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "zigzag 0 of the z-orientation is not the triangulation's zigzag 0",
        "the z-orientation's zigzag count 2 is not the triangulation's 1",
        "the z-orientation's zigzag count 4 is not the triangulation's 3",
        "the z-orientation's zigzag count 2 is not the triangulation's 4",
        "each edge is passed exactly twice",
        "face ('1', '2', 'a') violates the type dichotomy",
        "type-II face ('1', '2', 'a') is not a directed cycle",
    ]


def test_orientation_read_off_directed_edges():
    for n in range(3, 15):
        t = bipyramid(n)
        zs = enumerate_zigzags(t)
        forward = [(str(i), str(i % n + 1)) for i in range(1, n + 1)]
        tau = _orient_along(zs, forward)
        directions = classify(t, tau).edge_directions
        assert [directions[tuple(sorted(a))] for a in forward] == forward
        assert _orient_along(zs, [(w, u) for u, w in forward]) == tau.reversed()
    # BP(3)'s one zigzag passes the type-I spoke a-1 once each way
    with pytest.raises(InvariantError, match="zigzag 0 does not pass"):
        _orient_along(enumerate_zigzags(bipyramid(3)), [("a", "1")])
    # two passes of edge 1-2 leave at least two of BP(4)'s four zigzags
    # meeting no directed edge
    with pytest.raises(InvariantError, match="does not pass"):
        _orient_along(enumerate_zigzags(bipyramid(4)), [("1", "2")])


def test_face_shadow_structure():
    t = bipyramid(5)
    z = enumerate_zigzags(t)[0]
    shadow = face_shadow(t, z)
    assert len(shadow) == len(z)
    for i in range(len(z)):
        f = shadow[i]
        assert set(z.passes[i].edge) <= set(f)
        assert set(z.passes[(i + 1) % len(z)].edge) <= set(f)


def test_homogeneity_needs_period_three():
    # in a homogeneous orientation type-II positions sit every third step
    t, tau = bipyramid(7), None
    tau = make_z_orientation(t, (0,))
    if not is_homogeneous(t, tau):
        tau = make_z_orientation(t, (1,))
    assert is_homogeneous(t, tau)
    cls = classify(t, tau)
    z = tau.chosen[0]
    positions = [i for i, p in enumerate(z.passes) if cls.edge_types[p.edge] == "II"]
    assert len(positions) == len(z) // 3
    assert len({i % 3 for i in positions}) == 1


# every face is type I on both, yet neither orientation is homogeneous
FACES_TYPE_I_ONLY = {
    # one zigzag of length 42 whose 14 type-II passes fall in all three
    # residues mod 3
    "residues": ("124 127 146 156 157 24b 27b 346 34b 357 35a 36a 37b 56a", (0,)),
    # zigzags of lengths 20 and 16, neither divisible by 3
    "lengths": ("156 15a 16a 234 23a 24b 26a 26b 34b 3ab 56b 5ab", (0, 1)),
}


@pytest.mark.parametrize("case", sorted(FACES_TYPE_I_ONLY))
def test_homogeneity_reads_the_zigzags_not_only_the_faces(case):
    faces, bits = FACES_TYPE_I_ONLY[case]
    t = Triangulation([tuple(f) for f in faces.split()])
    assert t.validate().ok and t.euler_characteristic() == 2
    cls = classify(t, make_z_orientation(t, bits))
    assert set(cls.face_types.values()) == {"I"}
    assert not cls.homogeneous


def test_homogeneity_needs_a_length_divisible_by_three():
    # type II at passes 0 and 3 of a zigzag: one type II in its first three
    # passes and period 3 along it, which reads II,I,I round a 6-cycle but
    # not round a 4-cycle; the scan reads only these two fields
    for t, length, verdict in ((platonic("tetrahedron"), 4, False), (bipyramid(4), 6, True)):
        z = enumerate_zigzags(t)[0]
        directions = dict.fromkeys((z.passes[0].edge, z.passes[3].edge))
        assert len(z) == length and len(directions) == 2
        assert [p.edge in directions for p in z.passes[1:3]] == [False, False]
        stand_in = SimpleNamespace(edge_directions=directions, orientation=SimpleNamespace(zigzags=(z,)))
        assert _homogeneity_scan(stand_in) is verdict


def test_homogeneous_matches_the_definition():
    # homogeneous reads the zigzags alone, the definition also the faces;
    # both verdicts occur among the orientations with every face type I,
    # where the faces cannot decide
    rng = random.Random(3)
    surfaces = [bipyramid(n) for n in range(3, 9)] + [torus7()]
    surfaces += [random_flips(bipyramid(n), rng, 3) for n in (5, 6, 7, 8) for _ in range(3)]
    surfaces += [Triangulation([tuple(f) for f in faces.split()])
                 for faces, _ in FACES_TYPE_I_ONLY.values()]
    seen, by_rotation = set(), set()
    for t in surfaces:
        for tau in all_z_orientations(t):
            try:
                cls = classify(t, tau)
            except TriangulationError:
                continue
            assert cls.homogeneous is reads_ii_i_i(cls), (t.faces, tau.bits)
            seen.add(cls.homogeneous)
            if set(cls.face_types.values()) == {"I"}:
                by_rotation.add(cls.homogeneous)
    assert seen == by_rotation == {True, False}


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 9), st.data())
def test_random_orientations_classify(n, data):
    t = bipyramid(n)
    k = len(enumerate_zigzags(t))
    bits = tuple(data.draw(st.integers(0, 1)) for _ in range(k))
    cls = classify(t, make_z_orientation(t, bits))
    # every edge typed, type-II edges directed, every face typed
    assert set(cls.edge_types) == set(t.edges)
    assert set(cls.edge_directions) == {
        e for e, ty in cls.edge_types.items() if ty == "II"
    }
    assert set(cls.face_types) == set(t.faces)

