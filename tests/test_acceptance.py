"""Acceptance gate: the nine headline checks, one test per criterion.

Run with -v to get one pass/fail line per criterion.  Each test also
prints an ACCEPTANCE line, visible under -s.
"""

from __future__ import annotations

import random
from collections import Counter

import zigzag_oracle as oracle
from zigzags import (
    DirectedEmbedding,
    TreeError,
    TreeSpec,
    ZOrientation,
    bipyramid,
    classify,
    enumerate_zigzags,
    is_homogeneous,
    is_z_knotted,
    make_z_orientation,
    predict_glued_zigzag,
    round_trip_check,
    tree_build,
    triangulate_embedding,
    validate_tree,
)

from bipyramid_walks import bipyramid_oracle_zigzags
from helpers import embedding_from_directed_faces, sampled_orientations


def _passed(n: int, what: str) -> None:
    print(f"ACCEPTANCE criterion {n}: PASS ({what})")


def test_criterion_1_bipyramid_censuses(bipyramid_corpus):
    expected = (1, 4, 1, 2, 1, 4, 1, 2, 1, 4)
    got = tuple(len(enumerate_zigzags(bipyramid_corpus[n][0])) for n in range(3, 13))
    assert got == expected
    _passed(1, "bipyramid zigzag counts for n = 3..12")


def test_criterion_2_generator_walks_match_engine(bipyramid_corpus):
    for n in range(3, 13):
        t, _ = bipyramid_corpus[n]
        assert bipyramid_oracle_zigzags(n) == enumerate_zigzags(t)
    _passed(2, "hand-built zigzag walks equal enumerated zigzags")


def test_criterion_3_canonical_classification(bipyramid_corpus):
    for n in range(3, 13):
        t, tau = bipyramid_corpus[n]
        cls = classify(t, tau)
        types = Counter(cls.edge_types.values())
        assert types["I"] == 2 * n and types["II"] == n
        # the type-II edges run around the base in cyclic order
        for i in range(1, n + 1):
            u, w = str(i), str(i % n + 1)
            assert cls.edge_directions[tuple(sorted((u, w)))] == (u, w)
        assert set(cls.type_i_vertices) == {"a", "b"}
        assert set(cls.face_types.values()) == {"I"}
        assert is_homogeneous(t, tau)
    _passed(3, "canonical orientations classify as expected")


def test_criterion_4_round_trips(bipyramid_corpus, glued_corpus, tree_corpus):
    for t, tau in bipyramid_corpus.values():
        assert round_trip_check(t, tau)
    for t, tau, _, _ in glued_corpus.values():
        assert round_trip_check(t, tau)
    for _, t, tau, _ in tree_corpus:
        assert round_trip_check(t, tau)
    assert len(tree_corpus) == 20
    _passed(4, "embedding extraction and coning invert each other")


def test_criterion_5_coning_examples():
    arcs = (("1", "2"), ("2", "3"), ("3", "1"))
    triangle = DirectedEmbedding(
        ("1", "2", "3"), arcs, (("a", arcs), ("b", arcs))
    )
    t, tau = triangulate_embedding(triangle)
    assert set(t.faces) == set(bipyramid(3).faces)
    assert is_homogeneous(t, tau)

    t6 = bipyramid(6)
    all_ii = make_z_orientation(t6, (0, 0))
    big, big_tau = triangulate_embedding(embedding_from_directed_faces(t6, all_ii))
    assert (len(big.vertices), len(big.edges), len(big.faces)) == (20, 54, 36)
    assert big.euler_characteristic() == 2
    assert is_homogeneous(big, big_tau)
    _passed(5, "directed triangle cones to the 3-bipyramid; 6-bipyramid doubles")


def test_criterion_6_gluings(glued_corpus):
    expected = {4: (9, 21, 14), 6: (11, 27, 18)}
    for n, (t, tau, host_site, piece_site) in glued_corpus.items():
        assert (len(t.vertices), len(t.edges), len(t.faces)) == expected[n]
        assert t.euler_characteristic() == 2
        assert is_z_knotted(t)
        assert is_homogeneous(t, tau)
        assert len(classify(t, tau).type_i_vertices) == 4
        predicted = predict_glued_zigzag(host_site, piece_site)
        assert predicted.canonical() == tau.chosen[0].canonical()
    _passed(6, "both gluing examples produce the predicted zigzag")


def test_criterion_7_structural_properties(
    bipyramid_corpus, platonic_corpus, glued_corpus, tree_corpus
):
    instances = [t for t, _ in bipyramid_corpus.values()]
    instances += list(platonic_corpus.values())
    instances += [t for t, _, _, _ in glued_corpus.values()]
    instances += [t for _, t, _, _ in tree_corpus]
    rng = random.Random(7)
    for t in instances:
        zs = enumerate_zigzags(t)
        # each edge is passed exactly twice over the whole census
        counts = Counter(p.edge for z in zs for p in z.passes)
        assert all(c == 2 for c in counts.values())
        assert set(counts) == set(t.edges)
        # no zigzag is its own reversal
        for z in zs:
            assert z.passes != z.reverse().passes
        for tau in sampled_orientations(t, rng):
            cls = classify(t, tau)
            # at every vertex the directed type-II edges balance
            for v in t.vertices:
                indeg = sum(1 for d in cls.edge_directions.values() if d[1] == v)
                outdeg = sum(1 for d in cls.edge_directions.values() if d[0] == v)
                assert indeg == outdeg
            # every face is type I or type II, nothing else
            assert set(cls.face_types.values()) <= {"I", "II"}
            # reversing every zigzag preserves all types and flips directions
            flipped = ZOrientation(tau.zigzags, tuple(1 - b for b in tau.bits))
            rcls = classify(t, flipped)
            assert rcls.edge_types == cls.edge_types
            assert rcls.vertex_types == cls.vertex_types
            assert rcls.face_types == cls.face_types
            assert rcls.edge_directions == {
                e: (d[1], d[0]) for e, d in cls.edge_directions.items()
            }
    _passed(7, "double cover, no self-reversals, balance, dichotomy, reversal stability")


def test_criterion_8_tree_builds(tree_corpus):
    for spec, t, tau, _ in tree_corpus:
        assert validate_tree(spec).ok
        assert len(spec.nodes) <= 8
        assert max(spec.labels.values()) <= 14
        assert t.euler_characteristic() == 2
        assert is_z_knotted(t)
        assert is_homogeneous(t, tau)
        assert len(classify(t, tau).type_i_vertices) == 2 * len(spec.nodes)
    for bad in (
        TreeSpec((("r", 3), ("x", 4), ("y", 4)), (("r", "x"), ("r", "y"))),
        TreeSpec((("r", 5), ("x", 2)), (("r", "x"),)),
    ):
        try:
            tree_build(bad)
        except TreeError:
            pass
        else:
            raise AssertionError("invalid tree spec was accepted")
    _passed(8, "random labeled trees build z-knotted spheres; invalid specs rejected")


def test_criterion_9_platonic_censuses(platonic_corpus):
    expected = {
        "tetrahedron": [4, 4, 4],
        "octahedron": [6, 6, 6, 6],
        "icosahedron": [10, 10, 10, 10, 10, 10],
    }
    for name, lengths in expected.items():
        t = platonic_corpus[name]
        faces = [frozenset(f) for f in t.faces]
        assert oracle.census(faces) == lengths
        assert sorted(len(z) for z in enumerate_zigzags(t)) == lengths
    _passed(9, "platonic censuses match the independent orbit walker")
