"""is_homogeneous rules an orientation out from the types of each zigzag's
first six passes before it classifies.  The screen must reject only what
classify's definition rejects: on every orientation of every surface here
it agrees with classify(t, tau).homogeneous, keeps the homogeneous bit
strings closed under complement, and reads bits given as True or 1.0 as 1.
classify's verdict, read off the zigzags alone, is in turn the definition
read literally, faces and all."""

from __future__ import annotations

import pytest

import zigzags.engine as engine
from helpers import embedding_from_directed_faces, reads_ii_i_i, torus7, torus_grid
from zigzags import (
    Triangulation,
    ZOrientation,
    all_z_orientations,
    bipyramid,
    classify,
    enumerate_zigzags,
    is_homogeneous,
    make_z_orientation,
    platonic,
    triangulate_embedding,
)


# a z-knotted 7-vertex sphere whose zigzag of length 30 reads I,I,II over
# its first six passes under bits (0,), yet has two type-II faces: the
# screen passes it and classify decides
PASSES_THE_SCREEN = "12a 12b 1ab 23a 23b 34a 34b 45a 45b 5ab"


def _fixed_surfaces():
    out = [Triangulation([tuple(f) for f in PASSES_THE_SCREEN.split()])]
    out += [bipyramid(n) for n in range(3, 15)]
    out += [platonic(name) for name in ("tetrahedron", "octahedron", "icosahedron")]
    torus = torus7()
    out += [torus, torus_grid(3), torus_grid(4)]
    out.append(triangulate_embedding(
        embedding_from_directed_faces(torus, make_z_orientation(torus, (0, 0, 0)))
    )[0])
    return out


@pytest.fixture(scope="module")
def surfaces(flipped_hosts, flipped_pieces, tree_corpus):
    out = _fixed_surfaces()
    out += [cls.triangulation for cls in flipped_hosts[::2]]
    out += [cls.triangulation for cls in flipped_pieces]
    out += [t for _, t, _, _ in tree_corpus]
    return out


def test_the_screen_agrees_with_classify_on_every_orientation(surfaces):
    ruled_out = passed = homogeneous = 0
    for t in surfaces:
        zs = enumerate_zigzags(t)
        assert len(zs) <= 12
        found = set()
        for tau in all_z_orientations(t):
            screened = engine._ruled_out(t, tau)
            answer = is_homogeneous(t, tau)
            cls = classify(t, tau)
            assert answer is cls.homogeneous is reads_ii_i_i(cls), (t.faces, tau.bits)
            ruled_out += screened
            passed += not screened
            if answer:
                found.add(tau.bits)
                homogeneous += 1
            # bits given as True or 1.0 read as 1, and an equal copy of the
            # zigzags is t's own, so each gives the same answer
            for bits in (tuple(map(bool, tau.bits)), tuple(map(float, tau.bits))):
                assert is_homogeneous(t, ZOrientation(zs, bits)) is answer
            assert is_homogeneous(t, ZOrientation(tuple(list(zs)), tau.bits)) is answer
        # reversing every zigzag keeps homogeneity
        assert {tuple(1 - b for b in bits) for bits in found} == found
    # every kind of outcome happens: ruled out, passed and found homogeneous,
    # passed and found not
    assert ruled_out and passed > homogeneous > 0


def test_an_orientation_can_pass_the_screen_and_not_be_homogeneous():
    t = Triangulation([tuple(f) for f in PASSES_THE_SCREEN.split()])
    tau = make_z_orientation(t, (0,))
    assert len(tau.chosen[0]) == 30
    assert not engine._ruled_out(t, tau)
    cls = classify(t, tau)
    assert list(cls.face_types.values()).count("II") == 2 and not cls.homogeneous
    assert not is_homogeneous(t, tau)

