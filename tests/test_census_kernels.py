"""classify against the rule it replaces: it reads types off the bits over
one pass table, and must give what the passes of tau.chosen give, byte for
byte."""

from __future__ import annotations

import random

import pytest

from helpers import (
    classify_by_passes,
    embedding_from_directed_faces,
    random_flips,
    torus7,
    torus_grid,
)
from zigzags import (
    TriangulationError,
    ZOrientation,
    all_z_orientations,
    bipyramid,
    classify,
    enumerate_zigzags,
    make_z_orientation,
    platonic,
    triangulate_embedding,
)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except TriangulationError as exc:
        return f"{type(exc).__name__}: {exc}"


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
def test_a_foreign_zigzag_is_named_as_the_chosen_zigzag_meets_it(n, m):
    t = bipyramid(n)
    own = make_z_orientation(t, (0,) * len(enumerate_zigzags(t)))
    classify(t, own)
    table = t._passes
    foreign = enumerate_zigzags(bipyramid(m))[:1]
    messages = set()
    for bits in ((0,), (1,)):
        tau = ZOrientation(foreign, bits)
        got = _outcome(_classified, t, tau)
        assert got == _outcome(classify_by_passes, t, tau)
        messages.add(got)
    # the unknown edge met first depends on the direction of the zigzag
    assert len(messages) == 2
    assert t._passes is table


def test_a_missing_zigzag_fails_the_double_cover_and_keeps_the_table():
    t = bipyramid(6)
    zs = enumerate_zigzags(t)
    tau = make_z_orientation(t, (0, 1))
    classify(t, tau)
    table = t._passes
    for bits in ((0,), (1,)):
        missing = ZOrientation(zs[:1], bits)
        want = _outcome(classify_by_passes, t, missing)
        assert want == "TriangulationError: each edge is passed exactly twice"
        assert _outcome(_classified, t, missing) == want
    # the same zigzags in another tuple give the same types, uncached
    copied = ZOrientation(tuple(list(zs)), (0, 1))
    assert _classified(t, copied) == _classified(t, tau)
    assert t._passes is table

