"""validate's link check, enumeration's corner table and the constructor's
one sorted sweep, against the rules they replace: the link of each vertex
walked on its own (link_oracle), the table read off each edge's two faces
as sets, and the indexes gathered cell by cell and then sorted, on closed
surfaces and on damaged ones."""

from __future__ import annotations

import random

import pytest

import link_oracle as oracle
from helpers import embedding_from_directed_faces, random_flips, torus7, torus_grid
from zigzags import (
    Triangulation,
    TriangulationError,
    ValidationReport,
    bipyramid,
    enumerate_zigzags,
    make_z_orientation,
    platonic,
    triangulate_embedding,
)
from zigzags import engine
from zigzags.engine import _corner_table
from zigzags.triangulation import face_key


def _closed() -> list[Triangulation]:
    rng = random.Random(28)
    out = [bipyramid(n) for n in range(3, 15)]
    out += [platonic(name) for name in ("tetrahedron", "octahedron", "icosahedron")]
    out += [torus7(), *(torus_grid(m) for m in (3, 4, 5))]
    torus = torus7()
    coned = embedding_from_directed_faces(torus, make_z_orientation(torus, (0, 0, 0)))
    out.append(triangulate_embedding(coned)[0])
    out += [random_flips(bipyramid(n), rng, k) for n in (5, 6, 8, 9, 12) for k in (2, 5, 9)]
    return out


def _corpus() -> list[list[tuple[str, str, str]]]:
    """Face lists: each closed surface as it is, with one to three faces
    removed, with a third and a fourth face on one edge, pinched to a copy
    of itself at one vertex, beside a copy of itself; one face; no face."""
    rng = random.Random(2028)
    out = []
    for t in _closed():
        faces = list(t.faces)
        out.append(faces)
        for k in (1, 2, 3):
            gone = set(rng.sample(range(len(faces)), k))
            out.append([f for i, f in enumerate(faces) if i not in gone])
        u, v = rng.choice(t.edges)
        out.append(faces + [(u, v, "extra3")])
        out.append(faces + [(u, v, "extra3"), (v, "extra4", u)])
        x = rng.choice(t.vertices)
        out.append(faces + [tuple(w if w == x else w + "'" for w in f) for f in faces])
        out.append(faces + [tuple(w + "'" for w in f) for f in faces])
    return out + [[("1", "2", "3")], []]


CORPUS = _corpus()


def _old_indexes(faces) -> tuple[dict, dict]:
    """The edge and vertex indexes as the constructor built them before:
    each cell's faces gathered in face order, then sorted."""
    edge_faces: dict = {}
    vertex_faces: dict = {}
    for f in faces:
        a, b, c = key = face_key(*f)
        for v in key:
            vertex_faces.setdefault(v, []).append(key)
        for e in ((a, b), (a, c), (b, c)):
            edge_faces.setdefault(e, []).append(key)
    return (
        {e: tuple(sorted(fs)) for e, fs in edge_faces.items()},
        {v: tuple(sorted(fs)) for v, fs in vertex_faces.items()},
    )


def _reference_report(faces) -> ValidationReport:
    """validate's report as it was built before, each vertex link walked by
    the reference walk."""
    edge_faces, vertex_faces = _old_indexes(faces)
    violations = [] if faces else ["no faces"]
    violations += [
        f"edge {a}-{b} lies in {len(fs)} face(s), expected 2"
        for (a, b), fs in sorted(edge_faces.items())
        if len(fs) != 2
    ]
    vertices = sorted(vertex_faces)
    if vertices:
        seen, stack = {vertices[0]}, [vertices[0]]
        while stack:
            for f in vertex_faces[stack.pop()]:
                stack += [w for w in f if w not in seen]
                seen.update(f)
        if len(seen) != len(vertices):
            violations.append(f"graph disconnected: reached {len(seen)} of {len(vertices)} vertices")
    violations += [
        f"link of vertex {v} is not a single cycle"
        for v in vertices
        if oracle.link_cycle(v, vertex_faces[v]) is None
    ]
    return ValidationReport(tuple(violations))


def _reference_corners(edge_faces: dict) -> dict:
    """(s, d, x) -> y for the two faces {s, d, x}, {s, d, y} of each edge in
    exactly two faces."""
    out = {}
    for (u, v), fs in edge_faces.items():
        if len(fs) == 2:
            (x,), (y,) = (set(f) - {u, v} for f in fs)
            for s, d in ((u, v), (v, u)):
                out[s, d, x], out[s, d, y] = y, x
    return out


def test_validate_reports_as_the_link_walk_and_builds_no_corner_table(monkeypatch):
    built = []
    table = engine._corner_table
    monkeypatch.setattr(engine, "_corner_table", lambda ef: built.append(ef) or table(ef))
    links = 0
    for faces in CORPUS:
        t = Triangulation(faces)
        assert _corner_table(t._edge_faces) == _reference_corners(t._edge_faces)
        report = t.validate()
        assert report == _reference_report(faces), faces
        links += any(v.startswith("link of vertex") for v in report.violations)
        assert built == []
        # enumeration builds the one table it walks
        if report.ok:
            enumerate_zigzags(t)
            assert built == [t._edge_faces]
            built.clear()
    # damaged links of every kind: holes, branching edges, pinches
    assert links > len(CORPUS) // 2


def test_the_constructor_indexes_as_before_under_any_face_order():
    rng = random.Random(2029)
    for faces in CORPUS:
        shuffled = [tuple(rng.sample(f, 3)) for f in faces]
        rng.shuffle(shuffled)
        t = Triangulation(shuffled)
        assert t.faces == tuple(face_key(*f) for f in shuffled)
        assert (t._edge_faces, t._vertex_faces) == _old_indexes(shuffled)


@pytest.mark.parametrize("trio", ["112", "121", "211", "122", "212", "221", "333"])
def test_a_repeated_vertex_is_named_as_face_key_names_it(trio):
    with pytest.raises(TriangulationError) as want:
        face_key(*trio)
    with pytest.raises(TriangulationError) as got:
        Triangulation([("1", "2", "4"), tuple(trio), ("1", "2", "4")])
    assert str(got.value) == str(want.value)
