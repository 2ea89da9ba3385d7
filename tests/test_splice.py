"""glue splices the host and walks the predicted zigzag: both against a
fresh Triangulation and enumerate_zigzags, and both rejecting bad input."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import zigzags
import zigzags.surgery as surgery
from zigzags import (
    InvariantError,
    Triangulation,
    TriangulationError,
    Zigzag,
    bipyramid,
    enumerate_zigzags,
    face_shadow,
    glue,
    make_pass,
    platonic,
    tree_build,
)
from zigzags.engine import _sole_zigzag_shadow
from zigzags.triangulation import face_key


def _walk(*vertices: str) -> Zigzag:
    """The closed walk through the vertices, back to the first."""
    return Zigzag(tuple(make_pass(u, w) for u, w in zip(vertices, vertices[1:] + vertices[:1])))


def test_every_glue_matches_a_fresh_build_and_enumeration(tree_corpus, glued_corpus, monkeypatch):
    spliced, walked = [], []
    splice, walk = Triangulation._spliced, surgery._sole_zigzag_shadow

    def spy_splice(self, replaced, added):
        out = splice(self, replaced, added)
        spliced.append(out)
        return out

    def spy_walk(t, z):
        shadow = walk(t, z)
        walked.append((t, z, shadow))
        return shadow

    monkeypatch.setattr(Triangulation, "_spliced", spy_splice)
    monkeypatch.setattr(surgery, "_sole_zigzag_shadow", spy_walk)
    for spec, t, _, log in tree_corpus:
        assert tree_build(spec)[0].faces == t.faces
    for _, _, host_site, piece_site in glued_corpus.values():
        glue(host_site, piece_site)
    assert len(spliced) == len(walked) == sum(len(log.records) for *_, log in tree_corpus) + 2

    for t in spliced:
        fresh = Triangulation(t.faces)
        assert (t.faces, t.edges, t.vertices) == (fresh.faces, fresh.edges, fresh.vertices)
        assert t._face_set == fresh._face_set
        assert t._edge_faces == fresh._edge_faces
        assert t._vertex_faces == fresh._vertex_faces
        assert t.validate() == fresh.validate()
        assert t.validate().ok
    for t, z, shadow in walked:
        assert enumerate_zigzags(t) == (z.canonical(),)
        assert shadow == face_shadow(t, z)


def test_glue_neither_enumerates_nor_constructs(glued_corpus, monkeypatch):
    calls = []
    init = Triangulation.__init__

    def counted_init(self, faces):
        calls.append("Triangulation")
        init(self, faces)

    def counted_enumerate(t):
        calls.append("enumerate_zigzags")
        return enumerate_zigzags(t)

    monkeypatch.setattr(Triangulation, "__init__", counted_init)
    for info in pkgutil.iter_modules(zigzags.__path__):
        module = importlib.import_module(f"zigzags.{info.name}")
        if hasattr(module, "enumerate_zigzags"):
            monkeypatch.setattr(module, "enumerate_zigzags", counted_enumerate)
    glued = [glue(host_site, piece_site) for _, _, host_site, piece_site in glued_corpus.values()]
    assert calls == []
    # the walk's face shadow is handed on, so plan_gluing does not walk again
    for cls in glued:
        assert "face_shadows" in vars(cls)
        t, z = cls.triangulation, cls.orientation.chosen[0]
        assert cls.face_shadows == (face_shadow(t, z),)


def test_walk_rejects_the_hosts_zigzag(glued_corpus):
    t, _, host_site, _ = glued_corpus[6]
    host_z = host_site.classification.orientation.chosen[0]
    with pytest.raises(InvariantError, match="zigzag has 18 passes, not 2E = 54"):
        _sole_zigzag_shadow(t, host_z)


def test_walk_rejects_a_zigzag_of_several():
    bp4 = bipyramid(4)
    with pytest.raises(InvariantError, match="zigzag has 6 passes, not 2E = 24"):
        _sole_zigzag_shadow(bp4, enumerate_zigzags(bp4)[0])
    # BP(6)'s two zigzags have E passes each: one walked twice has the length
    # of a single zigzag, but repeats its states from the second round on
    bp6 = bipyramid(6)
    (z, _) = enumerate_zigzags(bp6)
    twice = Zigzag(z.passes * 2)
    with pytest.raises(InvariantError, match="repeats a state or its reversal at position 18$"):
        _sole_zigzag_shadow(bp6, twice)


def test_walk_rejects_turns_off_the_successor_rule():
    # twelve passes, 2E on the tetrahedron, all turning in one face
    tetra = platonic("tetrahedron")
    a, b, c = tetra.faces[0]
    with pytest.raises(InvariantError, match="turns twice in face .* at position 0"):
        _sole_zigzag_shadow(tetra, _walk(a, b, c, a, b, c, a, b, c, a, b, c))
    # the octahedron's equator walked six times: 1, 2, 3 is no face
    octa = bipyramid(4)
    with pytest.raises(InvariantError, match="leaves the faces: passes 0 and 1"):
        _sole_zigzag_shadow(octa, _walk(*"1234" * 6))


def test_walk_accepts_a_z_knotted_zigzag_in_either_direction(glued_corpus):
    t, tau, _, _ = glued_corpus[4]
    z = tau.chosen[0]
    assert _sole_zigzag_shadow(t, z) == face_shadow(t, z)
    assert _sole_zigzag_shadow(t, z.reverse()) == face_shadow(t, z.reverse())


def test_local_check_rejects_a_tampered_splice(glued_corpus):
    _, _, host_site, piece_site = glued_corpus[4]
    th = host_site.classification.triangulation
    split = surgery._split_names(host_site, piece_site)
    host_rename, _ = surgery._namers(host_site, piece_site, split)
    # v2 takes the host's name, v1 keeps the piece's
    piece_rename = surgery._namer(piece_site, split, {piece_site.v2: host_site.v2})
    at_v = th.vertex_faces(host_site.v)
    tp = piece_site.classification.triangulation
    t = th._spliced(dict(zip(at_v, host_rename(at_v, face_key))), piece_rename(tp.faces, face_key))
    report = t.validate()
    assert not report.ok
    assert any(piece_site.v1 in line for line in report.violations)
    # the local report is the full one but for the connectivity search
    full = Triangulation(t.faces).validate().violations
    assert report.violations == tuple(v for v in full if not v.startswith("graph disconnected"))


def test_splice_runs_the_constructors_face_checks():
    t = bipyramid(4)
    with pytest.raises(TriangulationError, match="duplicate face"):
        t._spliced({}, [t.faces[0]])
    with pytest.raises(TriangulationError, match="whitespace"):
        t._spliced({}, [("1", "x y", "z")])
    with pytest.raises(TriangulationError, match="3 vertices"):
        t._spliced({t.faces[0]: ("1", "2")}, [])
    # a replaced face leaves room for its replacement
    assert t._spliced({t.faces[0]: t.faces[0]}, []).faces == t.faces
