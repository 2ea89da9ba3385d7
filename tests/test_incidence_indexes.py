"""The incidence indexes the library grows, against the rules they replace:
the constructor's sweep against the tuple-growing sweep (index_oracle), and
a tree build's growing surface, whose cells keep their faces unsorted until
it is finished, against a fresh Triangulation after every glue."""

from __future__ import annotations

import random

import pytest

import index_oracle as oracle
import zigzags.surgery as surgery
from helpers import embedding_from_directed_faces, random_flips, random_tree_spec, torus7
from test_tree_build import path_tree, star_tree
from zigzags import (
    Triangulation,
    TriangulationError,
    bipyramid,
    bipyramid_canonical_zorientation,
    extract_directed_embedding,
    make_z_orientation,
    platonic,
    triangulate_embedding,
    tree_build,
)


def _coned(t, tau) -> Triangulation:
    return triangulate_embedding(extract_directed_embedding(t, tau))[0]


def _surfaces(tree_corpus) -> list[Triangulation]:
    rng = random.Random(29)
    out = [bipyramid(n) for n in range(3, 65)] + [bipyramid(1001)]
    out += [platonic(name) for name in ("tetrahedron", "octahedron", "icosahedron")]
    out += [random_flips(bipyramid(n), rng, k) for n in (5, 8, 12, 20) for k in (3, 9, 17)]
    out += [t for _, t, _, _ in tree_corpus]
    # coned embeddings: each cone vertex's degree is its face cycle's length
    out += [_coned(bipyramid(n), bipyramid_canonical_zorientation(n)) for n in (3, 7, 12, 41)]
    out += [_coned(t, tau) for _, t, tau, _ in tree_corpus[:5]]
    torus = torus7()
    out.append(triangulate_embedding(
        embedding_from_directed_faces(torus, make_z_orientation(torus, (0, 0, 0)))
    )[0])
    return out


def test_the_constructor_indexes_as_the_tuple_growing_sweep(tree_corpus):
    rng = random.Random(2029)
    inputs = 0
    for t in _surfaces(tree_corpus):
        faces = list(t.faces)
        shuffled = [tuple(rng.sample(f, 3)) for f in faces]
        rng.shuffle(shuffled)
        for given in (faces, shuffled):
            want = oracle.indexes(given)
            got = Triangulation(given)
            assert got.faces == want["faces"]
            assert got.vertices == want["vertices"]
            assert got.edges == want["edges"]
            for name in ("edge_faces", "vertex_faces"):
                index = getattr(got, "_" + name)
                # equal as dicts, in the same cell order, each cell a tuple
                assert index == want[name]
                assert list(index) == list(want[name])
                assert all(type(fs) is tuple for fs in index.values())
            inputs += 1
    assert inputs == 2 * (62 + 1 + 3 + 12 + 20 + 4 + 5 + 1)


@pytest.mark.parametrize("faces, message", [
    ([("1", "2", "3"), ("1", "2")], "face must have 3 vertices, got ('1', '2')"),
    ([("1", "2", "3"), ("1", "2", "3", "4")],
     "face must have 3 vertices, got ('1', '2', '3', '4')"),
    ([("1", "2", "3"), ("2", "4", "2")],
     "face vertices must be pairwise distinct, got ('2', '4', '2')"),
    ([("1", "2", "3"), ("3", "1", "2")], "duplicate face ('1', '2', '3')"),
    ([("1", "2", "3"), ("1", "", "4")], "vertex token must be a non-empty string, got ''"),
    ([("1", "2", "3"), ("1", "a b", "4")], "vertex token 'a b' contains whitespace or '#'"),
    ([("1", "2", "3"), ("1", 2, "4")], "vertex token must be a non-empty string, got 2"),
])
def test_a_malformed_face_is_named_as_before(faces, message):
    with pytest.raises(TriangulationError) as caught:
        Triangulation(faces)
    assert str(caught.value) == message


def _trees() -> list:
    rng = random.Random(2930)
    specs = [path_tree(n) for n in range(2, 9)] + [star_tree(n) for n in range(2, 9)]
    return specs + [random_tree_spec(rng) for _ in range(6)]


def test_the_growing_surface_indexes_as_a_fresh_triangulation(monkeypatch):
    glue = surgery._Surface.glue
    checked = []

    def checked_glue(surface, host, piece_site, what, prefix=""):
        sizes = glue(surface, host, piece_site, what, prefix)
        fresh = Triangulation(surface.faces)
        for index, want in (
            (surface.edge_faces, fresh._edge_faces),
            (surface.vertex_faces, fresh._vertex_faces),
        ):
            assert {c: tuple(sorted(fs)) for c, fs in index.items()} == want, what
        # the V, E, F glue returns are the fresh triangulation's
        assert sizes == (len(fresh.vertices), len(fresh.edges), len(fresh.faces)), what
        checked.append(what)
        return sizes

    monkeypatch.setattr(surgery._Surface, "glue", checked_glue)
    specs = _trees()
    assert len(specs) == 20
    for spec in specs:
        t, _, log = tree_build(spec)
        assert len(log.records) == len(spec.nodes) - 1
        # the finished surface hands over the indexes the constructor builds
        assert (t._edge_faces, t._vertex_faces) == (
            Triangulation(t.faces)._edge_faces, Triangulation(t.faces)._vertex_faces
        )
    assert len(checked) == sum(len(spec.nodes) - 1 for spec in specs)

