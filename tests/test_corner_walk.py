"""eulerian._pinched_vertices walks each vertex's corner cycle once on two
flat maps; it must report exactly what the per-vertex search it replaces
(pinch_oracle) reports, in text and order, on every embedding the census
and tree corpora extract and on pinched ones built from them."""

from __future__ import annotations

import pytest

import pinch_oracle as oracle
from helpers import embedding_from_directed_faces, torus7
from test_eulerian import PINCHED_VERTEX
from zigzags import (
    DirectedEmbedding,
    all_z_orientations,
    bipyramid,
    bipyramid_canonical_zorientation,
    extract_directed_embedding,
    is_homogeneous,
    make_z_orientation,
    parse_embedding,
    platonic,
    validate_embedding,
)
from zigzags.eulerian import _pinched_vertices


PLATONIC = ("tetrahedron", "octahedron", "icosahedron")


def _census(t) -> list[DirectedEmbedding]:
    """The embedding of every homogeneous orientation of t."""
    taus = (tau for tau in all_z_orientations(t) if is_homogeneous(t, tau))
    return [extract_directed_embedding(t, tau) for tau in taus]


@pytest.fixture(scope="module")
def extracted(tree_corpus, glued_corpus, flipped_hosts, flipped_pieces) -> list[DirectedEmbedding]:
    """The embeddings of every homogeneous orientation of BP(3..20) and the
    platonic solids, of the census's large bipyramids, of the tree, glued
    and flipped corpora, and the torus's double embedding."""
    out = [e for n in range(3, 21) for e in _census(bipyramid(n))]
    out += [
        extract_directed_embedding(bipyramid(n), bipyramid_canonical_zorientation(n))
        for n in (41, 122, 283)
    ]
    out += [e for name in PLATONIC for e in _census(platonic(name))]
    out += [extract_directed_embedding(t, tau) for _, t, tau, _ in tree_corpus]
    out += [extract_directed_embedding(t, tau) for t, tau, _, _ in glued_corpus.values()]
    out += [extract_directed_embedding(c.triangulation, c.orientation) for c in flipped_hosts]
    out += [extract_directed_embedding(c.triangulation, c.orientation) for c in flipped_pieces]
    torus = torus7()
    out.append(embedding_from_directed_faces(torus, make_z_orientation(torus, (0, 0, 0))))
    return out


def _joined(*copies) -> DirectedEmbedding:
    """The union of copies (embedding, tag, kept): each copy's vertices but
    the kept ones and all its cycle names take the tag, so copies meet only
    at kept vertices, where the union is pinched."""
    vertices, arcs, cycles = set(), [], []
    for emb, tag, kept in copies:
        def name(x):
            return x if x in kept else tag + x

        vertices.update(map(name, emb.vertices))
        arcs += [(name(u), name(w)) for u, w in emb.arcs]
        cycles += [
            (tag + c, tuple((name(u), name(w)) for u, w in cyc)) for c, cyc in emb.face_cycles
        ]
    return DirectedEmbedding(tuple(vertices), tuple(arcs), tuple(cycles))


def _pinched(emb: DirectedEmbedding) -> dict[str, DirectedEmbedding]:
    """emb pinched at its first vertex to one copy, to two copies, and at
    its first and its last vertex each to another copy."""
    v, w = emb.vertices[0], emb.vertices[-1]
    return {
        "two": _joined((emb, "a.", {v}), (emb, "b.", {v})),
        "three": _joined((emb, "a.", {v}), (emb, "b.", {v}), (emb, "c.", {v})),
        "twice": _joined((emb, "a.", {v}), (emb, "b.", {v, w}), (emb, "c.", {w})),
    }


# a directed triangle taken as two face cycles repeats each of its corners
TRIANGLE = DirectedEmbedding(
    ("1", "2", "3"), (("1", "2"), ("2", "3"), ("3", "1")),
    tuple((name, (("1", "2"), ("2", "3"), ("3", "1"))) for name in ("a", "b")),
)


def test_the_corner_walk_reports_as_the_search_on_surfaces(extracted):
    assert len(extracted) == 132
    for emb in extracted:
        assert _pinched_vertices(emb) == oracle.pinched_vertices(emb) == []
    assert _pinched_vertices(TRIANGLE) == oracle.pinched_vertices(TRIANGLE) == []


def test_the_corner_walk_reports_as_the_search_on_pinched_embeddings(tree_corpus):
    # every pinched vertex is named, in vertex order, with its cycle count;
    # the double embedding has in-degree 3 at every vertex
    bps = [
        extract_directed_embedding(bipyramid(n), bipyramid_canonical_zorientation(n))
        for n in (3, 5, 6, 9)
    ]
    trees = [extract_directed_embedding(t, tau) for _, t, tau, _ in tree_corpus[:3]]
    torus = torus7()
    double = embedding_from_directed_faces(torus, make_z_orientation(torus, (0, 0, 0)))
    counts = {"two": [2], "three": [3], "twice": [2, 2]}
    for emb in (*bps, *trees, double, TRIANGLE):
        for how, pinched in _pinched(emb).items():
            got = validate_embedding(pinched).violations
            assert list(got) == _pinched_vertices(pinched) == oracle.pinched_vertices(pinched)
            assert [int(m.split(" form ")[1].split()[0]) for m in got] == counts[how], how
    # repeated corners: each triangle's corners join its two arcs at v2
    assert _pinched_vertices(parse_embedding(PINCHED_VERTEX)) == oracle.pinched_vertices(
        parse_embedding(PINCHED_VERTEX)
    ) == ["the corners at vertex 'v2' form 2 cycles, not one"]

