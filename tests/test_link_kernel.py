"""The vertex-link kernel against the walk it replaced (link_oracle): the
same cycle or path, or None, on every link the library walks and on
damaged ones."""

from __future__ import annotations

import itertools
import random

import pytest

import link_oracle as oracle
from helpers import random_flips, random_tree_spec, torus7, torus_grid
from zigzags import bipyramid, platonic, tree_build
from zigzags.triangulation import _link_cycle


def _surfaces():
    rng = random.Random(26)
    out = [bipyramid(n) for n in range(3, 15)]
    out += [platonic(name) for name in ("tetrahedron", "octahedron", "icosahedron")]
    out += [torus7(), *(torus_grid(m) for m in (3, 4, 5))]
    out += [random_flips(bipyramid(n), rng, k) for n in (5, 6, 8, 9, 12) for k in (2, 5, 9)]
    return out


def _agree(v, faces) -> None:
    """Compare kernel and reference on the faces at v, closed and open."""
    for closed in (True, False):
        assert _link_cycle(v, faces, closed) == oracle.link_cycle(v, faces, closed), (v, faces)


def test_every_closed_link_of_the_corpora_walks_as_before(tree_corpus):
    for t in _surfaces() + [t for _, t, _, _ in tree_corpus]:
        for v in t.vertices:
            _agree(v, t.vertex_faces(v))


def test_every_link_less_some_faces_walks_as_before():
    # an open path, or two, where one or two faces at v are gone
    for t in _surfaces()[:20]:
        for v in t.vertices:
            faces = t.vertex_faces(v)
            for gone in itertools.chain(itertools.combinations(range(len(faces)), 1),
                                        itertools.combinations(range(len(faces)), 2)):
                _agree(v, [f for i, f in enumerate(faces) if i not in gone])


def test_every_link_a_glue_check_hands_the_kernel_walks_as_before(monkeypatch):
    # what _Surface.check hands the kernel during tree builds: the whole
    # link of each new vertex, and the (lost, gained) paths of each old one
    # that _relinked compares
    seen = []

    def recorded(v, faces, closed=True):
        seen.append((v, tuple(faces), closed))
        return _link_cycle(v, faces, closed)

    monkeypatch.setattr("zigzags.surgery._link_cycle", recorded)
    rng = random.Random(20260817)
    for _ in range(20):
        tree_build(random_tree_spec(rng))
    monkeypatch.undo()
    assert {closed for _, _, closed in seen} == {True, False}
    for v, faces, _ in seen:
        _agree(v, faces)


DAMAGED = {
    "two disjoint cycles": [("x", "1", "2"), ("x", "2", "3"), ("x", "1", "3"),
                            ("x", "4", "5"), ("x", "5", "6"), ("x", "4", "6")],
    "a link vertex of degree 1": [("x", "1", "2"), ("x", "2", "3"), ("x", "3", "4")],
    "a link vertex of degree 3": [("x", "1", "2"), ("x", "2", "3"), ("x", "3", "1"),
                                  ("x", "1", "4")],
    "every link vertex of degree 3": [("x", "1", "2"), ("x", "2", "3"), ("x", "3", "4"),
                                      ("x", "1", "4"), ("x", "1", "3"), ("x", "2", "4")],
    "an open path with a branch": [("x", "1", "2"), ("x", "2", "3"), ("x", "2", "4")],
    "an open path that closes into a cycle": [("x", "1", "2"), ("x", "2", "3"),
                                              ("x", "3", "4"), ("x", "1", "4")],
    "an open path and a disjoint cycle": [("x", "1", "2"), ("x", "2", "3"),
                                          ("x", "4", "5"), ("x", "5", "6"), ("x", "4", "6")],
    "a single face": [("x", "1", "2")],
    "two faces on one link edge": [("x", "1", "2"), ("1", "x", "2")],
}


@pytest.mark.parametrize("name", DAMAGED)
def test_a_damaged_link_walks_as_before_in_every_face_order(name):
    for faces in itertools.permutations(DAMAGED[name]):
        _agree("x", list(faces))


def test_no_face_is_no_link():
    # the reference raised ValueError from min() on no face when closed; no
    # face makes no cycle and no path
    assert _link_cycle("x", []) is None
    assert _link_cycle("x", [], closed=False) is None is oracle.link_cycle("x", [], False)
    with pytest.raises(ValueError):
        oracle.link_cycle("x", [])
