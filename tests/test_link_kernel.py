"""The vertex-link walk across an edge index (triangulation._link_walk) and
the bounded glue rule (surgery._relinked) against the rules they replaced
(link_oracle): the same cycle, or None, on every link the library walks and
on damaged ones, and the same verdict on every link a glue changes."""

from __future__ import annotations

import itertools
import random

import pytest

import link_oracle as oracle
import zigzags.surgery as surgery
from helpers import random_flips, random_tree_spec, torus7, torus_grid
from zigzags import bipyramid, platonic, tree_build
from zigzags.surgery import _relinked
from zigzags.triangulation import _link_walk, edge_key


def _surfaces():
    rng = random.Random(26)
    out = [bipyramid(n) for n in range(3, 15)]
    out += [platonic(name) for name in ("tetrahedron", "octahedron", "icosahedron")]
    out += [torus7(), *(torus_grid(m) for m in (3, 4, 5))]
    out += [random_flips(bipyramid(n), rng, k) for n in (5, 6, 8, 9, 12) for k in (2, 5, 9)]
    return out


def _edge_index(faces) -> dict:
    """Edge key -> the given faces holding it, in the order given."""
    index: dict = {}
    for f in faces:
        for e in itertools.combinations(f, 2):
            index.setdefault(edge_key(*e), []).append(f)
    return index


def _agree(v, faces, index=None) -> None:
    """The walk of v's link across the index (by default one built from the
    faces) is the reference's cycle, rotated and perhaps reversed, from the
    first face's two link vertices; or both are None."""
    walk = _link_walk(v, faces, _edge_index(faces) if index is None else index)
    cycle = oracle.link_cycle(v, faces) if faces else None
    if cycle is None:
        assert walk is None, (v, faces)
        return
    k = cycle.index(walk[0])
    turned = cycle[k:] + cycle[:k]
    assert tuple(walk) in (turned, turned[:1] + turned[:0:-1]), (v, faces)
    assert set(walk[:2]) == set(faces[0]) - {v}


def test_every_closed_link_of_the_corpora_walks_as_before(tree_corpus):
    for t in _surfaces() + [t for _, t, _, _ in tree_corpus]:
        for v in t.vertices:
            faces = t.vertex_faces(v)
            _agree(v, faces, t._edge_faces)
            # vertex_link starts at the least neighbour and goes toward the
            # lesser of its two, as the reference walks
            assert t.vertex_link(v) == oracle.link_cycle(v, faces)


def test_every_link_less_some_faces_walks_as_before():
    # one or two faces at v gone leave one open path, or two: no cycle
    for t in _surfaces()[:20]:
        for v in t.vertices:
            faces = t.vertex_faces(v)
            for gone in itertools.chain(itertools.combinations(range(len(faces)), 1),
                                        itertools.combinations(range(len(faces)), 2)):
                _agree(v, [f for i, f in enumerate(faces) if i not in gone])


def test_every_link_a_glue_check_hands_the_kernel_walks_as_before(monkeypatch):
    # what _Surface.check hands the kernels during tree builds: the whole
    # link of each new vertex to the walk, on the surface's own index, and
    # the lost and gained faces of each old one to _relinked, which must
    # decide as the reference rule does at the moment it is asked
    walked, verdicts = [], []

    def recorded_walk(v, faces, index):
        walked.append((v, tuple(faces)))
        _agree(v, faces, index)
        return _link_walk(v, faces, index)

    def recorded_relinked(x, lost, gained, born, index):
        verdict = _relinked(x, lost, gained, born, index)
        verdicts.append((verdict, oracle.relinked(x, lost, gained, born, index)))
        return verdict

    monkeypatch.setattr(surgery, "_link_walk", recorded_walk)
    monkeypatch.setattr(surgery, "_relinked", recorded_relinked)
    rng = random.Random(20260817)
    for _ in range(20):
        tree_build(random_tree_spec(rng))
    monkeypatch.undo()
    assert len(walked) > 600 and len(verdicts) > 200
    assert all(new == old for new, old in verdicts)


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
    # the reference raises ValueError from min() on no face; no face makes
    # no cycle
    assert _link_walk("x", [], {}) is None
    assert oracle.link_cycle("x", [], False) is None
    with pytest.raises(ValueError):
        oracle.link_cycle("x", [])


# x's link before: the hexagon 1-2-3-4-5-6; the lost faces' path 2-3-4
HEXAGON = [("x", str(i), str(i % 6 + 1)) for i in range(1, 7)]
LOST = HEXAGON[1:3]


def _relink_case(gained, lost=LOST, stray=()):
    """(x, lost, gained, born edges, edge index) as a glue hands _relinked
    them: the index holds x's kept faces, the gained ones and any stray, and
    the born edges are those of gained faces at x the hexagon lacked."""
    faces = [f for f in HEXAGON if f not in lost] + list(gained) + list(stray)
    before = {edge_key("x", y) for f in HEXAGON for y in f if y != "x"}
    born = {edge_key("x", y) for f in gained for y in f if y != "x"} - before
    return "x", list(lost), list(gained), born, _edge_index(faces)


def test_a_relink_through_new_neighbours_is_accepted_by_both_rules():
    case = _relink_case([("x", "2", "a"), ("x", "a", "b"), ("x", "b", "4")])
    assert _relinked(*case) is oracle.relinked(*case) is True


@pytest.mark.parametrize("gained, lost, stray", [
    # the gained arc closes a second cycle beside the path
    ([("x", "2", "a"), ("x", "a", "4"), ("x", "b", "c"), ("x", "c", "d"), ("x", "b", "d")],
     LOST, ()),
    # the gained ends differ from the lost ones
    ([("x", "2", "a"), ("x", "a", "5")], LOST, ()),
    ([("x", "3", "a"), ("x", "a", "5")], LOST[1:], ()),
    # the lost inner vertex 3 is still a neighbour of x
    ([("x", "2", "a"), ("x", "a", "4")], LOST, [("x", "3", "9")]),
    # the gained arc passes an old neighbour of x
    ([("x", "2", "6"), ("x", "6", "4")], LOST, ()),
    # no lost face, or no gained face
    ([("x", "2", "a"), ("x", "a", "4")], [], ()),
    ([], LOST, ()),
    # the lost faces make two paths
    ([("x", "1", "a"), ("x", "a", "3")], [HEXAGON[0], HEXAGON[2]], ()),
])
def test_a_broken_relink_is_rejected_by_both_rules(gained, lost, stray):
    case = _relink_case(gained, lost, stray)
    assert _relinked(*case) is oracle.relinked(*case) is False
