"""The least-rotation rule of zigzags and face cycles (engine._least_rotation)
against a naive reference, on the sequences it is exact for: those whose
least item occurs at most twice."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zigzags import Zigzag, enumerate_zigzags
from zigzags.engine import _least_rotation


def naive_least_rotation(seq):
    n = len(seq)
    return min(tuple(seq[(k + i) % n] for i in range(n)) for k in range(n))


def least_at_most_twice(items):
    """Lists of items whose least item occurs once or twice: a list of
    items with every occurrence of its least item past the second dropped."""

    def cap(xs):
        firsts = [i for i, x in enumerate(xs) if x == min(xs)][:2]
        return [x for i, x in enumerate(xs) if x != xs[firsts[0]] or i in firsts]

    return st.lists(items, min_size=1, max_size=40).map(cap)


def test_single_element():
    assert _least_rotation(("x",)) == ("x",)


def test_already_minimal():
    assert _least_rotation((1, 2, 3)) == (1, 2, 3)


def test_rotation_needed():
    assert _least_rotation((3, 1, 2)) == (1, 2, 3)
    # the least item at exactly two positions: the later rotation wins, then the earlier
    assert _least_rotation((0, 3, 0, 1)) == (0, 1, 0, 3)
    assert _least_rotation((2, 0, 1, 0, 3)) == (0, 1, 0, 3, 2)


def test_a_least_item_thrice_starts_at_its_first_occurrence():
    # the least rotations are (0, 1, 0, 2, 0, 2) and (0, 1, 0, 3, 1, 0, 2)
    assert _least_rotation((0, 2, 0, 1, 0, 2)) == (0, 2, 0, 1, 0, 2)
    assert _least_rotation((1, 0, 2, 0, 1, 0, 3)) == (0, 2, 0, 1, 0, 3, 1)


def test_repeated_blocks():
    # periodic sequences have several minimal rotations; either one serves
    assert _least_rotation((2, 1, 2, 1)) == (1, 2, 1, 2)


def test_all_equal():
    assert _least_rotation(("a",) * 5) == ("a",) * 5


def test_empty():
    assert _least_rotation(()) == ()


@settings(max_examples=200, deadline=None)
@given(least_at_most_twice(st.integers(min_value=0, max_value=5)))
def test_matches_naive_small_alphabet(xs):
    assert _least_rotation(xs) == naive_least_rotation(xs)


@settings(max_examples=100, deadline=None)
@given(least_at_most_twice(st.tuples(st.integers(0, 3), st.integers(0, 3))))
def test_matches_naive_tuples(xs):
    # pass-like tuple elements, compared lexicographically
    assert _least_rotation(xs) == naive_least_rotation(xs)


@settings(max_examples=100, deadline=None)
@given(least_at_most_twice(st.integers(0, 5)), st.integers(0, 39))
def test_rotation_invariance(xs, k):
    k %= len(xs)
    assert _least_rotation(xs[k:] + xs[:k]) == _least_rotation(xs)


def _triangulations(request, corpus):
    if corpus == "bipyramid":
        return [t for t, _ in request.getfixturevalue("bipyramid_corpus").values()]
    if corpus == "platonic":
        return list(request.getfixturevalue("platonic_corpus").values())
    if corpus == "glued":
        return [t for t, *_ in request.getfixturevalue("glued_corpus").values()]
    if corpus == "tree":
        return [t for _, t, _, _ in request.getfixturevalue("tree_corpus")]
    # each host is classified under its orientation and the reversal
    hosts = request.getfixturevalue("flipped_hosts")
    return list({id(c.triangulation): c.triangulation for c in hosts}.values())


@pytest.mark.parametrize("corpus", ("bipyramid", "platonic", "glued", "tree", "flipped"))
def test_every_rotation_of_a_zigzag_builds_the_stored_zigzag(request, corpus):
    zigzags = [z for t in _triangulations(request, corpus) for z in enumerate_zigzags(t)]
    assert zigzags
    for z in zigzags:
        for walk in (z, z.reverse()):
            ps = walk.passes
            assert ps == naive_least_rotation(ps)
            for k in range(len(ps)):
                assert Zigzag(ps[k:] + ps[:k]).passes == ps
