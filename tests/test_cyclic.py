"""Least-rotation helper against a naive reference."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from zigzags._cyclic import least_rotation, least_rotation_index


def naive_least_rotation(seq):
    n = len(seq)
    return min(tuple(seq[(k + i) % n] for i in range(n)) for k in range(n))


def test_single_element():
    assert least_rotation(("x",)) == ("x",)
    assert least_rotation_index(("x",)) == 0


def test_already_minimal():
    assert least_rotation((1, 2, 3)) == (1, 2, 3)


def test_rotation_needed():
    assert least_rotation((3, 1, 2)) == (1, 2, 3)
    assert least_rotation_index((3, 1, 2)) == 1
    # the least item at exactly two positions: the later rotation wins, then the earlier
    assert least_rotation_index((0, 3, 0, 1)) == 2
    assert least_rotation_index((2, 0, 1, 0, 3)) == 1
    # at exactly three positions
    assert least_rotation_index((0, 2, 0, 1, 0, 2)) == 2
    assert least_rotation((1, 0, 2, 0, 1, 0, 3)) == (0, 1, 0, 3, 1, 0, 2)


def test_repeated_blocks():
    # periodic sequences have several minimal rotations; any index works
    seq = (2, 1, 2, 1)
    assert least_rotation(seq) == (1, 2, 1, 2)
    assert seq[least_rotation_index(seq) :] + seq[: least_rotation_index(seq)] == (1, 2, 1, 2)


def test_all_equal():
    assert least_rotation(("a",) * 5) == ("a",) * 5


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=40))
def test_matches_naive_small_alphabet(xs):
    assert least_rotation(tuple(xs)) == naive_least_rotation(xs)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=30))
def test_matches_naive_tuples(xs):
    # pass-like tuple elements, compared lexicographically
    assert least_rotation(tuple(xs)) == naive_least_rotation(xs)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=1, max_size=25), st.integers(0, 24))
def test_rotation_invariance(xs, k):
    k %= len(xs)
    rotated = tuple(xs[k:] + xs[:k])
    assert least_rotation(rotated) == least_rotation(tuple(xs))
