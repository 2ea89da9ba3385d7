"""Session fixtures: generated instances shared across test files."""

from __future__ import annotations

import random

import pytest

from helpers import flipped_sites, glued_example, random_tree_spec
from zigzags import bipyramid, bipyramid_canonical_zorientation, classify, platonic, tree_build


@pytest.fixture(scope="session")
def bipyramid_corpus():
    """(t, canonical tau) for n = 3..12, keyed by n."""
    return {
        n: (bipyramid(n), bipyramid_canonical_zorientation(n)) for n in range(3, 13)
    }


@pytest.fixture(scope="session")
def platonic_corpus():
    return {name: platonic(name) for name in ("tetrahedron", "octahedron", "icosahedron")}


@pytest.fixture(scope="session")
def glued_corpus():
    """Both gluing examples: piece BP_4 (four zigzags) and BP_6 (two zigzags)."""
    return {n: glued_example(n) for n in (4, 6)}


@pytest.fixture(scope="session")
def tree_corpus():
    """20 random valid tree specs and their builds, deterministic seed."""
    rng = random.Random(20260817)
    out = []
    for _ in range(20):
        spec = random_tree_spec(rng)
        t, tau, log = tree_build(spec)
        out.append((spec, t, tau, log))
    return out


@pytest.fixture(scope="session")
def flipped_hosts():
    """The z-knotted homogeneous hosts that are no bipyramid among 1,500
    flips of seed 7 (flipped_sites), each classified under its orientation
    and under the reversal."""
    hosts = flipped_sites(7, 1500, (1,))
    return [
        classify(h.triangulation, tau)
        for h in hosts
        for tau in (h.orientation, h.orientation.reversed())
    ]


@pytest.fixture(scope="session")
def flipped_pieces():
    """The two- and four-zigzag homogeneous pieces that are no bipyramid
    among 3,000 flips of seed 7 (flipped_sites)."""
    return flipped_sites(7, 3000, (2, 4))
