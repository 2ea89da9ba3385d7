"""Shared builders for the test suite."""

from __future__ import annotations

import random

from zigzags import (
    TreeSpec,
    ZOrientation,
    all_z_orientations,
    bipyramid,
    bipyramid_canonical_zorientation,
    find_piece_pairs,
    find_special_pairs,
    glue,
    make_z_orientation,
    plan_gluing,
)


def random_tree_spec(rng: random.Random, max_nodes: int = 8) -> TreeSpec:
    """A random valid tree spec: <= max_nodes nodes, labels <= 14 where the
    node degrees allow it."""
    n_nodes = rng.randint(1, max_nodes)
    ids = [f"n{i}" for i in range(n_nodes)]
    edges = [(ids[rng.randrange(i)], ids[i]) for i in range(1, n_nodes)]
    deg = {i: 0 for i in ids}
    for u, w in edges:
        deg[u] += 1
        deg[w] += 1
    nodes = []
    for j, i in enumerate(ids):
        if j == 0:
            # root label 2k+1 <= 13 unless the degree needs more
            k = rng.randint(max(1, deg[i]), max(6, deg[i]))
            nodes.append((i, 2 * k + 1))
        else:
            # label 2k <= 14 unless the degree needs more
            k = rng.randint(max(2, deg[i]), max(7, deg[i]))
            nodes.append((i, 2 * k))
    return TreeSpec(tuple(nodes), tuple(edges))


def glued_example(piece_n: int):
    """G(BP_3, BP_piece_n) glued at the first host pair, canonical orientations.

    Returns (glued_t, glued_tau, host_site, piece_site).
    """
    host = bipyramid(3, "L.")
    host_tau = bipyramid_canonical_zorientation(3, "L.")
    piece = bipyramid(piece_n, "R.")
    piece_tau = bipyramid_canonical_zorientation(piece_n, "R.")
    host_site, piece_site = plan_gluing(
        host, host_tau, find_special_pairs(host, host_tau)[0],
        piece, piece_tau, find_piece_pairs(piece, piece_tau),
    )
    glued_t, glued_tau = glue((host, host_tau), host_site, (piece, piece_tau), piece_site)
    return glued_t, glued_tau, host_site, piece_site


def sampled_orientations(t, rng: random.Random, cap: int = 16) -> list[ZOrientation]:
    """Every z-orientation when there are at most 4 zigzags, else a sample."""
    taus = list(all_z_orientations(t))
    k = len(taus[0].bits)
    if k <= 4:
        return taus
    out = []
    for _ in range(cap):
        bits = tuple(rng.randint(0, 1) for _ in range(k))
        out.append(make_z_orientation(t, bits))
    return out
