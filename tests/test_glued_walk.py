"""The glued walk rule against the paper's two 16-term sequences, and the
segment ends each site kind reads."""

from __future__ import annotations

import pytest

from helpers import public_gluing_build
from zigzags import (
    FOUR_ZIGZAG,
    HOST,
    TWO_ZIGZAG,
    SurgeryError,
    Zigzag,
    bipyramid,
    bipyramid_canonical_zorientation,
    classify,
    find_piece_pairs,
    find_special_pairs,
    make_pass,
    plan_gluing,
    predict_glued_zigzag,
)
from zigzags.surgery import _glued_walk

# The glued zigzag as the paper writes it: eK± is the pass of the split copy
# of edge K on the ± side, AK± the host segment, BK± (two-zigzag piece) or
# CK± (four-zigzag piece) the piece segment.
PAPER_SEQUENCES = {
    TWO_ZIGZAG: "e1+ A1+ e2- B2- e2- A2- e1- B1- e1- A1- e2+ B2+ e2+ A2+ e1+ B1+",
    FOUR_ZIGZAG: "e1+ A1+ e2- C2- e2+ A2+ e1+ C1+ e1- A1- e2+ C2+ e2- A2- e1- C1-",
}

FLIP = {"+": "-", "-": "+"}
KEYS = ("1+", "1-", "2+", "2-")
ENDS = {
    HOST: {"1+": "2+", "2+": "1-", "1-": "2-", "2-": "1+"},
    TWO_ZIGZAG: {k: k[0] + FLIP[k[1]] for k in KEYS},
    FOUR_ZIGZAG: {k: k for k in KEYS},
}


def renamed(site, p, split, renames):
    """A segment pass in glued names: the split vertex takes the half on the
    side of the pass's other end, and the piece's v1, v2 the host's names."""
    v = site.pair.shared_vertex

    def name(u, w):
        return split[site.vertex_sides[w]] if u == v else renames.get(u, u)

    return make_pass(name(p.src, p.dst), name(p.dst, p.src))


def paper_zigzag(host_site, piece_site) -> Zigzag:
    """The glued zigzag assembled term by term from the paper's sequence."""
    pair, to = host_site.pair, host_site.classification.edge_directions
    v = pair.shared_vertex
    split = {side: v + side for side in "+-"}
    renames = {piece_site.pair.v1: pair.v1, piece_site.pair.v2: pair.v2}
    directions = {"1": to[pair.e1], "2": to[pair.e2]}
    passes = []
    for term in PAPER_SEQUENCES[piece_site.kind].split():
        letter, key = term[0], term[1:]
        if letter == "e":
            direction = directions[key[0]]
            passes.append(make_pass(*(split[key[1]] if x == v else x for x in direction)))
        elif letter == "A":
            passes += [renamed(host_site, p, split, {}) for p in host_site.segments[key]]
        else:
            passes += [renamed(piece_site, p, split, renames) for p in piece_site.segments[key]]
    return Zigzag(tuple(passes))


def canonical(n: int, prefix: str, reverse: bool = False):
    tau = bipyramid_canonical_zorientation(n, prefix)
    return classify(bipyramid(n, prefix), tau.reversed() if reverse else tau)


@pytest.fixture(scope="module")
def gluings(tree_corpus):
    """(host_site, piece_site) for every special pair of BP(3, 5, 7, 9, 11)
    with each piece BP(4 .. 14, even) in both orientations, when a piece
    pair fits, and for every glue of the tree corpus's builds, replayed
    through the public plan_gluing and glue."""
    out = []
    pieces = [canonical(n, "R.", rev) for n in range(4, 15, 2) for rev in (False, True)]
    for n in range(3, 12, 2):
        host = canonical(n, "L.")
        for pair in find_special_pairs(host):
            for piece in pieces:
                try:
                    out.append(plan_gluing(host, pair, piece, find_piece_pairs(piece)))
                except SurgeryError:
                    pass
    for spec, *_ in tree_corpus:
        public_gluing_build(spec, out)
    return out


def test_the_corpus_glues_both_piece_kinds(gluings):
    kinds = [piece_site.kind for _, piece_site in gluings]
    assert kinds.count(TWO_ZIGZAG) > 100 and kinds.count(FOUR_ZIGZAG) > 100


def test_walk_rule_yields_the_papers_sequences(gluings):
    for host_site, piece_site in gluings:
        assert predict_glued_zigzag(host_site, piece_site) == paper_zigzag(host_site, piece_site)


def test_each_site_kind_reads_its_ends(gluings):
    for sites in gluings:
        for site in sites:
            assert site.ends == ENDS[site.kind]


def test_a_two_zigzag_piece_moves_host_segments_past_each_other(gluings):
    # the glued walk is not insert-only: the host's segments read 1+, 2+,
    # 1-, 2- around its zigzag, and a four-zigzag piece keeps that order,
    # but a two-zigzag piece reads 1+, 2-, 1-, 2+, so A2+ and A2- trade
    # places and a glued surface's host passes do not keep their order
    orders: dict[str, set] = {}
    for host_site, piece_site in gluings:
        keys = [key for site, key in _glued_walk(host_site.ends, piece_site.ends) if site == 0]
        orders.setdefault(piece_site.kind, set()).add(tuple(keys))
    assert orders == {
        FOUR_ZIGZAG: {("1+", "2+", "1-", "2-")},
        TWO_ZIGZAG: {("1+", "2-", "1-", "2+")},
    }
