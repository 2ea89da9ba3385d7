"""Special pairs, gluing sites, and the gluing operation."""

from __future__ import annotations

import itertools

import pytest

from zigzags import (
    FOUR_ZIGZAG,
    HOST,
    TWO_ZIGZAG,
    PiecePair,
    SpecialPair,
    SurgeryError,
    are_concordant,
    bipyramid,
    bipyramid_canonical_zorientation,
    check_compatibility,
    classify,
    find_piece_pairs,
    find_special_pairs,
    glue,
    inherited_pairs,
    is_homogeneous,
    make_z_orientation,
    plan_gluing,
    predict_glued_zigzag,
    resolve_site,
)


def canonical_pair(n: int, prefix: str = ""):
    t = bipyramid(n, prefix)
    return t, bipyramid_canonical_zorientation(n, prefix)


def compatible_piece_site(host_site, piece, piece_tau):
    _, piece_site = plan_gluing(
        host_site.triangulation, host_site.orientation, host_site.pair,
        piece, piece_tau, find_piece_pairs(piece, piece_tau),
    )
    return piece_site


def site_facts(site):
    return (
        site.pair, site.kind, site.face_labels, site.vertex_sides,
        site.e1_direction, site.e2_direction, site.segments.segments,
    )


@pytest.fixture(scope="module")
def knotted(tree_corpus):
    """BP(3..17, odd) and the tree corpus, each under tau and tau.reversed()."""
    instances = [canonical_pair(n) for n in range(3, 18, 2)]
    instances += [(t, tau) for _, t, tau, _ in tree_corpus]
    return [(t, x) for t, tau in instances for x in (tau, tau.reversed())]


def resolve_outcome(t, tau, pair):
    """resolve_site's site for the pair, or the message of its SurgeryError."""
    try:
        return resolve_site(t, tau, pair)
    except SurgeryError as exc:
        return str(exc)


@pytest.fixture(scope="module")
def role_order_outcomes(knotted):
    """Per knotted instance: every interleaved vertex-sharing type-II pair,
    in (c1 < c2) order, with resolve_site's outcome in both role orders."""
    out = []
    for t, tau in knotted:
        z = tau.chosen[0]
        rows = []
        for c1, c2 in itertools.combinations(classify(t, tau).type_ii_edges, 2):
            shared = set(c1) & set(c2)
            if len(shared) != 1:
                continue
            p, q = z.occurrences(c1), z.occurrences(c2)
            if sum(1 for x in q if p[0] < x < p[1]) != 1:
                continue
            pair = SpecialPair(c1, c2, shared.pop())
            both = {cand: resolve_outcome(t, tau, cand) for cand in (pair, pair.swapped())}
            rows.append((pair, both))
        out.append((t, tau, rows))
    return out


def reference_special_pairs(rows):
    """Special pairs as public resolve_site finds them: each pair in the one
    role order that resolves."""
    found = []
    for _, outcomes in rows:
        resolving = [cand for cand, got in outcomes.items() if not isinstance(got, str)]
        assert len(resolving) == 1, outcomes
        found.append(resolving[0])
    return tuple(found)


# ----------------------------------------------------------------------
# pairs


def test_special_pair_normalizes_and_validates():
    p = SpecialPair(("2", "1"), ("3", "2"), "2")
    assert p.e1 == ("1", "2") and p.e2 == ("2", "3")
    assert p.v1 == "1" and p.v2 == "3"
    assert p.edges() == frozenset({("1", "2"), ("2", "3")})
    q = p.swapped()
    assert (q.e1, q.e2, q.v1, q.v2) == (p.e2, p.e1, p.v2, p.v1)
    assert q.shared_vertex == "2"


def test_special_pair_rejects_bad_sharing():
    with pytest.raises(SurgeryError):
        SpecialPair(("1", "2"), ("3", "4"), "1")  # disjoint edges
    with pytest.raises(SurgeryError):
        SpecialPair(("1", "2"), ("1", "2"), "1")  # equal edges
    with pytest.raises(SurgeryError):
        SpecialPair(("1", "2"), ("2", "3"), "1")  # wrong shared vertex


@pytest.mark.parametrize("n", (3, 5, 7, 9))
def test_special_pair_census_on_odd_bipyramids(n):
    t, tau = canonical_pair(n)
    pairs = find_special_pairs(t, tau)
    assert len(pairs) == n
    assert {p.shared_vertex for p in pairs} == {str(i) for i in range(1, n + 1)}
    assert len({p.edges() for p in pairs}) == n


def test_special_pairs_require_z_knotted():
    t, tau = canonical_pair(4)
    with pytest.raises(SurgeryError, match="z-knotted"):
        find_special_pairs(t, tau)


def test_emitted_role_order_resolves_swapped_does_not(role_order_outcomes):
    # the side condition singles out exactly one of the two role orders,
    # also under the reversed orientation, where (c1, c2) often fails
    swaps = 0
    for t, tau, rows in role_order_outcomes:
        outcomes = {cand: got for _, both in rows for cand, got in both.items()}
        for pair in find_special_pairs(t, tau):
            assert outcomes[pair].kind == HOST
            assert "side condition" in outcomes[pair.swapped()]
            swaps += pair.e1 > pair.e2
    assert swaps > 0


def test_find_special_pairs_matches_resolve_site_reference(role_order_outcomes):
    for t, tau, rows in role_order_outcomes:
        assert find_special_pairs(t, tau) == reference_special_pairs(rows)


def test_concordance():
    t, tau = canonical_pair(5)
    by_vertex = {p.shared_vertex: p for p in find_special_pairs(t, tau)}
    assert are_concordant(t, tau, by_vertex["1"], by_vertex["3"])
    assert are_concordant(t, tau, by_vertex["2"], by_vertex["5"])
    with pytest.raises(SurgeryError, match="edge-disjoint"):
        are_concordant(t, tau, by_vertex["1"], by_vertex["2"])
    t4, tau4 = canonical_pair(4)
    p = SpecialPair(("1", "2"), ("2", "3"), "2")
    q = SpecialPair(("3", "4"), ("1", "4"), "4")
    with pytest.raises(SurgeryError, match="z-knotted"):
        are_concordant(t4, tau4, p, q)
    # an edge outside t is passed zero times, not twice
    stray = SpecialPair(("x", "y"), ("y", "z"), "y")
    with pytest.raises(SurgeryError, match=r"pair edge \('x', 'y'\) is passed 0 time"):
        are_concordant(t, tau, stray, by_vertex["1"])


def test_piece_pair_censuses():
    t4, tau4 = canonical_pair(4)
    pairs4 = find_piece_pairs(t4, tau4)
    assert len(pairs4) == 4 and all(p.kind == FOUR_ZIGZAG for p in pairs4)
    t6, tau6 = canonical_pair(6)
    pairs6 = find_piece_pairs(t6, tau6)
    assert len(pairs6) == 6 and all(p.kind == TWO_ZIGZAG for p in pairs6)


def test_piece_pairs_require_right_census():
    t, tau = canonical_pair(3)
    with pytest.raises(SurgeryError, match="two or four"):
        find_piece_pairs(t, tau)
    t4 = bipyramid(4)
    all_ii = make_z_orientation(t4, (0, 0, 0, 0))
    with pytest.raises(SurgeryError, match="homogeneous"):
        find_piece_pairs(t4, all_ii)


# ----------------------------------------------------------------------
# resolving sites


def test_host_site_structure():
    t, tau = canonical_pair(3)
    pair = find_special_pairs(t, tau)[0]
    site = resolve_site(t, tau, pair)
    assert site.kind == HOST
    assert site.v == pair.shared_vertex
    assert sorted(site.face_labels.values()) == ["+", "+", "-", "-"]
    # the apexes sit on opposite sides of the split link
    assert sorted(site.vertex_sides) == ["a", "b"]
    assert sorted(site.vertex_sides.values()) == ["+", "-"]
    cls = classify(t, tau)
    assert site.e1_direction == cls.edge_directions[pair.e1]
    assert site.e2_direction == cls.edge_directions[pair.e2]
    z = tau.chosen[0]
    lengths = [len(site.segments[k]) for k in ("1+", "2+", "1-", "2-")]
    assert all(lengths)
    assert sum(lengths) == len(z) - 4


def test_resolve_is_deterministic():
    t, tau = canonical_pair(5)
    pair = find_special_pairs(t, tau)[2]
    a = resolve_site(t, tau, pair)
    b = resolve_site(t, tau, pair)
    assert a.face_labels == b.face_labels
    assert a.vertex_sides == b.vertex_sides
    assert a.segments.segments == b.segments.segments


def test_two_zigzag_site_segments():
    t, tau = canonical_pair(6)
    site = resolve_site(t, tau, find_piece_pairs(t, tau)[0])
    assert site.kind == TWO_ZIGZAG
    # each edge cuts its own 18-pass zigzag into two arcs
    assert len(site.segments["1+"]) + len(site.segments["1-"]) == 16
    assert len(site.segments["2+"]) + len(site.segments["2-"]) == 16


def test_four_zigzag_site_segments():
    t, tau = canonical_pair(4)
    site = resolve_site(t, tau, find_piece_pairs(t, tau)[0])
    assert site.kind == FOUR_ZIGZAG
    # each segment is a whole 6-pass zigzag with one pass removed
    assert [len(site.segments[k]) for k in ("1+", "1-", "2+", "2-")] == [5, 5, 5, 5]


def test_resolve_rejects_type_i_edge():
    t, tau = canonical_pair(3)
    pair = SpecialPair(("1", "a"), ("1", "2"), "1")
    with pytest.raises(SurgeryError, match="not type II"):
        resolve_site(t, tau, pair)


def test_resolve_rejects_non_interleaved(glued_corpus):
    t, tau, _, _ = glued_corpus[4]
    cls = classify(t, tau)
    z = tau.chosen[0]

    def interleaved(e1, e2):
        p, q = z.occurrences(e1), z.occurrences(e2)
        return sum(1 for x in q if p[0] < x < p[1]) == 1

    pair = None
    for a, b in itertools.combinations(cls.type_ii_edges, 2):
        shared = set(a) & set(b)
        if len(shared) == 1 and not interleaved(a, b):
            pair = SpecialPair(a, b, next(iter(shared)))
            break
    assert pair is not None
    with pytest.raises(SurgeryError, match="do not interleave"):
        resolve_site(t, tau, pair)


def test_resolve_rejects_kind_mismatch():
    t, tau = canonical_pair(6)
    good = find_piece_pairs(t, tau)[0]
    bad = PiecePair(good.e1, good.e2, good.shared_vertex, kind=FOUR_ZIGZAG)
    with pytest.raises(SurgeryError, match="does not match the census"):
        resolve_site(t, tau, bad)


def test_resolve_requires_homogeneous():
    t = bipyramid(4)
    all_ii = make_z_orientation(t, (0, 0, 0, 0))
    pair = SpecialPair(("1", "2"), ("2", "3"), "2")
    with pytest.raises(SurgeryError, match="homogeneous"):
        resolve_site(t, all_ii, pair)


# ----------------------------------------------------------------------
# planning a gluing


def searched_piece_site(host_site, piece, piece_tau):
    """The search plan_gluing replaces: resolve each piece pair in both role
    orders until check_compatibility accepts one."""
    for pp in find_piece_pairs(piece, piece_tau):
        for cand in (pp, pp.swapped()):
            site = resolve_site(piece, piece_tau, cand)
            if check_compatibility(host_site, site):
                return site
    raise AssertionError("no compatible piece site")


@pytest.mark.parametrize("n", (4, 6))
def test_plan_gluing_matches_the_search(n, glued_corpus):
    host, host_tau = canonical_pair(3, "L.")
    piece, piece_tau = canonical_pair(n, "R.")
    host_site = resolve_site(host, host_tau, find_special_pairs(host, host_tau)[0])
    piece_site = searched_piece_site(host_site, piece, piece_tau)
    _, _, planned_host, planned_piece = glued_corpus[n]
    assert site_facts(planned_host) == site_facts(host_site)
    assert site_facts(planned_piece) == site_facts(piece_site)
    # a host pair named in the other role order plans the same gluing
    planned = plan_gluing(
        host, host_tau, host_site.pair.swapped(),
        piece, piece_tau, find_piece_pairs(piece, piece_tau),
    )
    assert [site_facts(s) for s in planned] == [site_facts(host_site), site_facts(piece_site)]


def test_plan_gluing_raises_when_nothing_fits(tree_corpus):
    host, host_tau = canonical_pair(3, "L.")
    piece, piece_tau = canonical_pair(4, "R.")
    host_pair = find_special_pairs(host, host_tau)[0]
    with pytest.raises(SurgeryError, match="do not match in either role order"):
        plan_gluing(host, host_tau, host_pair, piece, piece_tau, ())
    type_i = SpecialPair(("R.1", "R.a"), ("R.1", "R.2"), "R.1")
    with pytest.raises(SurgeryError, match="not type II"):
        plan_gluing(host, host_tau, host_pair, piece, piece_tau, (type_i,))
    with pytest.raises(SurgeryError, match="not type II"):
        plan_gluing(host, host_tau, SpecialPair(("L.1", "L.a"), ("L.1", "L.2"), "L.1"),
                    piece, piece_tau, find_piece_pairs(piece, piece_tau))

    # a host pair whose edges both enter (or both leave) the shared vertex
    # fits no bipyramid piece pair, whose edges run through it
    for _, t, tau, _ in tree_corpus:
        cls = classify(t, tau)
        for pair in find_special_pairs(t, tau):
            heads = {cls.edge_directions[e][1] == pair.shared_vertex for e in (pair.e1, pair.e2)}
            if len(heads) == 1:
                with pytest.raises(SurgeryError, match="do not match in either role order"):
                    plan_gluing(t, tau, pair, piece, piece_tau, find_piece_pairs(piece, piece_tau))
                return
    raise AssertionError("the tree corpus has no such host pair")


# ----------------------------------------------------------------------
# compatibility and gluing


def test_check_compatibility_argument_kinds(glued_corpus):
    _, _, host_site, piece_site = glued_corpus[4]
    assert check_compatibility(host_site, piece_site)
    with pytest.raises(SurgeryError, match="must be a host site"):
        check_compatibility(piece_site, piece_site)
    with pytest.raises(SurgeryError, match="must be a piece site"):
        check_compatibility(host_site, host_site)


def test_glue_four_zigzag_piece(glued_corpus):
    t, tau, host_site, piece_site = glued_corpus[4]
    assert (len(t.vertices), len(t.edges), len(t.faces)) == (9, 21, 14)
    assert t.euler_characteristic() == 2
    assert len(tau.zigzags) == 1
    assert len(tau.chosen[0]) == 42
    assert is_homogeneous(t, tau)
    assert len(classify(t, tau).type_i_vertices) == 4
    predicted = predict_glued_zigzag(host_site, piece_site)
    assert predicted.canonical() == tau.chosen[0].canonical()


def test_glue_two_zigzag_piece(glued_corpus):
    t, tau, host_site, piece_site = glued_corpus[6]
    assert (len(t.vertices), len(t.edges), len(t.faces)) == (11, 27, 18)
    assert t.euler_characteristic() == 2
    assert len(tau.zigzags) == 1
    assert len(tau.chosen[0]) == 54
    assert is_homogeneous(t, tau)
    assert len(classify(t, tau).type_i_vertices) == 4
    predicted = predict_glued_zigzag(host_site, piece_site)
    assert predicted.canonical() == tau.chosen[0].canonical()


def test_glue_counts_add_up(glued_corpus):
    host_v, host_e, host_f, host_z = 5, 9, 6, 18
    for n, (t, tau, _, piece_site) in glued_corpus.items():
        piece = bipyramid(n, "R.")
        assert len(t.vertices) == host_v + len(piece.vertices) - 2
        assert len(t.edges) == host_e + len(piece.edges)
        assert len(t.faces) == host_f + len(piece.faces)
        seg_total = sum(len(piece_site.segments[k]) for k in ("1+", "1-", "2+", "2-"))
        assert len(tau.chosen[0]) == (host_z - 4) + seg_total + 8


def test_glue_rejects_foreign_sites(glued_corpus):
    _, _, host_site, piece_site = glued_corpus[4]
    other = bipyramid(3)
    other_tau = bipyramid_canonical_zorientation(3)
    with pytest.raises(SurgeryError, match="do not belong"):
        glue((other, other_tau), host_site, (bipyramid(4, "R."), None), piece_site)


def test_glue_rejects_swapped_roles():
    host, host_tau = canonical_pair(3, "L.")
    piece, piece_tau = canonical_pair(4, "R.")
    host_site = resolve_site(host, host_tau, find_special_pairs(host, host_tau)[0])
    piece_site = compatible_piece_site(host_site, piece, piece_tau)
    with pytest.raises(SurgeryError, match="host site must come from"):
        glue((piece, piece_tau), piece_site, (host, host_tau), host_site)
    host2, host2_tau = canonical_pair(5, "M.")
    host2_site = resolve_site(host2, host2_tau, find_special_pairs(host2, host2_tau)[0])
    with pytest.raises(SurgeryError, match="piece site must come from"):
        glue((host, host_tau), host_site, (host2, host2_tau), host2_site)


def test_glue_rejects_incompatible_directions():
    host, host_tau = canonical_pair(3, "L.")
    piece, piece_tau = canonical_pair(4, "R.")
    host_site = resolve_site(host, host_tau, find_special_pairs(host, host_tau)[0])
    bad = None
    for pp in find_piece_pairs(piece, piece_tau):
        for cand in (pp, pp.swapped()):
            site = resolve_site(piece, piece_tau, cand)
            if not check_compatibility(host_site, site):
                bad = site
                break
        if bad is not None:
            break
    assert bad is not None
    with pytest.raises(SurgeryError, match="do not match"):
        glue((host, host_tau), host_site, (piece, piece_tau), bad)


def test_glue_rejects_name_collisions():
    host, host_tau = canonical_pair(3)
    piece, piece_tau = canonical_pair(4)  # same unprefixed vertex names
    host_site = resolve_site(host, host_tau, find_special_pairs(host, host_tau)[0])
    piece_site = compatible_piece_site(host_site, piece, piece_tau)
    with pytest.raises(SurgeryError, match="disjoint"):
        glue((host, host_tau), host_site, (piece, piece_tau), piece_site)


# ----------------------------------------------------------------------
# inherited pairs


def test_inherited_pairs_survive_and_reglue():
    host, host_tau = canonical_pair(5, "L.")
    host_pairs = find_special_pairs(host, host_tau)
    host_site = resolve_site(host, host_tau, host_pairs[0])
    piece, piece_tau = canonical_pair(4, "R.")
    piece_pairs = find_piece_pairs(piece, piece_tau)
    piece_site = compatible_piece_site(host_site, piece, piece_tau)
    glued = glue((host, host_tau), host_site, (piece, piece_tau), piece_site)

    survivors = inherited_pairs(glued, host_site, piece_site, host_pairs, piece_pairs)
    assert len(survivors) == 3
    # survivors are found again by a fresh census on the glued complex
    fresh = {p.edges() for p in find_special_pairs(*glued)}
    assert {s.edges() for s in survivors} <= fresh

    # and one of them supports a second gluing
    piece2, piece2_tau = canonical_pair(6, "Q.")
    next_host_site, piece2_site = plan_gluing(
        *glued, survivors[0], piece2, piece2_tau, find_piece_pairs(piece2, piece2_tau)
    )
    bigger, bigger_tau = glue(glued, next_host_site, (piece2, piece2_tau), piece2_site)
    assert (len(bigger.vertices), len(bigger.edges), len(bigger.faces)) == (17, 45, 30)
    assert is_homogeneous(bigger, bigger_tau)


def test_inherited_pairs_skip_used_edges(glued_corpus):
    t, tau, host_site, piece_site = glued_corpus[4]
    # pairs overlapping the used pair never survive
    used = host_site.pair
    out = inherited_pairs((t, tau), host_site, piece_site, (used, used.swapped()), ())
    assert out == ()
