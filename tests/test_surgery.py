"""Special pairs, gluing sites, and the gluing operation."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import random
import re
from types import SimpleNamespace

import pytest

from zigzags import (
    FOUR_ZIGZAG,
    HOST,
    TWO_ZIGZAG,
    SpecialPair,
    SurgeryError,
    TreeSpec,
    bipyramid,
    bipyramid_canonical_zorientation,
    check_compatibility,
    classify,
    find_piece_pairs,
    find_special_pairs,
    glue,
    is_homogeneous,
    make_z_orientation,
    plan_gluing,
    predict_glued_zigzag,
    resolve_site,
    tree_build,
)
from helpers import are_concordant, random_flips
from zigzags.surgery import _labeling, _positions, _resolve, _Surface


def canonical(n: int, prefix: str = ""):
    """BP(n) classified under its canonical z-orientation."""
    return classify(bipyramid(n, prefix), bipyramid_canonical_zorientation(n, prefix))


def compatible_piece_site(host_site, piece):
    _, piece_site = plan_gluing(
        host_site.classification, host_site.pair, piece, find_piece_pairs(piece)
    )
    return piece_site


def face_labels(site):
    """The four faces at e1 and e2 -> "+"/"-", the side of each face's
    interior link vertex."""
    t, sides = site.classification.triangulation, site.vertex_sides
    return {
        f: sides[next(w for w in f if w in sides)]
        for e in (site.pair.e1, site.pair.e2)
        for f in t.edge_faces(e)
    }


def site_facts(site):
    to = site.classification.edge_directions
    return (
        site.pair, site.kind, face_labels(site), site.vertex_sides,
        to[site.pair.e1], to[site.pair.e2], site.segments,
    )


@pytest.fixture(scope="module")
def knotted(tree_corpus):
    """BP(3..17, odd) and the tree corpus, each classified under tau and
    tau.reversed()."""
    instances = [(bipyramid(n), bipyramid_canonical_zorientation(n)) for n in range(3, 18, 2)]
    instances += [(t, tau) for _, t, tau, _ in tree_corpus]
    return [classify(t, x) for t, tau in instances for x in (tau, tau.reversed())]


def resolve_outcome(cls, pair):
    """resolve_site's site for the pair, or the message of its SurgeryError."""
    try:
        return resolve_site(cls, pair)
    except SurgeryError as exc:
        return str(exc)


@pytest.fixture(scope="module")
def role_order_outcomes(knotted):
    """Per knotted instance: every interleaved vertex-sharing type-II pair,
    in (c1 < c2) order, with resolve_site's outcome in both role orders."""
    out = []
    for cls in knotted:
        z = cls.orientation.chosen[0]
        rows = []
        for c1, c2 in itertools.combinations(cls.type_ii_edges, 2):
            shared = set(c1) & set(c2)
            if len(shared) != 1:
                continue
            p, q = z.occurrences(c1), z.occurrences(c2)
            if sum(1 for x in q if p[0] < x < p[1]) != 1:
                continue
            pair = SpecialPair(c1, c2, shared.pop())
            both = {cand: resolve_outcome(cls, cand) for cand in (pair, pair.swapped())}
            rows.append((pair, both))
        out.append((cls, rows))
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
    pairs = find_special_pairs(canonical(n))
    assert len(pairs) == n
    assert {p.shared_vertex for p in pairs} == {str(i) for i in range(1, n + 1)}
    assert len({p.edges() for p in pairs}) == n


def test_special_pairs_require_z_knotted():
    with pytest.raises(SurgeryError, match="^a host needs one zigzag, not 4$"):
        find_special_pairs(canonical(4))


def test_every_entry_point_checks_homogeneity_before_the_census():
    # a z-knotted surface with no homogeneous z-orientation, and BP(4) under
    # a non-homogeneous one: whatever role a classification is asked to fill,
    # it fails there first, as zigzags glue has always reported it
    flipped = random_flips(bipyramid(5), random.Random(0), 3)
    knotted = classify(flipped, make_z_orientation(flipped, (0,)))
    four = classify(bipyramid(4), make_z_orientation(bipyramid(4), (0, 0, 0, 0)))
    host, piece = canonical(3, "L."), canonical(4, "R.")
    host_pair, piece_pairs = find_special_pairs(host)[0], find_piece_pairs(piece)
    host_site, piece_site = plan_gluing(host, host_pair, piece, piece_pairs)
    for cls in (knotted, four):
        assert not cls.homogeneous
        site = dataclasses.replace(host_site, classification=cls)
        for call in (
            lambda: find_special_pairs(cls),
            lambda: find_piece_pairs(cls),
            lambda: resolve_site(cls, host_pair),
            lambda: plan_gluing(cls, host_pair, piece, piece_pairs),
            lambda: plan_gluing(host, host_pair, cls, piece_pairs),
            lambda: _Surface(cls),
            lambda: check_compatibility(site, piece_site),
            lambda: check_compatibility(host_site, site),
        ):
            with pytest.raises(
                SurgeryError, match="^gluing sites require a homogeneous z-orientation$"
            ):
                call()


def test_emitted_role_order_resolves_swapped_does_not(role_order_outcomes):
    # the side condition singles out exactly one of the two role orders,
    # also under the reversed orientation, where (c1, c2) often fails
    swaps = 0
    for cls, rows in role_order_outcomes:
        outcomes = {cand: got for _, both in rows for cand, got in both.items()}
        for pair in find_special_pairs(cls):
            assert outcomes[pair].kind == HOST
            assert "side condition" in outcomes[pair.swapped()]
            swaps += pair.e1 > pair.e2
    assert swaps > 0


def test_find_special_pairs_matches_resolve_site_reference(role_order_outcomes):
    for cls, rows in role_order_outcomes:
        assert find_special_pairs(cls) == reference_special_pairs(rows)


def test_host_role_order_is_decided_once(role_order_outcomes):
    # resolving as plan_gluing's host half does, given a pair in either
    # order, gives the site resolve_site finds in the one order that resolves
    for cls, rows in role_order_outcomes:
        for pair, both in rows:
            (site,) = (got for got in both.values() if not isinstance(got, str))
            for cand in (pair, pair.swapped()):
                assert site_facts(_resolve(cls, cand)) == site_facts(site)


def test_swapping_roles_keeps_the_labeling(role_order_outcomes):
    # why a host's role order is a read-off: swapping e1 and e2 keeps every
    # sign and only swaps the 1/2 indices of the pass keys
    def labelings(cls, pair):
        pos = _positions(cls.triangulation.vertex_link(pair.shared_vertex))
        at, host = cls.pass_positions, len(cls.orientation.zigzags) == 1
        walks = [z.passes for z in cls.orientation.chosen]
        return [
            _labeling(cand, pos, (at[cand.e1], at[cand.e2]), walks, host)
            for cand in (pair, pair.swapped())
        ]

    for cls, rows in role_order_outcomes:
        for pair, _ in rows:
            (ordered, sides, keys), (ordered2, sides2, keys2) = labelings(cls, pair)
            assert (ordered, sides, keys) == (ordered2, sides2, keys2)
    for n in range(4, 13, 2):
        cls = canonical(n)
        for pair in find_piece_pairs(cls):
            (ordered, sides, keys), (ordered2, sides2, keys2) = labelings(cls, pair)
            assert (ordered, ordered2) == (pair, pair.swapped())
            assert keys2 == {f"{3 - int(k[0])}{k[1]}": at for k, at in keys.items()}
            assert sides == sides2


def test_find_special_pairs_builds_one_pair_per_candidate(knotted, monkeypatch):
    # each candidate's role order is read before its pair is built, so a
    # swapped pair costs no second SpecialPair
    built = []
    post_init = SpecialPair.__post_init__

    def counted(pair):
        built.append(pair)
        post_init(pair)

    monkeypatch.setattr(SpecialPair, "__post_init__", counted)
    swaps = 0
    for cls in knotted:
        start = len(built)
        pairs = find_special_pairs(cls)
        assert built[start:] == list(pairs)
        swaps += sum(p.e1 > p.e2 for p in pairs)
    assert swaps > 0


def test_concordance():
    cls = canonical(5)
    by_vertex = {p.shared_vertex: p for p in find_special_pairs(cls)}
    assert are_concordant(cls, by_vertex["1"], by_vertex["3"])
    assert are_concordant(cls, by_vertex["2"], by_vertex["5"])


def test_piece_pair_censuses():
    # the site kind comes from the census of the classification
    for n, count, kind in ((4, 4, FOUR_ZIGZAG), (6, 6, TWO_ZIGZAG)):
        cls = canonical(n)
        pairs = find_piece_pairs(cls)
        assert len(pairs) == count
        assert {resolve_site(cls, p).kind for p in pairs} == {kind}


def test_piece_pairs_require_right_census():
    with pytest.raises(SurgeryError, match="two or four"):
        find_piece_pairs(canonical(3))
    t4 = bipyramid(4)
    all_ii = classify(t4, make_z_orientation(t4, (0, 0, 0, 0)))
    with pytest.raises(SurgeryError, match="homogeneous"):
        find_piece_pairs(all_ii)


# ----------------------------------------------------------------------
# resolving sites


def test_host_site_structure():
    cls = canonical(3)
    pair = find_special_pairs(cls)[0]
    site = resolve_site(cls, pair)
    assert site.kind == HOST
    assert sorted(face_labels(site).values()) == ["+", "+", "-", "-"]
    # the apexes sit on opposite sides of the split link
    assert sorted(site.vertex_sides) == ["a", "b"]
    assert sorted(site.vertex_sides.values()) == ["+", "-"]
    assert site.classification is cls
    assert site.pair == pair
    z = cls.orientation.chosen[0]
    lengths = [len(site.segments[k]) for k in ("1+", "2+", "1-", "2-")]
    assert all(lengths)
    assert sum(lengths) == len(z) - 4


def test_resolve_is_deterministic():
    cls = canonical(5)
    pair = find_special_pairs(cls)[2]
    a = resolve_site(cls, pair)
    b = resolve_site(canonical(5), pair)
    assert face_labels(a) == face_labels(b)
    assert a.vertex_sides == b.vertex_sides
    assert a.segments == b.segments


def test_two_zigzag_site_segments():
    cls = canonical(6)
    site = resolve_site(cls, find_piece_pairs(cls)[0])
    assert site.kind == TWO_ZIGZAG
    # each edge cuts its own 18-pass zigzag into two arcs
    assert len(site.segments["1+"]) + len(site.segments["1-"]) == 16
    assert len(site.segments["2+"]) + len(site.segments["2-"]) == 16


def test_four_zigzag_site_segments():
    cls = canonical(4)
    site = resolve_site(cls, find_piece_pairs(cls)[0])
    assert site.kind == FOUR_ZIGZAG
    # each segment is a whole 6-pass zigzag with one pass removed
    assert [len(site.segments[k]) for k in ("1+", "1-", "2+", "2-")] == [5, 5, 5, 5]


def test_resolve_rejects_a_four_zigzag_pair_sharing_a_zigzag():
    # under 0101 both spokes at a are type II, but each is passed by the
    # same two zigzags
    t = bipyramid(8)
    cls = classify(t, make_z_orientation(t, (0, 1, 0, 1)))
    pair = SpecialPair(("1", "a"), ("5", "a"), "a")
    with pytest.raises(SurgeryError, match="^pair edges must occur in disjoint zigzag pairs$"):
        resolve_site(cls, pair)


def test_resolve_rejects_type_i_edge():
    pair = SpecialPair(("1", "a"), ("1", "2"), "1")
    with pytest.raises(SurgeryError, match="not type II"):
        resolve_site(canonical(3), pair)


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
        resolve_site(cls, pair)


def tampered(cls, e, after=None):
    """A copy of cls whose chosen walks put after in place of the pass after
    e's second pass; by default after is the pass after e's first pass, so
    e's second pass turns into the face its first pass enters.  The pass
    positions stay those of cls."""
    (zi, r), (zj, q) = cls.pass_positions[e]
    walks = [list(z.passes) for z in cls.orientation.chosen]
    walks[zj][(q + 1) % len(walks[zj])] = after or walks[zi][(r + 1) % len(walks[zi])]
    tau = dataclasses.replace(cls.orientation)
    tau.__dict__["chosen"] = tuple(SimpleNamespace(passes=tuple(w)) for w in walks)
    copy = dataclasses.replace(cls, orientation=tau)
    copy.__dict__["pass_positions"] = cls.pass_positions
    return copy


@pytest.mark.parametrize(
    "n, what", ((3, "occurrences of"), (6, "occurrences of"), (4, "zigzags through"))
)
def test_resolve_rejects_an_edge_not_crossing_its_faces_oppositely(n, what):
    # no classification shows this: two passes of a type-II edge entering one
    # face would be one zigzag state; so the walks are tampered with
    def rejects(e):
        return pytest.raises(
            SurgeryError, match=rf"^{what} {re.escape(str(e))} do not cross its faces oppositely$"
        )

    cls = canonical(n)
    pair = (find_special_pairs(cls) if n % 2 else find_piece_pairs(cls))[0]
    for e in (pair.e1, pair.e2):
        with rejects(e):
            resolve_site(tampered(cls, e), pair)
    if n % 2:
        # find_special_pairs runs the checks on each candidate (c1, c2), c1 <
        # c2: an edge that is only ever c1 meets the e1 check and no other,
        # an edge that is only ever c2 the e2 check
        candidates = [sorted(p.edges()) for p in find_special_pairs(cls)]
        firsts, seconds = ({c[i] for c in candidates} for i in (0, 1))
        assert firsts - seconds and seconds - firsts
        for e in (min(firsts - seconds), min(seconds - firsts)):
            with rejects(e):
                find_special_pairs(tampered(cls, e))


@pytest.mark.parametrize("n", (3, 6, 4))
def test_resolve_rejects_a_pair_pass_that_turns_in_no_face(n):
    # no walk shows this either: the pass after e's second pass runs back
    # over e, so it ends at v or at e's far end, and no face at v holds e
    # and that end
    cls = canonical(n)
    pair = (find_special_pairs(cls) if n % 2 else find_piece_pairs(cls))[0]
    v = pair.shared_vertex
    for e in (pair.e1, pair.e2):
        zj, q = cls.pass_positions[e][1]
        back = cls.orientation.chosen[zj].passes[q]
        back = back._replace(src=back.dst, dst=back.src)
        rejects = pytest.raises(SurgeryError, match=(
            rf"^pass {q} of zigzag {zj} over {re.escape(str(e))} turns in no face at '{v}'$"
        ))
        with rejects:
            resolve_site(tampered(cls, e, back), pair)
        if n % 2:
            with rejects:
                find_special_pairs(tampered(cls, e, back))
            # a host pair cut on a growing surface runs the same check
            surface = _Surface(cls)
            surface.passes[(q + 1) % len(surface.passes)] = back
            with rejects:
                surface.cut(pair)


def test_resolve_requires_homogeneous():
    t = bipyramid(4)
    all_ii = classify(t, make_z_orientation(t, (0, 0, 0, 0)))
    pair = SpecialPair(("1", "2"), ("2", "3"), "2")
    with pytest.raises(SurgeryError, match="homogeneous"):
        resolve_site(all_ii, pair)
    # plan_gluing checks both classifications it is handed
    host = canonical(3, "L.")
    with pytest.raises(SurgeryError, match="homogeneous"):
        plan_gluing(all_ii, pair, canonical(4, "R."), ())
    with pytest.raises(SurgeryError, match="homogeneous"):
        plan_gluing(host, find_special_pairs(host)[0], all_ii, ())


# ----------------------------------------------------------------------
# planning a gluing


def searched_piece_site(host_site, piece):
    """The search plan_gluing replaces: resolve each piece pair in both role
    orders until check_compatibility accepts one."""
    for pp in find_piece_pairs(piece):
        for cand in (pp, pp.swapped()):
            site = resolve_site(piece, cand)
            if check_compatibility(host_site, site):
                return site
    raise AssertionError("no compatible piece site")


@pytest.mark.parametrize("n", (4, 6))
def test_plan_gluing_matches_the_search(n, glued_corpus):
    host = canonical(3, "L.")
    piece = canonical(n, "R.")
    host_site = resolve_site(host, find_special_pairs(host)[0])
    piece_site = searched_piece_site(host_site, piece)
    _, _, planned_host, planned_piece = glued_corpus[n]
    assert site_facts(planned_host) == site_facts(host_site)
    assert site_facts(planned_piece) == site_facts(piece_site)
    # a host pair named in the other role order plans the same gluing
    planned = plan_gluing(host, host_site.pair.swapped(), piece, find_piece_pairs(piece))
    assert [site_facts(s) for s in planned] == [site_facts(host_site), site_facts(piece_site)]


def test_plan_gluing_raises_when_nothing_fits(tree_corpus):
    host = canonical(3, "L.")
    piece = canonical(4, "R.")
    host_pair = find_special_pairs(host)[0]
    # no candidate is no direction mismatch; a generator is counted as it runs
    for none in ((), (p for p in ())):
        with pytest.raises(SurgeryError, match="^no piece pair was given$"):
            plan_gluing(host, host_pair, piece, none)
    # a piece is no host: the four-zigzag BP(4) before a BP(6) piece, or
    # before the z-knotted BP(3) with the roles swapped
    six = canonical(6, "S.")
    for other, pairs in ((six, find_piece_pairs(six)), (host, (host_pair,))):
        with pytest.raises(SurgeryError, match="a host needs one zigzag, not 4"):
            plan_gluing(piece, find_piece_pairs(piece)[0], other, pairs)
    # a z-knotted piece is no piece, whatever candidates it is given
    knotted_piece = canonical(5, "R.")
    with pytest.raises(SurgeryError, match="two or four zigzags, not 1"):
        plan_gluing(host, host_pair, knotted_piece, find_special_pairs(knotted_piece))
    type_i = SpecialPair(("R.1", "R.a"), ("R.1", "R.2"), "R.1")
    with pytest.raises(SurgeryError, match="not type II"):
        plan_gluing(host, host_pair, piece, (type_i,))
    with pytest.raises(SurgeryError, match="not type II"):
        plan_gluing(host, SpecialPair(("L.1", "L.a"), ("L.1", "L.2"), "L.1"),
                    piece, find_piece_pairs(piece))

    # a host pair whose edges both enter (or both leave) the shared vertex
    # fits no bipyramid piece pair, whose edges run through it
    for _, t, tau, _ in tree_corpus:
        cls = classify(t, tau)
        for pair in find_special_pairs(cls):
            heads = {cls.edge_directions[e][1] == pair.shared_vertex for e in (pair.e1, pair.e2)}
            if len(heads) == 1:
                with pytest.raises(SurgeryError, match="do not match in either role order"):
                    plan_gluing(cls, pair, piece, find_piece_pairs(piece))
                return
    raise AssertionError("the tree corpus has no such host pair")


# ----------------------------------------------------------------------
# compatibility and gluing


def test_check_compatibility_argument_kinds(glued_corpus):
    _, _, host_site, piece_site = glued_corpus[4]
    assert check_compatibility(host_site, piece_site)
    with pytest.raises(SurgeryError, match="^a host needs one zigzag, not 4$"):
        check_compatibility(piece_site, piece_site)
    with pytest.raises(SurgeryError, match="^a piece needs two or four zigzags, not 1$"):
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


def test_glue_rejects_swapped_roles():
    host = canonical(3, "L.")
    host_site = resolve_site(host, find_special_pairs(host)[0])
    piece_site = compatible_piece_site(host_site, canonical(4, "R."))
    with pytest.raises(SurgeryError, match="^a host needs one zigzag, not 4$"):
        glue(piece_site, host_site)
    host2 = canonical(5, "M.")
    host2_site = resolve_site(host2, find_special_pairs(host2)[0])
    with pytest.raises(SurgeryError, match="^a piece needs two or four zigzags, not 1$"):
        glue(host_site, host2_site)


def test_glue_rejects_incompatible_directions():
    host = canonical(3, "L.")
    piece = canonical(4, "R.")
    host_site = resolve_site(host, find_special_pairs(host)[0])
    bad = None
    for pp in find_piece_pairs(piece):
        for cand in (pp, pp.swapped()):
            site = resolve_site(piece, cand)
            if not check_compatibility(host_site, site):
                bad = site
                break
        if bad is not None:
            break
    assert bad is not None
    with pytest.raises(SurgeryError, match="do not match"):
        glue(host_site, bad)


def test_predict_glued_zigzag_checks_its_sites_as_glue_does():
    host = canonical(5, "L.")
    host_site = resolve_site(host, find_special_pairs(host)[0])
    piece = canonical(6, "R.")
    first = find_piece_pairs(piece)[0]
    mismatched = next(
        site for site in (resolve_site(piece, first), resolve_site(piece, first.swapped()))
        if not check_compatibility(host_site, site)
    )
    knotted = canonical(7, "M.")
    knotted_site = resolve_site(knotted, find_special_pairs(knotted)[0])
    for step in (glue, predict_glued_zigzag):
        with pytest.raises(
            SurgeryError, match="^pair directions at the shared vertices do not match$"
        ):
            step(host_site, mismatched)
        with pytest.raises(SurgeryError, match="^a piece needs two or four zigzags, not 1$"):
            step(host_site, knotted_site)


def test_glue_rejects_name_collisions():
    host = canonical(3)
    host_site = resolve_site(host, find_special_pairs(host)[0])
    piece_site = compatible_piece_site(host_site, canonical(4))  # same unprefixed names
    with pytest.raises(SurgeryError, match="disjoint"):
        glue(host_site, piece_site)


# ----------------------------------------------------------------------
# survival of other pairs


def test_concordant_host_pairs_survive_the_gluing():
    # the paper: a special pair of the host away from the used pair stays
    # special in the glued sphere when it is concordant with the used pair.
    # Such a pair keeps its names, so the glued census must list it
    def survivors(host, used):
        v = used.shared_vertex
        return [
            q for q in find_special_pairs(host)
            if not q.edges() & used.edges()
            and all(v not in e for e in q.edges())
            and are_concordant(host, used, q)
        ]

    hosts = [canonical(n, "L.") for n in range(3, 10, 2)]
    hosts += [classify(*tree_build(TreeSpec(nodes, edges))[:2]) for nodes, edges in (
        ((("r", 3), ("x", 4)), (("r", "x"),)),
        ((("r", 3), ("x", 6)), (("r", "x"),)),
        ((("r", 5), ("x", 4), ("y", 4)), (("r", "x"), ("r", "y"))),
    )]
    pieces = [canonical(n, "R.") for n in (4, 6)]
    checked = 0
    for host in hosts:
        for used in find_special_pairs(host):
            # a pair whose edges both enter (or both leave) its vertex fits
            # no bipyramid piece pair
            heads = {host.edge_directions[e][1] == used.shared_vertex for e in (used.e1, used.e2)}
            if len(heads) == 1:
                continue
            kept = survivors(host, used)
            for piece in pieces:
                glued = glue(*plan_gluing(host, used, piece, find_piece_pairs(piece)))
                found = {p.edges() for p in find_special_pairs(glued)}
                assert [q for q in kept if q.edges() not in found] == []
                checked += len(kept)
    assert checked == 512

    # and a survivor supports a second gluing
    host, piece, piece2 = canonical(5, "L."), canonical(4, "R."), canonical(6, "Q.")
    used = find_special_pairs(host)[0]
    glued = glue(*plan_gluing(host, used, piece, find_piece_pairs(piece)))
    survivor = survivors(host, used)[0]
    bigger = glue(*plan_gluing(glued, survivor, piece2, find_piece_pairs(piece2)))
    t = bigger.triangulation
    assert (len(t.vertices), len(t.edges), len(t.faces)) == (17, 45, 30)
    assert is_homogeneous(t, bigger.orientation)


# ----------------------------------------------------------------------
# pinned sites


# sha256 of every record site_digest writes; a change to it means some host's
# special pairs or some pair's resolved site (or rejection message) changed
PINNED_SITE_DIGEST = "2ae8a387f76e82ebd977261d99a9eb7891927bc37fa9f524a1f302b505bf8695"


def site_record(cls, pair) -> str:
    """resolve_site's facts for the pair, or the message of its SurgeryError."""
    try:
        site = resolve_site(cls, pair)
    except SurgeryError as exc:
        return repr(str(exc))
    return repr((
        site.pair, site.kind, sorted(site.vertex_sides.items()),
        sorted(face_labels(site).items()), sorted(site.segments.items()),
    ))


def site_digest(classifications) -> str:
    h = hashlib.sha256()
    for cls in classifications:
        if len(cls.orientation.zigzags) == 1:
            h.update(repr(find_special_pairs(cls)).encode())
        for c1, c2 in itertools.combinations(cls.type_ii_edges, 2):
            shared = set(c1) & set(c2)
            if len(shared) == 1:
                pair = SpecialPair(c1, c2, shared.pop())
                for cand in (pair, pair.swapped()):
                    h.update(site_record(cls, cand).encode())
    return h.hexdigest()


def test_every_site_matches_its_pinned_digest(knotted):
    pieces = [canonical(n) for n in range(4, 21, 2)]
    pieces += [classify(cls.triangulation, cls.orientation.reversed()) for cls in pieces]
    assert site_digest(knotted + pieces) == PINNED_SITE_DIGEST
