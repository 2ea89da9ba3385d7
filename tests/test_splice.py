"""Gluings run in place on a surgery._Surface, checked where they changed,
and each finished surface is audited once: both against a fresh
Triangulation, enumerate_zigzags and classify, and both rejecting bad input."""

from __future__ import annotations

import hashlib
import importlib
import pkgutil
import re
from collections import Counter

import pytest

import link_oracle as oracle
import zigzags
import zigzags.generators as generators
import zigzags.surgery as surgery
from helpers import renamed_piece, with_plan
from zigzags import (
    InvariantError,
    SurgeryError,
    Triangulation,
    Zigzag,
    bipyramid,
    bipyramid_canonical_zorientation,
    classify,
    enumerate_zigzags,
    find_piece_pairs,
    find_special_pairs,
    glue,
    make_pass,
    plan_gluing,
    platonic,
    predict_glued_zigzag,
    resolve_site,
    tree_build,
)
from zigzags.engine import _audit_sole_zigzag, _orient_along
from zigzags.triangulation import _face_edges


def _walk(*vertices: str) -> Zigzag:
    """The closed walk through the vertices, back to the first."""
    return Zigzag(tuple(make_pass(u, w) for u, w in zip(vertices, vertices[1:] + vertices[:1])))


def _same_indexes(t: Triangulation) -> None:
    """t's indexes are the ones the constructor builds from its faces."""
    fresh = Triangulation(t.faces)
    assert (t.faces, t.edges, t.vertices) == (fresh.faces, fresh.edges, fresh.vertices)
    assert t._face_set == fresh._face_set
    assert t._edge_faces == fresh._edge_faces
    assert t._vertex_faces == fresh._vertex_faces
    assert t.validate() == fresh.validate()
    assert t.validate().ok


def test_every_glue_matches_a_fresh_build_and_enumeration(tree_corpus, glued_corpus, monkeypatch):
    walked = []
    audit = surgery._audit_sole_zigzag

    def spy_audit(t, z):
        zs = audit(t, z)
        walked.append((t, z, zs))
        return zs

    monkeypatch.setattr(surgery, "_audit_sole_zigzag", spy_audit)
    for spec, t, _, _ in tree_corpus:
        assert tree_build(spec)[0].faces == t.faces
    for _, _, host_site, piece_site in glued_corpus.values():
        glue(host_site, piece_site)
    # one audit per build and per glue, however many glues a build runs
    assert len(walked) == len(tree_corpus) + 2

    # the audit keeps the walk as t's zigzags, so a fresh surface on t's
    # faces is what enumeration walks
    for t, z, zs in walked:
        _same_indexes(t)
        assert zs is enumerate_zigzags(t) == (z.canonical(),)
        assert enumerate_zigzags(Triangulation(t.faces)) == zs


def test_the_surface_keeps_what_a_fresh_analysis_finds(tree_corpus, monkeypatch):
    # the indexes, type-II directions, type-I vertices and type-II edge
    # ends the glues kept up to date are the ones a fresh Triangulation,
    # enumeration and classify find on the finished surface
    kept = []
    finish = surgery._Surface.finish

    def spy_finish(surface):
        kept.append((dict(surface.edge_directions), set(surface.type_i), +surface.ii_ends))
        return finish(surface)

    monkeypatch.setattr(surgery._Surface, "finish", spy_finish)
    for spec, t, tau, _ in tree_corpus:
        kept.clear()
        built = tree_build(spec)[0]
        ((directions, type_i, ii_ends),) = kept
        _same_indexes(built)
        fresh = Triangulation(t.faces)
        assert enumerate_zigzags(fresh) == (tau.chosen[0].canonical(),)
        cls = classify(fresh, tau)
        assert directions == cls.edge_directions
        assert type_i == set(cls.type_i_vertices)
        assert ii_ends == Counter(x for e in cls.edge_directions for x in e)


def _counted_walks(monkeypatch) -> list:
    """Wrap enumerate_zigzags in every module of the package so that each
    call that walks, on a t with no zigzags kept, records t; classify reads
    kept zigzags through it too, and those calls are not recorded.  Returns
    the record."""
    walked = []

    def counted_enumerate(t):
        if t._zigzags is None:
            walked.append(t)
        return enumerate_zigzags(t)

    for info in pkgutil.iter_modules(zigzags.__path__):
        module = importlib.import_module(f"zigzags.{info.name}")
        if hasattr(module, "enumerate_zigzags"):
            monkeypatch.setattr(module, "enumerate_zigzags", counted_enumerate)
    return walked


def test_glue_neither_enumerates_nor_constructs(glued_corpus, monkeypatch):
    calls = []
    init = Triangulation.__init__

    def counted_init(self, faces):
        calls.append("Triangulation")
        init(self, faces)

    monkeypatch.setattr(Triangulation, "__init__", counted_init)
    walked = _counted_walks(monkeypatch)
    for _, _, host_site, piece_site in glued_corpus.values():
        glue(host_site, piece_site)
    assert calls == walked == []


def test_builds_and_glues_orient_the_surfaces_own_zigzags(tree_corpus, glued_corpus, monkeypatch):
    # the audit keeps the walk it proves the only zigzag as t's zigzags, and
    # the orientation returned is of them: no surface built is walked by
    # enumeration, before or after
    walked = _counted_walks(monkeypatch)
    built = [tree_build(spec)[:2] for spec, _, _, _ in tree_corpus]
    built += [(cls.triangulation, cls.orientation) for cls in (
        glue(host_site, piece_site) for _, _, host_site, piece_site in glued_corpus.values()
    )]
    for t, tau in built:
        assert tau.zigzags is zigzags.engine.enumerate_zigzags(t)
    assert not any(x is t for t, _ in built for x in walked)


def _cut_facts(site) -> tuple:
    segments = tuple(sorted((key, tuple(passes)) for key, passes in site.segments.items()))
    return site.pair, site.vertex_sides, site.ends, segments


def test_a_surface_cuts_a_host_pair_as_resolve_site_does(
    bipyramid_corpus, tree_corpus, flipped_hosts
):
    # why glue may splice the site it is given: a _Surface copied from the
    # host cuts each special pair, given in either role order, into the
    # site resolve_site resolves on the classification, on bipyramids, tree
    # builds and flipped hosts that are neither; and it only reads the
    # surface, which stays the one a fresh copy builds
    hosts = [(t, tau) for n, (t, tau) in bipyramid_corpus.items() if n % 2]
    hosts += [(t, tau) for _, t, tau, _ in tree_corpus]
    knotted = [classify(t, x) for t, tau in hosts for x in (tau, tau.reversed())]
    cuts = []
    for corpus in (knotted, flipped_hosts):
        cuts.append(0)
        for cls in corpus:
            surface = surgery._Surface(cls)
            for pair in find_special_pairs(cls):
                site = _cut_facts(resolve_site(cls, pair))
                for cand in (pair, pair.swapped()):
                    assert _cut_facts(surface.cut(cand)) == site
                    cuts[-1] += 1
            assert vars(surface) == vars(surgery._Surface(cls))
    assert cuts == [3540, 1332]


# sha256 of glue's faces and chosen zigzag and predict_glued_zigzag's walk
# on both gluings of the glued corpus
PINNED_GLUED_DIGEST = "e27260b7bad062b51f6015e0f26ae06d20328268e30f8c25cd652ab202affd0b"


def test_glue_splices_the_given_host_site(glued_corpus, monkeypatch):
    # glue and predict_glued_zigzag resolve nothing again: with the
    # surface's resolver broken they give the same results
    def no_cut(surface, pair):
        raise AssertionError("the host pair is resolved again")

    monkeypatch.setattr(surgery._Surface, "cut", no_cut)
    h = hashlib.sha256()
    for n in (4, 6):
        _, _, host_site, piece_site = glued_corpus[n]
        cls = glue(host_site, piece_site)
        predicted = predict_glued_zigzag(host_site, piece_site)
        h.update(repr((cls.triangulation.faces, cls.orientation.chosen, predicted)).encode())
    assert h.hexdigest() == PINNED_GLUED_DIGEST


# the audit fails each bad walk with the message of the first fact it
# breaks: its length, a turn off the faces, a turn twice in one face, a
# repeated state


def test_walk_rejects_the_hosts_zigzag(glued_corpus):
    t, _, host_site, piece_site = glued_corpus[6]
    host_z = host_site.classification.orientation.chosen[0]
    with pytest.raises(InvariantError, match="zigzag has 18 passes, not 2E = 54"):
        _audit_sole_zigzag(t, host_z)
    # a spliced surface left with the host's zigzag fails the glue's check
    # and the audit alike
    for check in (True, False):
        surface = surgery._Surface(host_site.classification)
        change = surface.splice(host_site, piece_site)
        surface._passes = list(host_z.passes)
        with pytest.raises(InvariantError, match="zigzag has 18 passes, not 2E = 54"):
            surface.check(change) if check else surface.finish()


def test_walk_rejects_a_zigzag_of_several():
    bp4 = bipyramid(4)
    bp6 = bipyramid(6)
    # BP(6)'s two zigzags have E passes each: one walked twice has the length
    # of a single zigzag, but repeats its states from the second round on
    (z, _) = enumerate_zigzags(bp6)
    twice = Zigzag(z.passes * 2)
    with pytest.raises(InvariantError, match="zigzag has 6 passes, not 2E = 24"):
        _audit_sole_zigzag(bp4, enumerate_zigzags(bp4)[0])
    with pytest.raises(InvariantError, match="repeats a state or its reversal at position 18$"):
        _audit_sole_zigzag(bp6, twice)


def test_walk_rejects_turns_off_the_successor_rule():
    # twelve passes, 2E on the tetrahedron, all turning in one face
    tetra = platonic("tetrahedron")
    a, b, c = tetra.faces[0]
    # the octahedron's equator walked six times: 1, 2, 3 is no face
    octa = bipyramid(4)
    # BP(5)'s zigzag with a and 1 swapped: 2E passes, no state repeated,
    # but its first turn, 1 2 3, is no face
    bp5 = bipyramid(5)
    swap = {"a": "1", "1": "a"}
    swapped = _walk(*(swap.get(p.src, p.src) for p in enumerate_zigzags(bp5)[0].passes))
    with pytest.raises(InvariantError, match="turns twice in face .* at position 0"):
        _audit_sole_zigzag(tetra, _walk(a, b, c, a, b, c, a, b, c, a, b, c))
    with pytest.raises(InvariantError, match="leaves the faces: passes 0 and 1"):
        _audit_sole_zigzag(octa, _walk(*"1234" * 6))
    with pytest.raises(InvariantError, match=r"leaves the faces: passes 0 and 1: .*'2', '3'"):
        _audit_sole_zigzag(bp5, swapped)


def test_walk_accepts_a_z_knotted_zigzag_in_either_direction(glued_corpus):
    t, tau, _, _ = glued_corpus[4]
    z = tau.chosen[0]
    zs = enumerate_zigzags(t)
    assert _audit_sole_zigzag(t, z) is _audit_sole_zigzag(t, z.reverse()) is zs
    # a surface with no zigzags yet keeps the walk's canonical form as them
    fresh = Triangulation(t.faces)
    kept = _audit_sole_zigzag(fresh, z.reverse())
    assert kept == zs and enumerate_zigzags(fresh) is kept


def _keep_v1(plan):
    """The plan with the piece's v1 in a slot of its own, so that it keeps
    its piece name under the prefix rather than take the host's."""
    slot = len(plan.vertices) + 1

    def moved(cell):
        return tuple(slot if s == 2 else s for s in cell)

    return plan._replace(
        vertices=(*plan.vertices, plan.vertices[1]),
        faces=list(map(moved, plan.faces)),
        edges=[(*moved((a, b)), kind) for a, b, kind in plan.edges],
        segments={k: list(map(moved, ps)) for k, ps in plan.segments.items()},
    )


def test_local_check_rejects_a_tampered_splice(glued_corpus):
    _, _, host_site, piece_site = glued_corpus[4]
    tampered = with_plan(piece_site, _keep_v1)
    surface = surgery._Surface(host_site.classification)
    change = surface.splice(host_site, tampered)
    with pytest.raises(InvariantError) as caught:
        surface.check(change)
    head, violations = str(caught.value).split(": ", 1)
    assert head == "glued face list is no closed surface"
    assert any(piece_site.pair.v1 in line for line in violations.splitlines())
    # the local report is the full one but for the connectivity search
    full = Triangulation(surface.faces).validate().violations
    assert tuple(violations.splitlines()) == tuple(
        v for v in full if not v.startswith("graph disconnected")
    )
    # glue names the gluing that failed
    with pytest.raises(InvariantError) as caught:
        glue(host_site, tampered)
    assert str(caught.value) == (
        f"glued the piece at {piece_site.pair.shared_vertex} "
        f"into the host at {host_site.pair.shared_vertex}: "
        f"glued face list is no closed surface: {violations}"
    )


def test_splice_rejects_a_repeated_face(glued_corpus, monkeypatch):
    # the host's renaming at v puts a face it kept among the faces it gains
    _, _, host_site, piece_site = glued_corpus[4]
    v = host_site.pair.shared_vertex
    kept = next(f for f in host_site.classification.triangulation.faces if v not in f)
    namer = surgery._namer

    def repeat_a_kept_face(v, sides, split):
        rename = namer(v, sides, split)
        return lambda cells, make: (
            [kept, *rename(cells, make)[1:]] if make is surgery.face_key else rename(cells, make)
        )

    monkeypatch.setattr(surgery, "_namer", repeat_a_kept_face)
    surface = surgery._Surface(host_site.classification)
    with pytest.raises(InvariantError) as caught:
        surface.splice(host_site, piece_site)
    assert str(caught.value) == f"glued face {kept} is repeated"


def _flip_a_face_side(plan):
    # the first face at v, put on the other side of it
    i = next(i for i, f in enumerate(plan.faces) if 0 in f or 1 in f)
    faces = list(plan.faces)
    faces[i] = tuple(1 - s if s < 2 else s for s in faces[i])
    return plan._replace(faces=faces)


def _swap_v1_v2(plan):
    def swapped(cell):
        return tuple({2: 3, 3: 2}.get(s, s) for s in cell)

    return plan._replace(
        faces=list(map(swapped, plan.faces)),
        edges=[(*swapped((a, b)), kind) for a, b, kind in plan.edges],
        segments={k: list(map(swapped, ps)) for k, ps in plan.segments.items()},
    )


def _off_seam(cell) -> bool:
    """Whether a planned edge or pass lies off v, v1 and v2, the vertices of
    slots 0 to 3."""
    return min(cell) >= 4


def _reverse_an_off_seam_pass(plan):
    # the first pass off the seam, in the first segment holding one, reversed
    key, i = next(
        (k, i) for k, ps in plan.segments.items() for i, p in enumerate(ps) if _off_seam(p)
    )
    passes = list(plan.segments[key])
    passes[i] = passes[i][::-1]
    return plan._replace(segments={**plan.segments, key: passes})


def _retype_an_off_seam_edge(plan):
    # the first type-I edge off the seam given type II
    i = next(i for i, (a, b, kind) in enumerate(plan.edges) if _off_seam((a, b)) and kind == "I")
    a, b, _ = plan.edges[i]
    edges = list(plan.edges)
    edges[i] = (a, b, "II")
    return plan._replace(edges=edges)


@pytest.mark.parametrize("corrupt, message", [
    (_flip_a_face_side, "glued face list is no closed surface: "),
    (_swap_v1_v2, r"passes \d+ and 0 do not chain$"),
    (_reverse_an_off_seam_pass, r"passes \d+ and \d+ do not chain$"),
    (_retype_an_off_seam_edge, r"new edge \('R.\w', 'R.\w'\) is not type II$"),
])
@pytest.mark.parametrize("n", (4, 6))
def test_a_corrupted_plan_fails_the_glue_it_splices(glued_corpus, n, corrupt, message):
    # each fact the plan compiles is checked where the glue changed the
    # surface, off the seam as on it: a corrupted plan fails the checks,
    # naming the glue
    _, _, host_site, piece_site = glued_corpus[n]
    what = (
        f"glued the piece at {piece_site.pair.shared_vertex} "
        f"into the host at {host_site.pair.shared_vertex}: "
    )
    with pytest.raises(InvariantError, match="^" + re.escape(what) + message):
        glue(host_site, with_plan(piece_site, corrupt))
    # the corruption lay in the copy alone
    assert glue(host_site, piece_site).triangulation.faces


@pytest.mark.parametrize("corrupt", (_keep_v1, _flip_a_face_side))
@pytest.mark.parametrize("n", (4, 6))
def test_a_damaged_splice_keeps_the_violations_of_the_whole_link_rules(
    glued_corpus, n, corrupt, monkeypatch
):
    # the link checks walk only what a glue changed: a splice that breaks
    # the surface gets the violation list that walking each touched link
    # whole from its faces (link_oracle) gives it
    _, _, host_site, piece_site = glued_corpus[n]

    def report() -> str:
        surface = surgery._Surface(host_site.classification)
        change = surface.splice(host_site, with_plan(piece_site, corrupt))
        with pytest.raises(InvariantError) as caught:
            surface.check(change)
        return str(caught.value)

    got = report()
    monkeypatch.setattr(surgery, "_relinked", oracle.relinked)
    monkeypatch.setattr(
        surgery, "_link_walk", lambda v, faces, _index: oracle.link_cycle(v, faces) if faces else None
    )
    assert got.startswith("glued face list is no closed surface: ")
    assert report() == got


def _piece_sites(n: int):
    """Every piece site of BP(n): each candidate pair resolved in both role
    orders, so with both head directions."""
    piece = classify(bipyramid(n), bipyramid_canonical_zorientation(n))
    return [resolve_site(piece, p) for pair in find_piece_pairs(piece) for p in (pair, pair.swapped())]


@pytest.fixture(scope="module")
def splice_hosts(glued_corpus):
    """Host classifications in both directions of their zigzag: odd
    bipyramids, and the glued corpus's results, whose names hold R. too;
    each with one host site per head directions it has."""
    surfaces = [(bipyramid(n, "L."), bipyramid_canonical_zorientation(n, "L.")) for n in (3, 5)]
    surfaces += [(t, tau) for t, tau, _, _ in glued_corpus.values()]
    hosts = []
    for t, tau in surfaces:
        for orientation in (tau, tau.reversed()):
            host = classify(t, orientation)
            by_heads = {}
            for pair in find_special_pairs(host):
                site = resolve_site(host, pair)
                by_heads.setdefault(surgery._heads(host.edge_directions, site.pair), site)
            hosts.append((host, by_heads))
    return hosts


def _piece_part(host_site, piece_site, prefix):
    """What the splice of the piece site into a fresh surface of the host
    made of the piece, laid out as renamed_piece lays it out, read off the
    _Change and the glued pass list; or the text of the SurgeryError it
    raises."""
    surface = surgery._Surface(host_site.classification)
    lost = len(surface.vertex_faces[host_site.pair.shared_vertex])
    try:
        change = surface.splice(host_site, piece_site, prefix)
    except SurgeryError as exc:
        return str(exc)
    segments, dirty = {}, []
    walk = surgery._glued_walk(host_site.ends, piece_site.ends)
    for (site, key), junction in zip(walk, change.junctions):
        if site == 1:
            # the piece segment of key follows its split-edge pass
            start = junction + 1
            length = len(piece_site.segments[key])
            segments[key] = surface._passes[start:start + length]
            dirty += range(start, start + length)
    # every piece pass's position follows the junctions', in walk order
    junctions = len(change.junctions)
    assert change.dirty[junctions:junctions + len(dirty)] == dirty
    return {
        "faces": change.gained[lost:],
        # after the host's lost - 2 edges at v but e1, e2, and the 4 halves
        # of the split edges
        "types": list(change.types.items())[lost + 2:],
        "segments": segments,
        "type_i": change.type_i,
    }


@pytest.mark.parametrize("n", range(4, 17, 2))
def test_a_planned_splice_is_the_splice_renamed_cell_by_cell(splice_hosts, n):
    # each piece site's plan, read under a prefix sorting before the host's
    # names, after them, between them, or none, names the piece as the
    # renaming rule run on each of its cells would: the same faces, edge
    # types, segment passes and type-I vertices, each in its order, and
    # every piece pass among the positions the glue checks
    spliced = failed = 0
    for piece_site in _piece_sites(n):
        heads = surgery._heads(piece_site.classification.edge_directions, piece_site.pair)
        for host, by_heads in splice_hosts:
            if heads not in by_heads:
                continue
            host_site = by_heads[heads]
            pair = host_site.pair
            split = {side: pair.shared_vertex + side for side in "+-"}
            for prefix in ("", "R.", "0.", "~."):
                got = _piece_part(host_site, piece_site, prefix)
                spliced += 1
                if isinstance(got, str):
                    failed += 1
                    assert got == "host and piece vertex namespaces must be disjoint"
                    continue
                assert got == renamed_piece(piece_site, prefix, pair.v1, pair.v2, split)
    # every site of BP(n) splices into each host under each prefix, in the
    # host's orientation whose heads it matches; only R. into the glued
    # hosts, which hold R. names, fails
    assert spliced == 2 * n * 4 * 4
    assert failed == 2 * n * 2


def _template_site(host_site, n: int, rename=None):
    """The piece site of an unprefixed BP(n), its vertices renamed by
    rename, planned for the host site as plan_gluing plans it."""
    rename = rename or {}
    t = Triangulation([tuple(rename.get(u, u) for u in f) for f in bipyramid(n).faces])
    base_cycle = [(str(i), str(i % n + 1)) for i in range(1, n + 1)]
    piece = classify(t, _orient_along(enumerate_zigzags(t), base_cycle))
    host = host_site.classification
    return plan_gluing(host, host_site.pair, piece, find_piece_pairs(piece))[1]


@pytest.mark.parametrize("n", (4, 6))
def test_a_prefix_in_the_renaming_splices_as_a_prefixed_piece(glued_corpus, n):
    # the unprefixed template under the prefix R. glues exactly as the
    # piece built with the prefix, and its splice changes the same cells
    _, _, host_site, piece_site = glued_corpus[n]
    template = _template_site(host_site, n)
    assert template.pair != piece_site.pair
    spliced = []
    for site, prefix in ((piece_site, ""), (template, "R.")):
        surface = surgery._Surface(host_site.classification)
        change = surface.splice(host_site, site, prefix)
        spliced.append((surface.faces, surface._passes, change))
        surface.check(change)
    assert spliced[0] == spliced[1]


def test_the_namespace_check_tests_the_prefixed_names(glued_corpus):
    _, _, host_site, _ = glued_corpus[4]
    template = _template_site(host_site, 4)
    # L.1 .. L.4, L.a, L.b are the host's vertex names under this prefix
    with pytest.raises(SurgeryError, match="^host and piece vertex namespaces must be disjoint$"):
        surgery._Surface(host_site.classification).splice(host_site, template, "L.")
    # an unprefixed host shares the template's own names, not the R. ones
    host = classify(bipyramid(3), bipyramid_canonical_zorientation(3))
    piece = template.classification
    host_site, template = plan_gluing(
        host, find_special_pairs(host)[0], piece, find_piece_pairs(piece)
    )
    with pytest.raises(SurgeryError, match="^host and piece vertex namespaces must be disjoint$"):
        surgery._Surface(host).splice(host_site, template)
    surface = surgery._Surface(host)
    surface.glue(host_site, template, "glued R. into the unprefixed host", "R.")
    assert set(surface.finish().type_i_vertices) == {"a", "b", "R.a", "R.b"}


def test_split_names_may_not_collide_with_a_prefixed_piece_vertex(glued_corpus):
    # the host splits L.1 into L.1+ and L.1-; the template's apex +, under
    # the prefix L.1, would be named L.1+ as well
    _, _, host_site, _ = glued_corpus[4]
    assert host_site.pair.shared_vertex == "L.1"
    template = _template_site(host_site, 4, {"b": "+"})
    surface = surgery._Surface(host_site.classification)
    with pytest.raises(SurgeryError, match="^split vertex names 'L.1\\+'/'L.1-' collide"):
        surface.splice(host_site, template, "L.1")
    # the same template under another prefix glues
    surface.glue(host_site, template, "glued under L.9", "L.9")
    assert "L.9+" in surface.finish().type_i_vertices


def test_tree_build_records_the_prefixed_piece_pair(tree_corpus):
    # each node's piece is analysed unprefixed, but its record names its
    # pair as the node's own vertices
    records = [r for _, _, _, log in tree_corpus for r in log.records]
    assert len(records) > 50
    for r in records:
        pair = r.piece_pair
        assert all(x.startswith(f"node{r.child}.") for e in (pair.e1, pair.e2) for x in e)
        assert pair.shared_vertex[len(f"node{r.child}."):].isdigit()


def _wrong_split_type(surface, change):
    split_copy = next(e for e, kind in change.types.items() if kind == "II")
    return change._replace(types={**change.types, split_copy: "I"})


def _wrong_piece_type(surface, change):
    # a piece's type-I edge given a direction, so made type II
    edge = next(e for e, kind in change.types.items() if kind == "I" and e[0].startswith("R."))
    surface.edge_directions[edge] = edge
    return change


def _drop_a_piece_position(surface, change):
    # the first piece pass of the glued walk, left out of the positions
    # checked
    piece_at = change.dirty[len(change.junctions)]
    return change._replace(dirty=[d for d in change.dirty if d != piece_at])


def _broken_phase(surface, change):
    # a host edge off every new face, three passes after the first junction
    edge = surface._passes[change.junctions[0] + 3].edge
    assert all(edge not in _face_edges(f) for f in change.gained)
    # an edge is type II exactly when the surface holds its direction
    directions = surface.edge_directions
    if directions.pop(edge, None) is None:
        directions[edge] = edge
    return change


@pytest.mark.parametrize("corrupt, message", [
    (lambda s, c: c._replace(sizes=(0, 0, 0)), "glued V, E, F are not the sums"),
    (lambda s, c: c._replace(types=dict(list(c.types.items())[:-1])),
     r"edge \(.*\) is not both new and renamed"),
    (_wrong_split_type, r"new edge \('L.1\+', 'L.3'\) is not type I$"),
    (_wrong_piece_type, r"glued face \(.*\) is not type I$"),
    (_broken_phase, "zigzag breaks its II,I,I phase at position 0$"),
    (lambda s, c: c._replace(type_i=set()), "vertex R.a changed its type$"),
])
def test_each_check_names_the_fact_that_broke(glued_corpus, corrupt, message):
    # a splice whose change or surface is corrupted after the fact fails
    # the check of that fact, whatever the checks before it pass
    _, _, host_site, piece_site = glued_corpus[6]
    surface = surgery._Surface(host_site.classification)
    change = surface.splice(host_site, piece_site)
    with pytest.raises(InvariantError, match=message):
        surface.check(corrupt(surface, change))


@pytest.mark.parametrize("n", (4, 6))
def test_a_dropped_piece_position_fails_the_check(glued_corpus, n):
    # the glue checks every piece pass's position, on the seam or off it: a
    # change that leaves one out has its edge passed once where it changed
    _, _, host_site, piece_site = glued_corpus[n]
    surface = surgery._Surface(host_site.classification)
    change = surface.splice(host_site, piece_site)
    with pytest.raises(InvariantError, match=r"new edge \(.*\) is passed 1 time\(s\), not twice$"):
        surface.check(_drop_a_piece_position(surface, change))


def _first_turn_fault(ps, slots, dirty) -> str | None:
    """The reference turn rule, one position at a time in dirty order: the
    turn before each tested position and its own chain and lie in a face,
    then differ.  The first fault's message, or None."""
    n = len(ps)
    for i in dict.fromkeys(i % n for d in dirty for i in (d - 1, d, d + 1)):
        turns = []
        for j in ((i - 1) % n, i):
            if ps[j].dst != ps[(j + 1) % n].src:
                return f"passes {j} and {(j + 1) % n} do not chain"
            turns.append(surgery._turn(ps, j))
            if turns[-1] not in slots:
                return f"passes {j} and {(j + 1) % n} turn in no face"
        if turns[0] == turns[1]:
            return f"zigzag turns twice in face {turns[1]} at position {i}"
    return None


def _bent_walks(ps, d):
    """Walks that differ from ps at dirty position d: two passes swapped, a
    pass reversed, a next pass that turns back into the last face or back
    along its edge, and a detour that still chains, through a vertex three
    passes on."""
    n = len(ps)
    at, after, then = d % n, (d + 1) % n, (d + 2) % n
    swapped = list(ps)
    swapped[at], swapped[after] = ps[after], ps[at]
    yield swapped
    yield [make_pass(p.dst, p.src) if k == at else p for k, p in enumerate(ps)]
    for w in (ps[(d - 1) % n].src, ps[at].src):
        yield [make_pass(ps[at].dst, w) if k == after else p for k, p in enumerate(ps)]
    x = ps[(d + 3) % n].dst
    if x not in (ps[at].dst, ps[then].dst):
        detour = list(ps)
        detour[after], detour[then] = make_pass(ps[at].dst, x), make_pass(x, ps[then].dst)
        yield detour


@pytest.mark.parametrize("n", (4, 6))
def test_a_bent_walk_fails_the_turn_check_at_its_first_fault(glued_corpus, n):
    # check tests the turns of the tested positions at once and names a
    # fault by walking them in dirty order: a walk bent at any dirty
    # position fails with the reference rule's first fault
    _, _, host_site, piece_site = glued_corpus[n]
    spliced = surgery._Surface(host_site.classification)
    change = spliced.splice(host_site, piece_site)
    faults = Counter()
    for d in change.dirty:
        for walk in _bent_walks(spliced._passes, d):
            surface = surgery._Surface(host_site.classification)
            surface.splice(host_site, piece_site)
            surface._passes = walk
            want = _first_turn_fault(walk, surface.slots, change.dirty)
            with pytest.raises(InvariantError) as caught:
                surface.check(change)
            assert str(caught.value) == want
            faults[re.search("chain|no face|twice", want).group()] += 1
    assert faults.keys() == {"chain", "no face", "twice"}


@pytest.mark.parametrize("n", (4, 6))
def test_each_turn_rule_alone_fails_the_check(glued_corpus, n, monkeypatch):
    # a fault that breaks one rule alone, at a dirty position, with every
    # other turn as spliced: a pass that starts off the last one's end, a
    # turn off the faces and a turn into the face before it each fail the
    # check with the reference rule's message
    _, _, host_site, piece_site = glued_corpus[n]
    spliced = surgery._Surface(host_site.classification)
    change = spliced.splice(host_site, piece_site)
    ps, real = spliced._passes, surgery._turn
    for d in change.dirty:
        at = d % len(ps)
        unchained = [p._replace(src="~") if k == at else p for k, p in enumerate(ps)]
        for walk, turn in (
            (unchained, real),
            (ps, lambda ps, i: ("~", "~", "~") if i == at else real(ps, i)),
            (ps, lambda ps, i: real(ps, i - 1 if i == at else i)),
        ):
            monkeypatch.setattr(surgery, "_turn", turn)
            surface = surgery._Surface(host_site.classification)
            surface.splice(host_site, piece_site)
            surface._passes = walk
            want = _first_turn_fault(walk, surface.slots, change.dirty)
            with pytest.raises(InvariantError) as caught:
                surface.check(change)
            assert str(caught.value) == want


@pytest.mark.parametrize("prefix", ("", "node0.", "x."))
@pytest.mark.parametrize("n", range(3, 22, 2))
def test_a_prefixed_root_template_is_the_prefixed_bipyramids_surface(n, prefix):
    # a tree build's root is built from the shared unprefixed template under
    # its prefix: field by field, and in each dict's order, it is the surface
    # of BP(n) built and analysed under the prefix, so face keys, edge keys,
    # the zigzag's rotation and the bits come out the same
    got = vars(surgery._Surface(generators._template(n)[0], prefix))
    want = vars(surgery._Surface(generators._bipyramid_analysis(n, prefix)))
    assert got.keys() == want.keys() == {
        "faces", "slots", "edge_faces", "vertex_faces", "_passes", "edge_directions",
        "type_i", "ii_ends",
    }
    for field, value in want.items():
        assert got[field] == value, field
        if isinstance(value, dict):
            assert list(got[field]) == list(value), field
