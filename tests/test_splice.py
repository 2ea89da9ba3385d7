"""Gluings run in place on a surgery._Surface, checked where they changed,
and each finished surface is audited once: both against a fresh
Triangulation, enumerate_zigzags and classify, and both rejecting bad input."""

from __future__ import annotations

import hashlib
import importlib
import pkgutil
from collections import Counter

import pytest

import zigzags
import zigzags.surgery as surgery
from zigzags import (
    InvariantError,
    SurgeryError,
    Triangulation,
    Zigzag,
    bipyramid,
    bipyramid_canonical_zorientation,
    classify,
    enumerate_zigzags,
    face_shadow,
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
from zigzags.engine import _orient_along, _sole_zigzag_shadow
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
    walk = surgery._sole_zigzag_shadow

    def spy_walk(t, z):
        shadow = walk(t, z)
        walked.append((t, z, shadow))
        return shadow

    monkeypatch.setattr(surgery, "_sole_zigzag_shadow", spy_walk)
    for spec, t, _, _ in tree_corpus:
        assert tree_build(spec)[0].faces == t.faces
    for _, _, host_site, piece_site in glued_corpus.values():
        glue(host_site, piece_site)
    # one audit per build and per glue, however many glues a build runs
    assert len(walked) == len(tree_corpus) + 2

    for t, z, shadow in walked:
        _same_indexes(t)
        assert enumerate_zigzags(t) == (z.canonical(),)
        assert shadow == face_shadow(t, z)


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


def test_glue_neither_enumerates_nor_constructs(glued_corpus, monkeypatch):
    calls = []
    init = Triangulation.__init__

    def counted_init(self, faces):
        calls.append("Triangulation")
        init(self, faces)

    def counted_enumerate(t):
        calls.append("enumerate_zigzags")
        return enumerate_zigzags(t)

    monkeypatch.setattr(Triangulation, "__init__", counted_init)
    for info in pkgutil.iter_modules(zigzags.__path__):
        module = importlib.import_module(f"zigzags.{info.name}")
        if hasattr(module, "enumerate_zigzags"):
            monkeypatch.setattr(module, "enumerate_zigzags", counted_enumerate)
    for _, _, host_site, piece_site in glued_corpus.values():
        glue(host_site, piece_site)
    assert calls == []


def _cut_facts(site) -> tuple:
    segments = tuple(sorted((key, tuple(passes)) for key, passes in site.segments.items()))
    return site.pair, site.vertex_sides, site.ends, segments


def test_a_surface_cuts_a_host_pair_as_resolve_site_does(bipyramid_corpus, tree_corpus):
    # why glue may splice the site it is given: a _Surface copied from the
    # host cuts each special pair, given in either role order, into the
    # site resolve_site resolves on the classification
    hosts = [(t, tau) for n, (t, tau) in bipyramid_corpus.items() if n % 2]
    hosts += [(t, tau) for _, t, tau, _ in tree_corpus]
    cut = 0
    for t, tau in hosts:
        for cls in (classify(t, tau), classify(t, tau.reversed())):
            for pair in find_special_pairs(cls):
                site = _cut_facts(resolve_site(cls, pair))
                for cand in (pair, pair.swapped()):
                    assert _cut_facts(surgery._Surface(cls).cut(cand)) == site
                    cut += 1
    assert cut > 1000


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


def test_walk_rejects_the_hosts_zigzag(glued_corpus):
    t, _, host_site, piece_site = glued_corpus[6]
    host_z = host_site.classification.orientation.chosen[0]
    with pytest.raises(InvariantError, match="zigzag has 18 passes, not 2E = 54"):
        _sole_zigzag_shadow(t, host_z)
    # a spliced surface left with the host's zigzag fails the glue's check
    # and the audit alike
    for check in (True, False):
        surface = surgery._Surface(host_site.classification)
        change = surface.splice(host_site, piece_site)
        surface.passes = list(host_z.passes)
        with pytest.raises(InvariantError, match="zigzag has 18 passes, not 2E = 54"):
            surface.check(change) if check else surface.finish()


def test_walk_rejects_a_zigzag_of_several():
    bp4 = bipyramid(4)
    with pytest.raises(InvariantError, match="zigzag has 6 passes, not 2E = 24"):
        _sole_zigzag_shadow(bp4, enumerate_zigzags(bp4)[0])
    # BP(6)'s two zigzags have E passes each: one walked twice has the length
    # of a single zigzag, but repeats its states from the second round on
    bp6 = bipyramid(6)
    (z, _) = enumerate_zigzags(bp6)
    twice = Zigzag(z.passes * 2)
    with pytest.raises(InvariantError, match="repeats a state or its reversal at position 18$"):
        _sole_zigzag_shadow(bp6, twice)


def test_walk_rejects_turns_off_the_successor_rule():
    # twelve passes, 2E on the tetrahedron, all turning in one face
    tetra = platonic("tetrahedron")
    a, b, c = tetra.faces[0]
    with pytest.raises(InvariantError, match="turns twice in face .* at position 0"):
        _sole_zigzag_shadow(tetra, _walk(a, b, c, a, b, c, a, b, c, a, b, c))
    # the octahedron's equator walked six times: 1, 2, 3 is no face
    octa = bipyramid(4)
    with pytest.raises(InvariantError, match="leaves the faces: passes 0 and 1"):
        _sole_zigzag_shadow(octa, _walk(*"1234" * 6))


def test_walk_accepts_a_z_knotted_zigzag_in_either_direction(glued_corpus):
    t, tau, _, _ = glued_corpus[4]
    z = tau.chosen[0]
    assert _sole_zigzag_shadow(t, z) == face_shadow(t, z)
    assert _sole_zigzag_shadow(t, z.reverse()) == face_shadow(t, z.reverse())


def _tampered_splice(monkeypatch, glued, piece_namer):
    """A _Surface for a gluing of the glued corpus, spliced with the piece
    renamed by piece_namer(piece_site, split, host_pair, named), unchecked."""
    _, _, host_site, piece_site = glued
    namers = surgery._namers

    def tampered(pair, sides, piece_site, split, named):
        host_rename = namers(pair, sides, piece_site, split, named)[0]
        return host_rename, piece_namer(piece_site, split, pair, named)

    monkeypatch.setattr(surgery, "_namers", tampered)
    surface = surgery._Surface(host_site.classification)
    return surface, surface.splice(host_site, piece_site)


def _keep_v1(piece_site, split, pair, named):
    """The piece's renaming, but for v1, which keeps the piece's name."""
    renames = {**named, piece_site.pair.v2: pair.v2}
    v = piece_site.pair.shared_vertex
    return surgery._namer(v, piece_site.vertex_sides, split, renames)


def test_local_check_rejects_a_tampered_splice(glued_corpus, monkeypatch):
    _, _, host_site, piece_site = glued_corpus[4]
    surface, change = _tampered_splice(monkeypatch, glued_corpus[4], _keep_v1)
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
        glue(host_site, piece_site)
    assert str(caught.value) == (
        f"glued the piece at {piece_site.pair.shared_vertex} "
        f"into the host at {host_site.pair.shared_vertex}: "
        f"glued face list is no closed surface: {violations}"
    )


def test_splice_rejects_a_repeated_face(glued_corpus, monkeypatch):
    _, _, host_site, _ = glued_corpus[4]
    v = host_site.pair.shared_vertex
    kept = next(f for f in host_site.classification.triangulation.faces if v not in f)

    def repeat_a_kept_face(piece_site, split, pair, named):
        renames = {**named, piece_site.pair.v1: pair.v1, piece_site.pair.v2: pair.v2}
        v = piece_site.pair.shared_vertex
        rename = surgery._namer(v, piece_site.vertex_sides, split, renames)
        return lambda cells, make: (
            [kept, *rename(cells, make)[1:]] if make is surgery.face_key else rename(cells, make)
        )

    with pytest.raises(InvariantError) as caught:
        _tampered_splice(monkeypatch, glued_corpus[4], repeat_a_kept_face)
    assert str(caught.value) == f"glued face {kept} is repeated"


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
        spliced.append((surface.faces, surface.passes, change))
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
    # a copied type-I edge given a direction, so made type II
    edge = next(e for e in change.copied if e not in change.directions)
    return change._replace(directions={**change.directions, edge: edge})


def _broken_phase(surface, change):
    # a host edge off every new face, three passes after the first junction
    edge = surface.passes[change.junctions[0] + 3].edge
    assert all(edge not in _face_edges(f) for f in change.gained)
    # an edge is type II exactly when the surface holds its direction
    directions = surface.edge_directions
    if directions.pop(edge, None) is None:
        directions[edge] = edge
    return change


@pytest.mark.parametrize("corrupt, message", [
    (lambda s, c: c._replace(sizes=(0, 0, 0)), "glued V, E, F are not the sums"),
    (lambda s, c: c._replace(copied={}), r"edge \(.*\) is not both new and renamed"),
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
