"""One analysis per (t, tau): classify builds it, and every caller shares it."""

from __future__ import annotations

import gc
import weakref

import pytest

import zigzags.cli as cli
import zigzags.engine as engine
import zigzags.generators as generators
import zigzags.surgery as surgery
from helpers import clear_templates
from zigzags import (
    Triangulation,
    TreeSpec,
    Zigzag,
    ZOrientation,
    all_z_orientations,
    bipyramid,
    classify,
    enumerate_zigzags,
    extract_directed_embedding,
    glue,
    is_homogeneous,
    make_z_orientation,
    parse_embedding,
    parse_triangulation,
    platonic,
    round_trip_check,
    serialize_embedding,
    serialize_triangulation,
    tree_build,
    triangulate_embedding,
)
from zigzags.cli import analyze_report, main


def counted(monkeypatch, module, name):
    """Wrap module.name so that each call is recorded; returns the record."""
    calls = []
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_classification_carries_its_inputs_and_derived_facts(glued_corpus):
    t, tau, _, _ = glued_corpus[6]
    cls = classify(t, tau)
    assert cls.triangulation is t and cls.orientation is tau
    assert cls.homogeneous is is_homogeneous(t, tau) is True
    # derived on first use, then kept
    assert cls.pass_positions is cls.pass_positions
    for e in t.edges:
        positions = [i for zi, i in cls.pass_positions[e] if zi == 0]
        assert tuple(positions) == tau.chosen[0].occurrences(e)


def test_orientations_from_enumeration_build_no_reversals(monkeypatch):
    # enumerated zigzags are canonical, so only the public constructor,
    # which may be handed anything, checks them by building reversals
    t, bp = platonic("icosahedron"), bipyramid(8)
    zs = enumerate_zigzags(t)
    # enumeration itself reverses each orbit to pick its canonical form
    enumerated = {t: zs, bp: enumerate_zigzags(bp)}
    monkeypatch.setattr(engine, "enumerate_zigzags", enumerated.__getitem__)
    reversals = counted(monkeypatch, Zigzag, "reverse")
    taus = list(all_z_orientations(t))
    taus += [tau.reversed() for tau in taus[:8]]
    taus.append(make_z_orientation(t, (1,) * len(zs)))
    # classify reads the types off the bits, so the search reverses
    # nothing, also where the II,I,I period decides
    assert not any(is_homogeneous(t, tau) for tau in taus)
    verdicts = [is_homogeneous(bp, tau) for tau in all_z_orientations(bp)]
    assert len(verdicts) == 16 and True in verdicts
    assert reversals == []
    assert all(tau == ZOrientation(zs, tau.bits) for tau in taus)
    with pytest.raises(ValueError):
        make_z_orientation(t, (0,) * (len(zs) - 1))


def test_glue_returns_the_glued_classification(glued_corpus):
    for t, tau, host_site, piece_site in glued_corpus.values():
        assert glue(host_site, piece_site) == classify(t, tau)


def test_analyze_report_classifies_once_and_enumerates_nothing(monkeypatch):
    t = bipyramid(7)
    tau = make_z_orientation(t, (0,))
    expected = analyze_report(t, tau, "tsv")
    classified = counted(monkeypatch, cli, "classify")
    enumerated = counted(monkeypatch, cli, "enumerate_zigzags")
    assert analyze_report(t, tau, "tsv") == expected
    assert len(classified) == 1 and enumerated == []


def test_generate_bipyramid_builds_and_enumerates_once(monkeypatch, capsys):
    built = counted(monkeypatch, generators, "bipyramid")
    enumerated = counted(monkeypatch, generators, "enumerate_zigzags")
    enumerated_here = counted(monkeypatch, cli, "enumerate_zigzags")
    assert main(["generate", "bipyramid", "--n", "9"]) == 0
    assert len(built) == 1 and len(enumerated) == 1 and enumerated_here == []
    assert capsys.readouterr().err.splitlines() == [
        "zigzags: 1 (z-knotted)", "homogeneous zorient: 0",
    ]


def _path(n: int) -> TreeSpec:
    ids = [f"p{i:02d}" for i in range(n)]
    labels = [3] + [4] * (n - 1)
    return TreeSpec(tuple(zip(ids, labels)), tuple(zip(ids, ids[1:])))


@pytest.mark.parametrize("n", (1, 2, 5, 12))
def test_tree_build_audits_the_glued_surface_once(monkeypatch, n):
    # however many glues a build runs, the glued surface is walked and
    # classified once, at the end; each label's bipyramid is built and
    # classified once per process, and its piece site resolved once per
    # wanted heads, so a second build with the same labels does neither
    clear_templates()
    walked = counted(monkeypatch, surgery, "_sole_zigzag_shadow")
    audited = counted(monkeypatch, surgery, "classify")
    built = counted(monkeypatch, generators, "bipyramid")
    pieces = counted(monkeypatch, generators, "classify")
    sites = counted(monkeypatch, generators, "_piece_site")
    spec = _path(n)
    # one analysis per label, and one site for label 4 whatever the number
    # of glues, in the first build; none in the second
    for analyses, resolved in ((len(set(spec.labels.values())), min(n - 1, 1)), (0, 0)):
        for calls in (walked, audited, built, pieces, sites):
            calls.clear()
        t, tau, log = tree_build(spec)
        assert len(log.records) == n - 1
        assert len(walked) == len(audited) == 1
        assert walked[0][0] is audited[0][0] is t
        assert len(built) == len(pieces) == analyses
        assert len(sites) == resolved


def test_tree_build_resolves_a_piece_site_once_per_label_and_heads(tree_corpus, monkeypatch):
    # the piece analyses and sites are shared by every glue of the process:
    # each label is analysed, and each (label, heads) resolved, in the first
    # build that needs it, and never again
    clear_templates()
    built = counted(monkeypatch, generators, "bipyramid")
    sites = counted(monkeypatch, generators, "_piece_site")
    glues = 0
    labels: set[int] = set()
    for spec, t, _, log in tree_corpus:
        built.clear()
        assert tree_build(spec)[0].faces == t.faces
        new = set(spec.labels.values()) - labels
        assert sorted(n for n, *_ in built) == sorted(new)
        labels |= new
        glues += len(log.records)
    keys = [(len(piece.triangulation.faces) // 2, wanted) for piece, wanted, _ in sites]
    assert len(keys) == len(set(keys))
    both_heads = len(keys) - len({label for label, _ in keys})
    # some label is glued with both head directions, and sites are reused
    assert both_heads and len(keys) < glues
    built.clear()
    sites.clear()
    for spec, t, _, _ in tree_corpus:
        assert tree_build(spec)[0].faces == t.faces
    assert built == sites == []


@pytest.mark.parametrize("n", (6, 7, 8))
def test_census_enumerates_the_input_and_the_coned_surface_once(monkeypatch, n):
    # the census path: the search, classify and the round trip share the
    # input's zigzags, and the round trip builds no second surface
    text = serialize_triangulation(bipyramid(n))
    tables = counted(monkeypatch, engine, "_apex_table")
    built = []
    init = Triangulation.__init__
    monkeypatch.setattr(Triangulation, "__init__", lambda t, faces: built.append(t) or init(t, faces))
    t = parse_triangulation(text)
    t.require_valid()
    zs = enumerate_zigzags(t)
    tau = next(tau for tau in all_z_orientations(t) if is_homogeneous(t, tau))
    assert classify(t, tau).homogeneous
    emb = parse_embedding(serialize_embedding(extract_directed_embedding(t, tau)))
    t2, _ = triangulate_embedding(emb)
    assert round_trip_check(t, tau)
    assert [x[0] for x in tables] == built == [t, t2]
    assert enumerate_zigzags(t) is enumerate_zigzags(t) is zs is tau.zigzags


@pytest.mark.parametrize("build", ("bipyramid", "tree"))
def test_derived_facts_hold_no_reference_cycle(build):
    # with the collector off, t and tau are freed by reference counts alone,
    # so a derived fact kept on one that refers back to either would leak
    gc.disable()
    try:
        if build == "bipyramid":
            t = bipyramid(9)
            tau = make_z_orientation(t, (0,))
        else:
            t, tau, _ = tree_build(_path(4))
        enumerate_zigzags(t)
        cls = classify(t, tau)
        assert cls.homogeneous and round_trip_check(t, tau)
        refs = [weakref.ref(t), weakref.ref(tau)]
        del t, tau, cls
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()
