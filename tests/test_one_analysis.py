"""One analysis per (t, tau): classify builds it, and every caller shares it."""

from __future__ import annotations

import gc
import weakref
from functools import cached_property

import pytest

import zigzags.cli as cli
import zigzags.engine as engine
import zigzags.eulerian as eulerian
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
    bipyramid_canonical_zorientation,
    classify,
    enumerate_zigzags,
    extract_directed_embedding,
    find_piece_pairs,
    find_special_pairs,
    glue,
    is_homogeneous,
    make_z_orientation,
    parse_embedding,
    parse_triangulation,
    plan_gluing,
    platonic,
    predict_glued_zigzag,
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


def counted_plans(monkeypatch):
    """Wrap GluingSite._plan so that each plan built is recorded by its
    site; returns the record."""
    sites = []
    plan = surgery.GluingSite.__dict__["_plan"].func

    def wrapper(site):
        sites.append(site)
        return plan(site)

    counted = cached_property(wrapper)
    counted.__set_name__(surgery.GluingSite, "_plan")
    monkeypatch.setattr(surgery.GluingSite, "_plan", counted)
    return sites


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
    # enumeration itself may reverse an orbit to pick its canonical form
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
    walked = counted(monkeypatch, surgery, "_audit_sole_zigzag")
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
    # each label is analysed, and each (label, heads) resolved and its site
    # compiled into a plan, in the first build that needs it, and never again
    clear_templates()
    built = counted(monkeypatch, generators, "bipyramid")
    sites = counted(monkeypatch, generators, "_piece_site")
    plans = counted_plans(monkeypatch)
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
    # each site resolved is planned once, when first spliced
    assert len(plans) == len({id(site) for site in plans}) == len(keys)
    built.clear()
    sites.clear()
    plans.clear()
    for spec, t, _, _ in tree_corpus:
        assert tree_build(spec)[0].faces == t.faces
    assert built == sites == plans == []


def test_glue_and_prediction_plan_a_piece_site_once(monkeypatch):
    # public glue and predict_glued_zigzag splice as tree builds do: the
    # piece site is planned on its first splice, and its plan read after
    plans = counted_plans(monkeypatch)
    host = classify(bipyramid(3, "L."), bipyramid_canonical_zorientation(3, "L."))
    piece = classify(bipyramid(6, "R."), bipyramid_canonical_zorientation(6, "R."))
    host_site, piece_site = plan_gluing(
        host, find_special_pairs(host)[0], piece, find_piece_pairs(piece)
    )
    assert plans == []
    predicted = predict_glued_zigzag(host_site, piece_site)
    glued = glue(host_site, piece_site)
    assert predict_glued_zigzag(host_site, piece_site) == predicted
    assert glue(host_site, piece_site).triangulation.faces == glued.triangulation.faces
    assert plans == [piece_site]


@pytest.mark.parametrize("n", (6, 7, 8))
def test_census_enumerates_the_input_and_the_coned_surface_once(monkeypatch, n):
    # the census path: the search, classify and the round trip share the
    # input's zigzags, and the round trip builds no second surface; each
    # surface's corner table is built once, by the enumeration that walks
    # it, and validate builds none; each surface's pass table is built once, and is_homogeneous
    # screens every orientation searched on it, so classify runs only for
    # the one found and for the coned surface's own
    text = serialize_triangulation(bipyramid(n))
    tables = counted(monkeypatch, engine, "_corner_table")
    reads = []
    read = engine._pass_table

    def recorded(t):
        reads.append((t, read(t)))
        return reads[-1][1]

    monkeypatch.setattr(engine, "_pass_table", recorded)
    classified = counted(monkeypatch, engine, "classify")
    built = []
    init = Triangulation.__init__
    monkeypatch.setattr(Triangulation, "__init__", lambda t, faces: built.append(t) or init(t, faces))
    t = parse_triangulation(text)
    t.require_valid()
    assert tables == []
    zs = enumerate_zigzags(t)
    searched = []
    for tau in all_z_orientations(t):
        searched.append(tau)
        if is_homogeneous(t, tau):
            break
    assert classify(t, tau).homogeneous
    emb = parse_embedding(serialize_embedding(extract_directed_embedding(t, tau)))
    t2, tau2 = triangulate_embedding(emb)
    assert round_trip_check(t, tau)
    assert built == [t, t2]
    assert [id(x[0]) for x in tables] == [id(t._edge_faces), id(t2._edge_faces)]
    assert enumerate_zigzags(t) is enumerate_zigzags(t) is zs is tau.zigzags
    assert [(id(x), y) for x, y in classified] == [(id(t), tau), (id(t2), tau2)]
    # one read per orientation screened, one per classify
    assert [id(x) for x, _ in reads] == [id(t)] * (len(searched) + 1) + [id(t2)] * 2
    assert {id(table) for x, table in reads if x is t} == {id(t._passes)}
    assert {id(table) for x, table in reads if x is t2} == {id(t2._passes)}


@pytest.mark.parametrize("build", ("bipyramid", "tree"))
def test_derived_facts_hold_no_reference_cycle(build):
    # with the collector off, t and tau are freed by reference counts alone,
    # so a derived fact kept on one that refers back to either would leak;
    # t is dropped once keeping an embedding, and once keeping a
    # classification with none yet
    gc.disable()
    try:
        for extracted in (True, False):
            if build == "bipyramid":
                t = bipyramid(9)
                walked = make_z_orientation(t, (0,))
            else:
                t, walked, _ = tree_build(_path(4))
            # a build's orientation holds its walked zigzag; t keeps the
            # classification and the embedding of its own enumeration's
            tau = make_z_orientation(t, walked.bits)
            assert classify(t, walked).homogeneous and round_trip_check(t, walked)
            cls = classify(t, tau)
            assert classify(t, tau).edge_types is cls.edge_types
            emb = extract_directed_embedding(t, tau)
            assert cls.homogeneous and round_trip_check(t, tau)
            assert classify(t, tau)._facts is cls._facts and cls._facts["embedding"] is emb
            if not extracted:
                assert classify(t, tau.reversed()).homogeneous
                assert "embedding" not in classify(t, tau.reversed())._facts
            refs = [weakref.ref(t), weakref.ref(tau), weakref.ref(walked)]
            del t, tau, walked, cls, emb
            assert [r() for r in refs] == [None, None, None]
    finally:
        gc.enable()


def _fresh(n: int) -> Triangulation:
    """BP(n) parsed from its text: a surface nothing has analysed yet."""
    return parse_triangulation(serialize_triangulation(bipyramid(n)))


def test_an_own_orientation_is_classified_once_per_bits(monkeypatch):
    t = _fresh(8)
    zs = enumerate_zigzags(t)
    reads = counted(monkeypatch, engine, "_pass_table")
    tau = make_z_orientation(t, (0,) * len(zs))
    cls = classify(t, tau)
    again = classify(t, make_z_orientation(t, tau.bits))
    assert again is not cls and again.orientation is not tau
    for field in ("edge_types", "edge_directions", "vertex_types", "face_types"):
        assert getattr(again, field) is getattr(cls, field)
    assert classify(t, tau).edge_types is classify(t, tau).edge_types is cls.edge_types
    assert len(reads) == 1
    # an equal copy of t's zigzags is an orientation of t's own: copied
    # zigzags, or t's own in a new tuple, share t's kept dicts and facts
    copied = ZOrientation(tuple(Zigzag(z.passes) for z in zs), tau.bits)
    walked = ZOrientation(zs[:1] + zs[1:], tau.bits)
    assert walked.zigzags is not zs
    for equal in (copied, walked):
        got = classify(t, equal)
        assert got.orientation is equal
        for field in ("edge_types", "edge_directions", "vertex_types", "face_types", "_facts"):
            assert getattr(got, field) is getattr(cls, field)
    assert len(reads) == 1
    # other bits and the reversal are classified afresh and kept instead
    other = make_z_orientation(t, (1,) + (0,) * (len(zs) - 1))
    for tau2 in (other, tau.reversed()):
        cls2 = classify(t, tau2)
        assert cls2.edge_types is not cls.edge_types
        assert classify(t, tau2).edge_types is cls2.edge_types
    assert classify(t, tau).edge_types is not cls.edge_types
    assert len(reads) == 4


def test_a_round_trip_after_an_extraction_validates_and_walks_nothing(monkeypatch):
    t = _fresh(7)
    tau = next(tau for tau in all_z_orientations(t) if is_homogeneous(t, tau))
    emb = extract_directed_embedding(t, tau)
    validated = counted(monkeypatch, eulerian, "validate_embedding")
    links = counted(monkeypatch, Triangulation, "vertex_link")
    assert extract_directed_embedding(t, tau) is emb
    assert round_trip_check(t, tau) and round_trip_check(t, tau)
    assert validated == links == []
    # the reversal is extracted afresh, and then kept in turn
    assert round_trip_check(t, tau.reversed())
    assert len(validated) == 1 and links
    rev = classify(t, tau.reversed())
    assert extract_directed_embedding(t, tau.reversed()) is rev._facts["embedding"]
    # a classification t no longer keeps is extracted afresh, into its own
    # facts, and leaves what t keeps as it is
    links.clear()
    held = classify(t, tau)
    kept = classify(t, tau.reversed())
    assert held._facts is not kept._facts
    assert eulerian._extract(held) == emb
    assert len(validated) == 2 and links
    assert held._facts["embedding"] == emb and "embedding" not in kept._facts
    assert classify(t, tau.reversed())._facts is kept._facts


def test_an_equal_copy_shares_the_extraction(monkeypatch):
    # a classification of an equal copy of t's zigzags carries t's facts:
    # extracting from it, and then from t's own orientation, builds and
    # validates once
    t = _fresh(7)
    tau = next(tau for tau in all_z_orientations(t) if is_homogeneous(t, tau))
    copied = ZOrientation(tuple(Zigzag(z.passes) for z in tau.zigzags), tau.bits)
    equal = classify(t, copied)
    validated = counted(monkeypatch, eulerian, "validate_embedding")
    links = counted(monkeypatch, Triangulation, "vertex_link")
    emb = eulerian._extract(equal)
    assert len(validated) == 1 and len(links) == len(emb.face_cycles)
    assert eulerian._extract(equal) is emb is extract_directed_embedding(t, tau)
    assert extract_directed_embedding(t, copied) is emb
    assert len(validated) == 1 and len(links) == len(emb.face_cycles)
    assert classify(t, copied)._facts is equal._facts is classify(t, tau)._facts


@pytest.mark.parametrize("n", (6, 7, 8))
def test_homogeneity_is_scanned_once_per_bits(monkeypatch, n):
    # the census path: the search scans each orientation it classifies, and
    # the caller's classify, the extraction and the round trip read the
    # found one's verdict off t; the coned surface's own is scanned once
    scans = counted(monkeypatch, engine, "_homogeneity_scan")
    classified = counted(monkeypatch, engine, "classify")
    t = _fresh(n)
    tau = next(tau for tau in all_z_orientations(t) if is_homogeneous(t, tau))
    searched = [x[1].bits for x in classified]
    assert classify(t, tau).homogeneous
    emb = parse_embedding(serialize_embedding(extract_directed_embedding(t, tau)))
    t2, tau2 = triangulate_embedding(emb)
    assert round_trip_check(t, tau) and classify(t, tau).homogeneous
    assert [(x.triangulation, x.orientation.bits) for (x,) in scans] == [
        *((t, bits) for bits in searched), (t2, tau2.bits)
    ]
    assert classify(t, tau)._facts["homogeneous"] is True
    assert classify(t2, tau2)._facts["homogeneous"] is True
    # other bits are scanned once when classified, and the verdict goes with
    # t's dicts: the first bits, classified again, are scanned again
    scans.clear()
    rev = tau.reversed()
    assert classify(t, rev).homogeneous and classify(t, rev).homogeneous
    assert classify(t, tau).homogeneous and classify(t, tau).homogeneous
    assert [x.orientation.bits for (x,) in scans] == [rev.bits, tau.bits]
    # an equal copy of t's zigzags reads the verdict t keeps for its bits
    scans.clear()
    copied = ZOrientation(tuple(Zigzag(z.passes) for z in tau.zigzags), tau.bits)
    assert classify(t, copied).homogeneous and classify(t, copied).homogeneous
    assert scans == []
