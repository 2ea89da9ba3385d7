"""One analysis per (t, tau): classify builds it, and every caller shares it."""

from __future__ import annotations

import pytest

import zigzags.cli as cli
import zigzags.engine as engine
import zigzags.generators as generators
import zigzags.surgery as surgery
from zigzags import (
    TreeSpec,
    Zigzag,
    ZOrientation,
    all_z_orientations,
    bipyramid,
    classify,
    enumerate_zigzags,
    face_shadow,
    glue,
    is_homogeneous,
    make_z_orientation,
    platonic,
    tree_build,
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
    assert cls.face_shadows == tuple(face_shadow(t, z) for z in tau.chosen)
    # derived on first use, then kept
    assert cls.face_shadows is cls.face_shadows
    assert cls.pass_positions is cls.pass_positions
    for e in t.edges:
        positions = [i for zi, i in cls.pass_positions[e] if zi == 0]
        assert tuple(positions) == tau.chosen[0].occurrences(e)


def test_orientations_from_enumeration_build_no_reversals(monkeypatch):
    # enumerated zigzags are canonical, so only the public constructor,
    # which may be handed anything, checks them by building reversals
    t = platonic("icosahedron")
    zs = enumerate_zigzags(t)
    # enumeration itself reverses each orbit to pick its canonical form
    monkeypatch.setattr(engine, "enumerate_zigzags", lambda _: zs)
    reversals = counted(monkeypatch, Zigzag, "reverse")
    taus = list(all_z_orientations(t))
    taus += [tau.reversed() for tau in taus[:8]]
    taus.append(make_z_orientation(t, (1,) * len(zs)))
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
    # classified once, at the end; each node's bipyramid is classified once
    walked = counted(monkeypatch, surgery, "_sole_zigzag_shadow")
    audited = counted(monkeypatch, surgery, "classify")
    pieces = counted(monkeypatch, generators, "classify")
    t, tau, log = tree_build(_path(n))
    assert len(log.records) == n - 1
    assert len(walked) == len(audited) == 1
    assert walked[0][0] is audited[0][0] is t
    assert len(pieces) == n
