"""Command-line front end.

Verbs: generate, analyze, convert, glue, build-tree, verify, export-dot.
Every verb is a thin wrapper over the library; exit status 0 on success,
1 on domain errors, 2 on usage errors.  All output is deterministic.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

from .engine import (
    Classification,
    ZOrientation,
    all_z_orientations,
    classify,
    enumerate_zigzags,
    is_homogeneous,
    make_z_orientation,
)
from .eulerian import (
    _extract,
    parse_embedding,
    serialize_embedding,
    triangulate_embedding,
    validate_embedding,
)
from .generators import (
    _bipyramid_analysis,
    parse_tree,
    platonic,
    tree_build,
    validate_tree,
)
from .surgery import (
    HOST,
    SpecialPair,
    SurgeryError,
    _ANY_ROLE,
    _HOST_ROLE,
    _PIECE_ROLE,
    _kind,
    _require_census,
    find_piece_pairs,
    find_special_pairs,
    glue,
    plan_gluing,
)
from .triangulation import (
    Triangulation,
    TriangulationError,
    edge_key,
    parse_triangulation,
    serialize_triangulation,
)

__all__ = ["main", "analyze_report", "export_dot"]


class UsageError(Exception):
    """Bad argument combinations that argparse alone cannot reject."""


# ----------------------------------------------------------------------
# report builders


def _census_lines(zs, fmt: str) -> list[str]:
    knotted = len(zs) == 1
    if fmt == "tsv":
        lines = [f"zigzag\t{i}\t{len(z)}" for i, z in enumerate(zs)]
        lines.append(f"z_knotted\t{str(knotted).lower()}")
        return lines
    lengths = ", ".join(str(len(z)) for z in zs)
    return [
        f"zigzags: {len(zs)} (lengths {lengths})",
        f"z-knotted: {'yes' if knotted else 'no'}",
    ]


def _pair_lines(cls: Classification, fmt: str) -> list[str]:
    kind = _kind(cls) if cls.homogeneous else None
    pairs = ()
    if kind == HOST:
        pairs, kind = find_special_pairs(cls), "special"
    elif kind is not None:
        pairs = find_piece_pairs(cls)
    lines = []
    for p in sorted(pairs, key=lambda p: (p.e1, p.e2)):
        if fmt == "tsv":
            lines.append(
                f"pair\t{p.e1[0]}\t{p.e1[1]}\t{p.e2[0]}\t{p.e2[1]}\t{p.shared_vertex}\t{kind}"
            )
        else:
            lines.append(
                f"  {p.e1[0]}-{p.e1[1]} / {p.e2[0]}-{p.e2[1]} at {p.shared_vertex} ({kind})"
            )
    if fmt == "tsv":
        return lines
    return [f"special pairs: {len(pairs)}"] + lines


def analyze_report(t: Triangulation, tau: ZOrientation | None, fmt: str = "text") -> str:
    """Full analysis: census, classification, homogeneity, balance, pairs.

    With tau = None only the census is reported.
    """
    if tau is None:
        return "\n".join(_census_lines(enumerate_zigzags(t), fmt)) + "\n"
    return _report(classify(t, tau), fmt)


def _report(cls: Classification, fmt: str) -> str:
    """analyze_report on a classification the caller holds; the census is
    its orientation's zigzags, which classify checked are t's."""
    t, tau = cls.triangulation, cls.orientation
    lines = _census_lines(tau.zigzags, fmt)
    edges, vertices, faces = (
        Counter(types.values()) for types in (cls.edge_types, cls.vertex_types, cls.face_types)
    )
    inn = dict.fromkeys(t.vertices, 0)
    out = dict.fromkeys(t.vertices, 0)
    for src, dst in cls.edge_directions.values():
        out[src] += 1
        inn[dst] += 1

    if fmt == "tsv":
        lines.append(f"bits\t{''.join(map(str, tau.bits))}")
        for e in sorted(cls.edge_types):
            if cls.edge_types[e] == "I":
                lines.append(f"edge\t{e[0]}\t{e[1]}\tI")
            else:
                s, d = cls.edge_directions[e]
                lines.append(f"edge\t{e[0]}\t{e[1]}\tII\t{s}\t{d}")
        for v in sorted(cls.vertex_types):
            lines.append(f"vertex\t{v}\t{cls.vertex_types[v]}")
        for f in sorted(cls.face_types):
            lines.append(f"face\t{f[0]}\t{f[1]}\t{f[2]}\t{cls.face_types[f]}")
        lines.append(f"homogeneous\t{str(cls.homogeneous).lower()}")
        for v in sorted(t.vertices):
            lines.append(f"balance\t{v}\t{inn[v]}\t{out[v]}")
        lines.extend(_pair_lines(cls, fmt))
        return "\n".join(lines) + "\n"

    lines.append(f"bits: {''.join(map(str, tau.bits))}")
    lines.append(f"edges: {edges['I']} type I, {edges['II']} type II")
    lines.append(f"vertices: {vertices['I']} type I, {vertices['II']} type II")
    lines.append(f"faces: {faces['I']} type I, {faces['II']} type II")
    lines.append(f"homogeneous: {'yes' if cls.homogeneous else 'no'}")
    lines.append("balance:")
    for v in sorted(t.vertices):
        lines.append(f"  {v} in={inn[v]} out={out[v]}")
    lines.extend(_pair_lines(cls, fmt))
    return "\n".join(lines) + "\n"


def _dot_id(v: str) -> str:
    """v as a DOT quoted ID, its backslashes and double quotes escaped."""
    return '"' + v.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(t: Triangulation, cls: Classification | None = None) -> str:
    """Render the edge graph in DOT, directing type-II edges when classified."""
    lines = ["graph triangulation {" if cls is None else "digraph triangulation {"]
    lines += [f"  {_dot_id(v)};" for v in sorted(t.vertices)]
    for e in t.edges:
        u, w = map(_dot_id, e)
        if cls is None:
            lines.append(f"  {u} -- {w};")
        elif cls.edge_types[e] == "II":
            s, d = map(_dot_id, cls.edge_directions[e])
            lines.append(f"  {s} -> {d} [style=bold];")
        else:
            lines.append(f"  {u} -> {w} [dir=none];")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# shared plumbing


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _write(t: Triangulation, output: str | None, *info: str) -> None:
    """Emit t's .tri as _emit does, then the info lines: on stdout when the
    .tri went to a file, else on stderr, so that stdout stays a .tri."""
    _emit(serialize_triangulation(t), output)
    stream = sys.stdout if output else sys.stderr
    for line in info:
        print(line, file=stream)


def _zorient_line(tau: ZOrientation) -> str:
    return f"homogeneous zorient: {''.join(map(str, tau.bits))}"


def _shape_lines(t: Triangulation, tau: ZOrientation) -> list[str]:
    """The counts of a glued or built sphere and the length of its zigzag."""
    return [
        f"vertices: {len(t.vertices)}",
        f"edges: {len(t.edges)}",
        f"faces: {len(t.faces)}",
        f"euler characteristic: {t.euler_characteristic()}",
        f"zigzag length: {len(tau.chosen[0])}",
    ]


def _load_triangulation(path: str) -> Triangulation:
    t = parse_triangulation(_read(path))
    t.require_valid()
    return t


def _orientation(t: Triangulation, bits: str | None, role=_ANY_ROLE) -> Classification:
    """t classified under the bits, or under its first homogeneous
    z-orientation when bits is None.  That search first checks that t's
    zigzag census fits the role, so it tries at most 2^4 orientations, and
    classifies only those that pass is_homogeneous's screen."""
    if bits is None:
        _require_census(len(enumerate_zigzags(t)), role)
        for tau in all_z_orientations(t):
            if is_homogeneous(t, tau):
                return classify(t, tau)
        raise SurgeryError("no homogeneous z-orientation exists; pass bits explicitly")
    if not bits or set(bits) - {"0", "1"}:
        raise TriangulationError(f"z-orientation bits must be a 0/1 string, got {bits!r}")
    return classify(t, make_z_orientation(t, tuple(int(b) for b in bits)))


def _parse_pair(arg: str) -> SpecialPair:
    parts = [x.strip() for x in arg.split(",")]
    if len(parts) != 3 or not all(parts):
        raise UsageError(f"pair must be three comma-separated vertices u,v,w, got {arg!r}")
    if len(set(parts)) != 3:
        raise UsageError(f"pair must be three distinct vertices u,v,w, got {arg!r}")
    u, v, w = parts
    return SpecialPair(edge_key(u, v), edge_key(v, w), v)


# ----------------------------------------------------------------------
# verbs


def _cmd_generate(args) -> int:
    if args.shape == "bipyramid":
        cls = _bipyramid_analysis(args.n, args.prefix)
        t, zs, bits = cls.triangulation, cls.orientation.zigzags, [_zorient_line(cls.orientation)]
    else:
        t = platonic(args.name)
        zs, bits = enumerate_zigzags(t), []
    suffix = " (z-knotted)" if len(zs) == 1 else ""
    _write(t, args.output, f"zigzags: {len(zs)}{suffix}", *bits)
    return 0


def _cmd_analyze(args) -> int:
    t = _load_triangulation(args.file)
    if args.zorient is None:
        sys.stdout.write(analyze_report(t, None, args.format))
    else:
        sys.stdout.write(_report(_orientation(t, args.zorient), args.format))
    return 0


def _cmd_convert(args) -> int:
    if args.extract:
        if args.zorient is None:
            raise UsageError("--extract requires --zorient")
        emb = _extract(_orientation(_load_triangulation(args.extract), args.zorient))
        _emit(serialize_embedding(emb), args.output)
    else:
        emb = parse_embedding(_read(args.triangulate))
        t, tau = triangulate_embedding(emb)
        _write(t, args.output, _zorient_line(tau))
    return 0


def _cmd_glue(args) -> int:
    host_t = _load_triangulation(args.host)
    piece_t = _load_triangulation(args.piece)
    host = _orientation(host_t, args.host_zorient, _HOST_ROLE)
    piece = _orientation(piece_t, args.piece_zorient, _PIECE_ROLE)
    host_site, piece_site = plan_gluing(
        host, _parse_pair(args.host_pair), piece, (_parse_pair(args.piece_pair),)
    )
    # glue raises InvariantError unless the predicted zigzag walks as the
    # glued surface's only zigzag and the result is homogeneous, so both
    # lines report yes
    cls = glue(host_site, piece_site)
    t, tau = cls.triangulation, cls.orientation
    _write(
        t, args.output, *_shape_lines(t, tau), "prediction matches: yes", "homogeneous: yes",
        _zorient_line(tau),
    )
    return 0


def _cmd_build_tree(args) -> int:
    spec = parse_tree(_read(args.file))
    # tree_build raises InvariantError unless there are 2 type-I vertices per node
    t, tau, log = tree_build(spec)
    _write(
        t, args.output, *map(str, log.records), *_shape_lines(t, tau),
        f"type-I vertices: {2 * len(spec.nodes)}", _zorient_line(tau),
    )
    return 0


def _cmd_verify(args) -> int:
    path = Path(args.file)
    if path.suffix == ".tri":
        report = parse_triangulation(_read(args.file)).validate()
    elif path.suffix == ".eul":
        report = validate_embedding(parse_embedding(_read(args.file)))
    elif path.suffix == ".tree":
        report = validate_tree(parse_tree(_read(args.file)))
    else:
        raise UsageError(
            f"cannot infer format from {path.suffix!r} (expected .tri, .eul, or .tree)"
        )
    if report.ok:
        print("OK")
        return 0
    print(report, file=sys.stderr)
    return 1


def _cmd_export_dot(args) -> int:
    t = _load_triangulation(args.file)
    cls = None
    if args.zorient is not None:
        cls = _orientation(t, args.zorient)
    _emit(export_dot(t, cls), args.output)
    return 0


# ----------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zigzags",
        description="Zigzag analysis, Eulerian-embedding conversion, and gluing "
        "surgery for surface triangulations.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("generate", help="write a generated triangulation")
    gsub = p.add_subparsers(dest="shape", required=True)
    gb = gsub.add_parser("bipyramid", help="the n-gonal bipyramid")
    gb.add_argument("--n", type=int, required=True, help="base cycle length (>= 3)")
    gb.add_argument("--prefix", default="", help="vertex name prefix")
    gp = gsub.add_parser("platonic", help="a platonic deltahedron")
    gp.add_argument(
        "--name", required=True, choices=["tetrahedron", "octahedron", "icosahedron"]
    )
    for q in (gb, gp):
        q.add_argument("-o", "--output", help="write the .tri here instead of stdout")
        q.set_defaults(func=_cmd_generate)

    p = sub.add_parser("analyze", help="census and classification report")
    p.add_argument("file", help=".tri file")
    p.add_argument("--zorient", help="z-orientation bits over the canonical zigzag order")
    p.add_argument("--format", choices=["text", "tsv"], default="text")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("convert", help="between triangulations and directed embeddings")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--extract", metavar="TRI", help="read a .tri, write its embedding")
    mode.add_argument("--triangulate", metavar="EUL", help="read a .eul, write its coning")
    p.add_argument("--zorient", help="bits for --extract (must be homogeneous)")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("glue", help="glue a piece into a host along special pairs")
    p.add_argument("--host", required=True, help="z-knotted homogeneous .tri")
    p.add_argument("--piece", required=True, help="two- or four-zigzag homogeneous .tri")
    p.add_argument("--host-pair", required=True, metavar="u,v,w", help="e1=uv, e2=vw")
    p.add_argument("--piece-pair", required=True, metavar="u,v,w")
    p.add_argument("--host-zorient", help="bits; default: first homogeneous orientation")
    p.add_argument("--piece-zorient", help="bits; default: first homogeneous orientation")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_glue)

    p = sub.add_parser("build-tree", help="glue bipyramids along a labeled tree")
    p.add_argument("file", help=".tree file")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_build_tree)

    p = sub.add_parser("verify", help="validate a .tri, .eul, or .tree file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("export-dot", help="render the edge graph in DOT")
    p.add_argument("file", help=".tri file")
    p.add_argument("--zorient", help="bits; adds type-II edge direction styling")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_export_dot)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:  # every domain error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
