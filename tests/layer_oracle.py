"""The text parse, the closed-surface check and the special-pair sweep as
they stood before each walked its input once, kept as references for
triangulation.parse_triangulation, Triangulation.validate and
surgery.find_special_pairs (see test_one_pass_layers).

The parse feeds the constructor one record at a time through two nested
generators, so the record last read is the one the constructor fails on.
The check builds a neighbour list per vertex and searches it for
connectivity, then walks each vertex's link on the corner table on its own.
The sweep lists every candidate pair with a pattern check per pair, then
walks the link of each shared vertex and reads each candidate's sides
through a closure.  Each must give the same result, or raise the same
error with the same text, as the library on every input.
"""

from zigzags.engine import _corner_table
from zigzags.surgery import (
    _HOST_ROLE,
    HOST,
    SpecialPair,
    SurgeryError,
    _Chosen,
    _pattern_problem,
    _positions,
    _require_site,
    _turns,
)
from zigzags.triangulation import (
    ParseError,
    Triangulation,
    TriangulationError,
    ValidationReport,
    _edge_violations,
    _link_violations,
    _reachable,
    _records,
)


def parse_triangulation(text: str) -> Triangulation:
    lineno, parts = 0, []

    def faces():
        nonlocal lineno, parts
        for lineno, parts, _ in _records(text):
            if parts[0] != "f":
                raise ParseError(f"line {lineno}: unknown record type {parts[0]!r}")
            if len(parts) != 4:
                raise ParseError(f"line {lineno}: face record needs 3 vertices, got {len(parts) - 1}")
            yield parts[1:]

    try:
        return Triangulation(faces())
    except ParseError:
        raise
    except TriangulationError:
        if len(set(parts[1:])) != 3:
            raise ParseError(f"line {lineno}: face has a repeated vertex") from None
        raise ParseError(f"line {lineno}: duplicate face {' '.join(sorted(parts[1:]))}") from None


def validate(t: Triangulation) -> ValidationReport:
    """t's report, computed afresh; t keeps nothing."""
    violations = [] if t.faces else ["no faces"]
    violations += _edge_violations(t._edge_faces, t.edges)
    vertices = t.vertices
    if vertices:
        neighbours = {v: [] for v in vertices}
        for a, b in t.edges:
            neighbours[a].append(b)
            neighbours[b].append(a)
        seen = _reachable(vertices[0], neighbours.__getitem__)
        if len(seen) != len(vertices):
            violations.append(f"graph disconnected: reached {len(seen)} of {len(vertices)} vertices")
    corners, vertex_faces = _corner_table(t._edge_faces), t._vertex_faces

    def is_cycle(v):
        a, b, c = vertex_faces[v][0]
        x, y = (b, c) if a == v else (a, c) if b == v else (a, b)
        p, q, k = corners.get((v, x, y)), x, 1
        while p is not None and (p != x or q != y):
            p, q, k = corners.get((v, p, q)), p, k + 1
        return p is not None and k == len(vertex_faces[v])

    violations += _link_violations(vertices, is_cycle)
    return ValidationReport(tuple(violations))


def _candidates(cls, kind):
    at = cls.pass_positions
    by_vertex = {}
    for e in cls.type_ii_edges:
        for v in e:
            by_vertex.setdefault(v, []).append(e)
    return sorted(
        (c1, c2, v)
        for v, es in by_vertex.items()
        for i, c1 in enumerate(es)
        for c2 in es[i + 1:]
        if _pattern_problem(kind, at[c1], at[c2]) is None
    )


def _pass_sides(pos, e1, e2, v, at, walks, facts):
    n, i1 = len(pos), pos[e1[0] if e1[1] == v else e1[1]]
    span = (pos[e2[0] if e2[1] == v else e2[1]] - i1) % n

    def side(i):
        return (i - i1) % n < span

    sides = []
    for e, passes in zip((e1, e2), at):
        if (v, e) not in facts:
            facts[v, e] = _turns(pos, e, v, passes, walks)
        a, b = map(side, facts[v, e])
        if a == b:
            what = "occurrences of" if passes[0][0] == passes[1][0] else "zigzags through"
            raise SurgeryError(f"{what} {e} do not cross its faces oppositely")
        sides += a, b
    return side, sides


def _reads_forward(at, sides):
    ((_, a), (_, b)), ((_, c), _) = at
    return sides[0] == sides[2 if a < c < b else 3]


def find_special_pairs(cls) -> tuple:
    _require_site(cls, _HOST_ROLE)
    at, walks = cls.pass_positions, _Chosen(cls.orientation.chosen)
    links, facts = {}, {}
    out = []
    for c1, c2, v in _candidates(cls, HOST):
        if v not in links:
            links[v] = _positions(cls.triangulation.vertex_link(v))
        pair_at = (at[c1], at[c2])
        _, sides = _pass_sides(links[v], c1, c2, v, pair_at, walks, facts)
        out.append(SpecialPair(*((c1, c2) if _reads_forward(pair_at, sides) else (c2, c1)), v))
    return tuple(out)
