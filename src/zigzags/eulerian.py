"""Correspondence between homogeneous z-orientations and directed Eulerian
embeddings.

A homogeneous z-orientation of a triangulation T determines a simple
directed graph on the type-II vertices (the directed type-II edges) plus a
rotation-like family of closed arc cycles, one per type-I vertex, read off
the vertex link.  In such an embedding every vertex is balanced and every
arc lies on exactly two of the face cycles, the pattern of a directed
Eulerian circuit decomposition.  The construction runs both ways: coning a
new vertex into each face cycle of a directed embedding recovers a
triangulation with a homogeneous z-orientation, and a round trip returns
the starting data.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._cyclic import least_rotation
from .engine import (
    Classification,
    ZOrientation,
    _orient_along,
    classify,
    enumerate_zigzags,
    is_homogeneous,
)
from .triangulation import (
    ParseError,
    Triangulation,
    ValidationReport,
    _check_token,
    _integer,
    _reachable,
    _records,
    edge_key,
    face_key,
)

__all__ = [
    "EmbeddingError",
    "DirectedEmbedding",
    "validate_embedding",
    "extract_directed_embedding",
    "triangulate_embedding",
    "round_trip_check",
    "parse_embedding",
    "serialize_embedding",
]

Arc = tuple[str, str]


class EmbeddingError(ValueError):
    """A directed embedding violates its structural rules."""


@dataclass(frozen=True)
class DirectedEmbedding:
    """A directed graph with named closed arc walks covering each arc twice.

    vertices and arcs are stored sorted; face_cycles keep their given order
    but each cycle is stored at its least rotation, so equal data compares
    equal.
    """

    vertices: tuple[str, ...]
    arcs: tuple[Arc, ...]
    face_cycles: tuple[tuple[str, tuple[Arc, ...]], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(sorted(self.vertices)))
        object.__setattr__(self, "arcs", tuple(sorted(self.arcs)))
        rotated = tuple((name, least_rotation(cyc)) for name, cyc in self.face_cycles)
        object.__setattr__(self, "face_cycles", rotated)


def validate_embedding(emb: DirectedEmbedding) -> ValidationReport:
    """Structural checks for a directed Eulerian embedding.

    The digraph must declare each vertex once, be simple (no loops, no
    repeated arcs, no antiparallel arc pairs), connected, and balanced at
    every vertex; every face cycle must chain head to tail, close up, and
    visit each vertex at most once; every arc must lie on exactly two face
    cycles; and at every vertex the corners of the face cycles (an arc in,
    the next arc out) must join its arcs into one cycle, as the faces around
    a point of a surface do.
    """
    violations: list[str] = []
    known = set(emb.vertices)
    arcset = set(emb.arcs)
    # arcs are stored sorted, so a repeated arc follows its first declaration
    for (u, w), last in zip(emb.arcs, ((), *emb.arcs)):
        if (u, w) == last:
            violations.append(f"arc {u}->{w} is declared more than once")
        if u == w:
            violations.append(f"arc {u}->{w} is a loop")
        if u < w and (w, u) in arcset:  # each pair once; a loop is no pair
            violations.append(f"arcs {u}->{w} and {w}->{u} are antiparallel")
        for x in (u, w):
            if x not in known:
                violations.append(f"arc {u}->{w} references unknown vertex {x!r}")
    if not emb.vertices:
        violations.append("no vertices")
    vs = emb.vertices  # stored sorted, so a repeated vertex sits next to itself
    violations += [f"vertex {v!r} is declared more than once" for v, w in zip(vs, vs[1:]) if v == w]
    if violations:
        return ValidationReport(tuple(sorted(set(violations))))

    inn = dict.fromkeys(emb.vertices, 0)
    out = dict.fromkeys(emb.vertices, 0)
    for u, w in emb.arcs:
        out[u] += 1
        inn[w] += 1
    for v in emb.vertices:
        if inn[v] != out[v]:
            violations.append(f"vertex {v!r} has in-degree {inn[v]} but out-degree {out[v]}")
        if out[v] == 0:
            violations.append(f"vertex {v!r} is isolated")

    nbrs: dict[str, set[str]] = {v: set() for v in emb.vertices}
    for u, w in emb.arcs:
        nbrs[u].add(w)
        nbrs[w].add(u)
    seen = _reachable(emb.vertices[0], nbrs.__getitem__)
    if len(seen) != len(emb.vertices):
        violations.append(
            f"graph disconnected: reached {len(seen)} of {len(emb.vertices)} vertices"
        )

    names = [name for name, _ in emb.face_cycles]
    if len(set(names)) != len(names):
        violations.append("repeated face cycle names")
    coverage: dict[Arc, int] = {a: 0 for a in emb.arcs}
    for name, cyc in emb.face_cycles:
        if not cyc:
            violations.append(f"face cycle {name!r} is empty")
            continue
        for i, arc in enumerate(cyc):
            if arc not in arcset:
                violations.append(f"face cycle {name!r} uses unknown arc {arc[0]}->{arc[1]}")
            else:
                coverage[arc] += 1
            nxt = cyc[(i + 1) % len(cyc)]
            if arc[1] != nxt[0]:
                violations.append(
                    f"face cycle {name!r} breaks at {arc[0]}->{arc[1]} followed by {nxt[0]}->{nxt[1]}"
                )
        heads = [w for _, w in cyc]
        if len(set(cyc)) != len(cyc):
            u, w = next(arc for i, arc in enumerate(cyc) if arc in cyc[:i])
            violations.append(f"face cycle {name!r} uses arc {u}->{w} more than once")
        elif len(set(heads)) != len(heads):
            v = next(w for i, w in enumerate(heads) if w in heads[:i])
            violations.append(f"face cycle {name!r} visits vertex {v!r} more than once")
    for a, k in sorted(coverage.items()):
        if k != 2:
            violations.append(f"arc {a[0]}->{a[1]} lies on {k} face cycle(s), expected 2")
    if not violations:
        violations += _pinched_vertices(emb)
    return ValidationReport(tuple(violations))


def _pinched_vertices(emb: DirectedEmbedding) -> list[str]:
    """One violation per vertex whose arcs the corners join into more than
    one cycle; needs every face cycle simple and every arc on two of them."""
    corners: dict[str, dict[Arc, list[Arc]]] = {v: {} for v in emb.vertices}
    for _, cyc in emb.face_cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            at = corners[a[1]]
            at.setdefault(a, []).append(b)
            at.setdefault(b, []).append(a)
    out = []
    for v, at in corners.items():
        left, cycles = set(at), 0
        while left:
            left -= _reachable(min(left), at.__getitem__)
            cycles += 1
        if cycles > 1:
            out.append(f"the corners at vertex {v!r} form {cycles} cycles, not one")
    return out


def _require_valid(emb: DirectedEmbedding) -> None:
    report = validate_embedding(emb)
    if not report.ok:
        raise EmbeddingError(str(report))


def extract_directed_embedding(t: Triangulation, tau: ZOrientation) -> DirectedEmbedding:
    """Read the directed embedding off a homogeneous z-orientation.

    Vertices are the type-II vertices of the classification, arcs the
    directed type-II edges, and each type-I vertex contributes the face
    cycle traced by its link.
    """
    return _extract(classify(t, tau))


def _extract(cls: Classification) -> DirectedEmbedding:
    """extract_directed_embedding on a classification the caller holds."""
    if not cls.homogeneous:
        raise EmbeddingError("extraction requires a homogeneous z-orientation")
    t = cls.triangulation
    type_i = set(cls.type_i_vertices)
    vertices = tuple(v for v in t.vertices if v not in type_i)
    arcs = tuple(sorted(cls.edge_directions.values()))

    cycles = []
    for v in sorted(type_i):
        cyc = t.vertex_link(v)
        directed = [cls.edge_directions[edge_key(u, w)] for u, w in zip(cyc, cyc[1:] + cyc[:1])]
        # flip a link that runs against its first arc; validation below
        # checks that every arc then runs with the link, as cycles chain
        if directed[0][0] != cyc[0]:
            directed.reverse()
        cycles.append((v, tuple(directed)))
    emb = DirectedEmbedding(vertices, arcs, tuple(cycles))
    _require_valid(emb)
    return emb


def triangulate_embedding(emb: DirectedEmbedding) -> tuple[Triangulation, ZOrientation]:
    """Cone a new vertex into each face cycle of a directed embedding.

    Returns the triangulation together with the homogeneous z-orientation
    whose type-II edges reproduce the arcs.  Face cycle names become the
    new vertices; empty names are replaced by F0, F1, ...

    Each zigzag is taken in the direction passing the arcs it meets from
    tail to head; InvariantError if it meets none, or meets them both ways.
    A valid embedding cones to a closed surface; enumerate_zigzags checks it.
    """
    _require_valid(emb)
    t = Triangulation(_coned_faces(emb))
    tau = _orient_along(enumerate_zigzags(t), emb.arcs)
    if not is_homogeneous(t, tau):
        raise EmbeddingError("coned triangulation is not homogeneous")
    return t, tau


def _coned_faces(emb: DirectedEmbedding) -> list[tuple[str, str, str]]:
    """The cone over each face cycle, one face per arc, named by the cycle
    (F<k> when unnamed); EmbeddingError when the name is already taken."""
    faces = []
    used = set(emb.vertices)
    for k, (name, cyc) in enumerate(emb.face_cycles):
        cone = name if name else f"F{k}"
        _check_token(cone)
        if cone in used:
            raise EmbeddingError(f"face cycle name {cone!r} collides with another vertex")
        used.add(cone)
        for u, w in cyc:
            faces.append(face_key(cone, u, w))
    return faces


def round_trip_check(t: Triangulation, tau: ZOrientation) -> bool:
    """Extract an embedding, cone it back, and compare with the original.

    Face cycles are named after their type-I vertices, so the coned faces
    must be t's own, and t's zigzags oriented along the arcs must be the
    ones tau chooses.  Matching faces make the coned surface t, already
    validated and enumerated, so no second triangulation is built; when
    the faces differ this returns False rather than raising.  Orientations
    of t's own enumeration are compared by their bits.
    """
    # extraction validates the embedding it returns
    emb = extract_directed_embedding(t, tau)
    faces = _coned_faces(emb)
    if set(faces) != t._face_set:
        return False
    tau2 = _orient_along(enumerate_zigzags(t), emb.arcs)
    if tau.zigzags is tau2.zigzags:
        return tau.bits == tau2.bits
    return {z.passes for z in tau.chosen} == {z.passes for z in tau2.chosen}


# ----------------------------------------------------------------------
# file format


def parse_embedding(text: str) -> DirectedEmbedding:
    """Parse the line format of directed embeddings.

    'v <name>' declares a vertex, 'a <index> <from> <to>' an arc (indices
    0-based, strictly increasing), 'c <name> <i1> <i2> ...' a face cycle of
    arc indices.
    """
    vertices: list[str] = []
    arcs: list[Arc] = []
    cycles: list[tuple[str, tuple[Arc, ...]]] = []
    for lineno, parts, raw in _records(text):
        kind = parts[0]
        if kind == "v":
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: expected 'v <name>', got {raw.strip()!r}")
            vertices.append(parts[1])
        elif kind == "a":
            if len(parts) != 4:
                raise ParseError(f"line {lineno}: expected 'a <index> <from> <to>'")
            idx = _integer(parts[1])
            if idx is None:
                raise ParseError(f"line {lineno}: arc index {parts[1]!r} is not an integer")
            if idx != len(arcs):
                raise ParseError(f"line {lineno}: arc index {idx} out of order, expected {len(arcs)}")
            arcs.append((parts[2], parts[3]))
        elif kind == "c":
            if len(parts) < 3:
                raise ParseError(f"line {lineno}: expected 'c <name> <i1> ...'")
            idxs = [_integer(x) for x in parts[2:]]
            if None in idxs:
                raise ParseError(f"line {lineno}: face cycle has a non-integer arc index")
            for i in idxs:
                if not 0 <= i < len(arcs):
                    raise ParseError(f"line {lineno}: arc index {i} out of range")
            cycles.append((parts[1], tuple(arcs[i] for i in idxs)))
        else:
            raise ParseError(f"line {lineno}: unknown record {kind!r}")
    return DirectedEmbedding(tuple(vertices), tuple(arcs), tuple(cycles))


def serialize_embedding(emb: DirectedEmbedding) -> str:
    """Serialize with vertices and arcs sorted; cycles reference arc indexes."""
    index = {a: i for i, a in enumerate(emb.arcs)}
    lines = [f"v {v}" for v in emb.vertices]
    lines += [f"a {i} {a[0]} {a[1]}" for i, a in enumerate(emb.arcs)]
    for name, cyc in emb.face_cycles:
        lines.append("c " + name + " " + " ".join(str(index[a]) for a in cyc))
    return "\n".join(lines) + "\n"
