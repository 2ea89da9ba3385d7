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

Each embedding rule of validate_embedding tests the valid case in whole
passes over the arcs, the vertices or a cycle, and loops element by
element only to name the offenders when it fails.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain

from .engine import (
    Classification,
    ZOrientation,
    _least_rotation,
    _orient_along,
    classify,
    enumerate_zigzags,
    is_homogeneous,
)
from .triangulation import (
    ParseError,
    Triangulation,
    TriangulationError,
    ValidationReport,
    _check_token,
    _integer,
    _is_token,
    _reachable,
    _records,
    edge_key,
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
    but each cycle is stored at its least rotation (engine._least_rotation,
    exact for every cycle validate_embedding accepts).  Every arc, in arcs
    and in each cycle, is stored as a tuple, so equal data compares equal
    and hashes alike.
    """

    vertices: tuple[str, ...]
    arcs: tuple[Arc, ...]
    face_cycles: tuple[tuple[str, tuple[Arc, ...]], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(sorted(self.vertices)))
        object.__setattr__(self, "arcs", tuple(sorted(map(tuple, self.arcs))))
        rotated = tuple((name, _least_rotation(map(tuple, cyc))) for name, cyc in self.face_cycles)
        object.__setattr__(self, "face_cycles", rotated)


def validate_embedding(emb: DirectedEmbedding) -> ValidationReport:
    """Structural checks for a directed Eulerian embedding.

    The digraph must declare each vertex once, be simple (no loops, no
    repeated arcs, no antiparallel arc pairs), connected, and balanced at
    every vertex; each vertex and face cycle name must be a token, though a
    face cycle may be unnamed, and the cycles must cone under distinct
    names (cycle k unnamed as F<k>) that no vertex has; every face cycle
    must chain head to tail, close up, and visit each vertex at most once;
    every arc must lie on exactly two face cycles; and at every vertex the
    corners of the face cycles (an arc in, the next arc out) must join its
    arcs into one cycle, as the faces around a point of a surface do.

    Each rule tests the valid case in whole passes (set and Counter
    compares, list compares, set sizes) and loops element by element only
    when that test fails, to name the offenders in order.
    """
    violations: list[str] = []
    vs, arcs = emb.vertices, emb.arcs
    known, arcset = set(vs), set(arcs)
    tails, heads = [u for u, _ in arcs], [w for _, w in arcs]
    # a loop reversed is itself, so one test finds loops and antiparallel pairs
    if (
        len(arcset) != len(arcs)
        or not arcset.isdisjoint(zip(heads, tails))
        or not known.issuperset(tails + heads)
    ):
        # arcs are stored sorted, so a repeated arc follows its first declaration
        for (u, w), last in zip(arcs, ((), *arcs)):
            if (u, w) == last:
                violations.append(f"arc {u}->{w} is declared more than once")
            if u == w:
                violations.append(f"arc {u}->{w} is a loop")
            if u < w and (w, u) in arcset:  # each pair once; a loop is no pair
                violations.append(f"arcs {u}->{w} and {w}->{u} are antiparallel")
            for x in (u, w):
                if x not in known:
                    violations.append(f"arc {u}->{w} references unknown vertex {x!r}")
    if not vs:
        violations.append("no vertices")
    if len(known) != len(vs):  # stored sorted, so a repeated vertex sits next to itself
        violations += [f"vertex {v!r} is declared more than once" for v, w in zip(vs, vs[1:]) if v == w]
    if violations:
        return ValidationReport(tuple(sorted(set(violations))))

    out, inn = Counter(tails), Counter(heads)
    # every arc ends at a known vertex: one with no arc out is isolated
    if out != inn or len(out) != len(vs) or not all(map(_is_token, vs)):
        for v in vs:
            if not _is_token(v):
                violations.append(f"vertex {v!r} is no token (empty, or holding whitespace or '#')")
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

    # names as cycles cone under: an unnamed cycle cones as F<k>, and no
    # name may be a vertex's, as _coned_faces requires
    names = {_cone_name(k, name) for k, (name, _) in enumerate(emb.face_cycles)}
    if len(names) != len(emb.face_cycles):
        violations.append("repeated face cycle names")
    violations += [f"face cycle name {v!r} collides with another vertex" for v in vs if v in names]
    for name, cyc in emb.face_cycles:
        if name and not _is_token(name):
            violations.append(f"face cycle name {name!r} is no token (holding whitespace or '#')")
        if not cyc:
            violations.append(f"face cycle {name!r} is empty")
            continue
        srcs, dsts = zip(*cyc)
        if not arcset.issuperset(cyc) or dsts != srcs[1:] + srcs[:1]:
            for arc, nxt in zip(cyc, cyc[1:] + cyc[:1]):
                if arc not in arcset:
                    violations.append(f"face cycle {name!r} uses unknown arc {arc[0]}->{arc[1]}")
                if arc[1] != nxt[0]:
                    violations.append(
                        f"face cycle {name!r} breaks at {arc[0]}->{arc[1]} followed by {nxt[0]}->{nxt[1]}"
                    )
        if len(set(cyc)) != len(cyc):
            u, w = next(arc for i, arc in enumerate(cyc) if arc in cyc[:i])
            violations.append(f"face cycle {name!r} uses arc {u}->{w} more than once")
        elif len(set(dsts)) != len(dsts):
            v = next(w for i, w in enumerate(dsts) if w in dsts[:i])
            violations.append(f"face cycle {name!r} visits vertex {v!r} more than once")
    coverage = Counter(chain.from_iterable(cyc for _, cyc in emb.face_cycles))
    if coverage.keys() != arcset or set(coverage.values()) != {2}:
        violations += [
            f"arc {u}->{w} lies on {coverage[u, w]} face cycle(s), expected 2"
            for u, w in arcs if coverage[u, w] != 2
        ]
    if not violations:
        violations += _pinched_vertices(emb)
    return ValidationReport(tuple(violations))


def _pinched_vertices(emb: DirectedEmbedding) -> list[str]:
    """One violation per vertex whose arcs the corners join into more than
    one cycle; needs every face cycle simple and every arc on two of them.

    Each corner of a face cycle, an arc in and the next arc out, joins the
    two at the vertex between them.  Two flat maps hold every corner: after
    sends each arc to the two arcs out of its head that follow it, before
    sends each arc to the two arcs into its tail that precede it.  The
    corners at v join its arcs into one cycle exactly when the walk from
    its first in-arc, out by after and back in by before, each time by the
    slot it did not come by, visits each in-arc at v before it closes; only
    a walk that closes early has its cycles counted, by a search over the
    corners at v."""
    after: dict[Arc, list[Arc]] = {}
    before: dict[Arc, list[Arc]] = {}
    for _, cyc in emb.face_cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            after.setdefault(a, []).append(b)
            before.setdefault(b, []).append(a)
    into: dict[str, list[Arc]] = {}
    for a in emb.arcs:
        into.setdefault(a[1], []).append(a)

    out = []
    for v in emb.vertices:
        start = a = into[v][0]
        b, k = after[a][0], 1
        while True:
            x, y = before[b]
            a = y if x == a else x
            if a == start:
                break
            x, y = after[a]
            b, k = y if x == b else x, k + 1
        if k == len(into[v]):
            continue
        left, cycles = {x for a in into[v] for x in (a, *after[a])}, 0
        while left:
            left -= _reachable(min(left), lambda x: after[x] if x[1] == v else before[x])
            cycles += 1
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
    cycle traced by its link.  The embedding is kept in the facts of the
    classification (see classify), so a second extraction with the same
    bits reads it back unbuilt and unvalidated.
    """
    return _extract(classify(t, tau))


def _extract(cls: Classification) -> DirectedEmbedding:
    """extract_directed_embedding on a classification the caller holds,
    built once and then kept in its facts."""
    facts = cls._facts
    if "embedding" in facts:
        return facts["embedding"]
    t = cls.triangulation
    if not cls.homogeneous:
        raise EmbeddingError("extraction requires a homogeneous z-orientation")
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
    facts["embedding"] = emb
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
    (F<k> when unnamed); EmbeddingError when the name is already taken, and
    face_key's TriangulationError for a face on fewer than three vertices."""
    faces = []
    used = set(emb.vertices)
    for k, (name, cyc) in enumerate(emb.face_cycles):
        cone = _cone_name(k, name)
        if cone in used:
            raise EmbeddingError(f"face cycle name {cone!r} collides with another vertex")
        used.add(cone)
        for u, w in cyc:
            # face_key inline, as in the Triangulation constructor: a three-way sort
            a, b, c = cone, u, w
            if a > b:
                a, b = b, a
            if b > c:
                b, c = c, b
                if a > b:
                    a, b = b, a
            if a == b or b == c:
                raise TriangulationError(f"face vertices must be pairwise distinct, got {(cone, u, w)!r}")
            faces.append((a, b, c))
    return faces


def _cone_name(k: int, name: str) -> str:
    """The vertex coned into face cycle k: its name, or F<k> when unnamed."""
    return name if name else f"F{k}"


def round_trip_check(t: Triangulation, tau: ZOrientation) -> bool:
    """Extract an embedding, cone it back, and compare with the original.

    Face cycles are named after their type-I vertices, so the coned faces
    must be t's own, and t's zigzags oriented along the arcs must be the
    ones tau chooses, which their bits tell.  Matching faces make the coned
    surface t, already validated and enumerated, so no second triangulation
    is built; when the faces differ this returns False rather than raising.
    tau must orient t's own zigzags (see classify), and the classification
    and the embedding are the ones t keeps (see extract_directed_embedding):
    after an extraction, this builds and validates neither again.
    """
    # extraction validates the embedding it returns
    emb = extract_directed_embedding(t, tau)
    faces = _coned_faces(emb)
    if set(faces) != t._face_set:
        return False
    return _orient_along(enumerate_zigzags(t), emb.arcs).bits == tau.bits


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
    """Serialize with vertices and arcs sorted; cycles reference arc indexes.

    An unnamed face cycle is written under the name coning gives it, F<k>
    for cycle k, so the text cones to the same faces.  Raises
    EmbeddingError for a vertex or cycle name that is no token (empty, or
    holding whitespace or '#'), which the text could not carry.
    """
    index = {a: i for i, a in enumerate(emb.arcs)}
    names = [_cone_name(k, name) for k, (name, _) in enumerate(emb.face_cycles)]
    for name in (*emb.vertices, *names):
        try:
            _check_token(name)
        except TriangulationError as exc:
            raise EmbeddingError(f"cannot serialize: {exc}") from None
    lines = [f"v {v}" for v in emb.vertices]
    lines += [f"a {i} {a[0]} {a[1]}" for i, a in enumerate(emb.arcs)]
    for name, (_, cyc) in zip(names, emb.face_cycles):
        lines.append("c " + name + " " + " ".join(str(index[a]) for a in cyc))
    return "\n".join(lines) + "\n"
