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

from .engine import ZOrientation, _homogeneous, classify, enumerate_zigzags, is_homogeneous
from .triangulation import ParseError, Triangulation, ValidationReport, _check_token, face_key

__all__ = [
    "EmbeddingError",
    "DirectedEmbedding",
    "validate_embedding",
    "extract_directed_embedding",
    "triangulate_embedding",
    "embedding_from_directed_faces",
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
    but each cycle is rotated to start at its least arc, so equal data
    compares equal.
    """

    vertices: tuple[str, ...]
    arcs: tuple[Arc, ...]
    face_cycles: tuple[tuple[str, tuple[Arc, ...]], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(sorted(self.vertices)))
        object.__setattr__(self, "arcs", tuple(sorted(self.arcs)))
        rotated = []
        for name, cyc in self.face_cycles:
            cyc = tuple(cyc)
            if cyc:
                k = cyc.index(min(cyc))
                cyc = cyc[k:] + cyc[:k]
            rotated.append((name, cyc))
        object.__setattr__(self, "face_cycles", tuple(rotated))

    def out_degree(self, v: str) -> int:
        return sum(1 for a in self.arcs if a[0] == v)

    def in_degree(self, v: str) -> int:
        return sum(1 for a in self.arcs if a[1] == v)


def validate_embedding(emb: DirectedEmbedding) -> ValidationReport:
    """Structural checks for a directed Eulerian embedding.

    The digraph must be simple (no loops, no repeated arcs, no antiparallel
    arc pairs), connected, and balanced at every vertex; every face cycle
    must chain head to tail and close up; and every arc must lie on exactly
    two face cycles.
    """
    violations: list[str] = []
    known = set(emb.vertices)
    arcset = set(emb.arcs)
    if len(arcset) != len(emb.arcs):
        violations.append("repeated arcs")
    for u, w in emb.arcs:
        if u == w:
            violations.append(f"arc {u}->{w} is a loop")
        if (w, u) in arcset:
            violations.append(f"arcs {u}->{w} and {w}->{u} are antiparallel")
        for x in (u, w):
            if x not in known:
                violations.append(f"arc {u}->{w} references unknown vertex {x!r}")
    if not emb.vertices:
        violations.append("no vertices")
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

    seen = set()
    if emb.vertices:
        start = emb.vertices[0]
        seen = {start}
        stack = [start]
        nbrs: dict[str, set[str]] = {v: set() for v in emb.vertices}
        for u, w in emb.arcs:
            nbrs[u].add(w)
            nbrs[w].add(u)
        while stack:
            for w in nbrs[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
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
    for a, k in sorted(coverage.items()):
        if k != 2:
            violations.append(f"arc {a[0]}->{a[1]} lies on {k} face cycle(s), expected 2")
    return ValidationReport(tuple(violations))


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
    cls = classify(t, tau)
    if not _homogeneous(cls, tau):
        raise EmbeddingError("extraction requires a homogeneous z-orientation")
    type_i = set(cls.type_i_vertices)
    vertices = tuple(v for v in t.vertices if v not in type_i)
    arcs = tuple(sorted(cls.edge_directions.values()))

    cycles = []
    for v in sorted(type_i):
        link = t.vertex_link(v)
        cyc = link.cycle
        directed = []
        for i in range(len(cyc)):
            u, w = cyc[i], cyc[(i + 1) % len(cyc)]
            direction = cls.edge_directions[tuple(sorted((u, w)))]
            directed.append(direction)
        # the link must march consistently; flip if it runs against the arcs
        heads_match = sum(1 for i, a in enumerate(directed) if a[0] == cyc[i])
        if heads_match == 0:
            directed = directed[::-1]
        elif heads_match != len(directed):
            raise AssertionError(f"link of {v!r} does not trace a directed cycle")
        cycles.append((v, tuple(directed)))
    emb = DirectedEmbedding(vertices, arcs, tuple(cycles))
    _require_valid(emb)
    return emb


def triangulate_embedding(emb: DirectedEmbedding) -> tuple[Triangulation, ZOrientation]:
    """Cone a new vertex into each face cycle of a directed embedding.

    Returns the triangulation together with the homogeneous z-orientation
    whose type-II edges reproduce the arcs.  Face cycle names become the
    new vertices; empty names are replaced by F0, F1, ...
    """
    _require_valid(emb)
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
    t = Triangulation(faces)
    report = t.validate()
    if not report.ok:
        raise EmbeddingError(str(report))

    arc_dir = {tuple(sorted(a)): a for a in emb.arcs}
    zs = enumerate_zigzags(t)
    bits = []
    for z in zs:
        chosen_bit = None
        for cand, bit in ((z, 0), (z.reverse(), 1)):
            arc_passes = [p for p in cand.passes if p.edge in arc_dir]
            assert arc_passes, "every zigzag passes an arc edge"
            if all((p.src, p.dst) == arc_dir[p.edge] for p in arc_passes):
                assert chosen_bit is None
                chosen_bit = bit
        assert chosen_bit is not None, "exactly one direction follows the arcs"
        bits.append(chosen_bit)
    tau = ZOrientation(zs, tuple(bits))
    if not is_homogeneous(t, tau):
        raise EmbeddingError("coned triangulation is not homogeneous")
    return t, tau


def embedding_from_directed_faces(t: Triangulation, tau: ZOrientation) -> DirectedEmbedding:
    """The double embedding of an all-type-II orientation.

    When every edge is type II the directed edges form the arcs on all of
    T's vertices and every face is a directed 3-cycle; the face cycles are
    the faces themselves.  This is the embedding whose coning triangulates
    to a larger complex, one new vertex per face.
    """
    cls = classify(t, tau)
    if cls.type_i_vertices or any(ty != "II" for ty in cls.edge_types.values()):
        raise EmbeddingError("requires an orientation with every edge type II")
    arcs = tuple(sorted(cls.edge_directions.values()))
    arcset = set(arcs)
    cycles = []
    for i, f in enumerate(t.faces):
        tri = []
        x, y, z = f
        for u, w in ((x, y), (y, z), (z, x)):
            tri.append((u, w) if (u, w) in arcset else (w, u))
        heads = {a[0] for a in tri}
        assert len(heads) == 3, f"face {f} is not a directed 3-cycle"
        # chain the three arcs head to tail
        first = tri[0]
        second = [a for a in tri[1:] if a[0] == first[1]][0]
        third = [a for a in tri[1:] if a is not second][0]
        cycles.append((f"F{i}", (first, second, third)))
    emb = DirectedEmbedding(tuple(t.vertices), arcs, tuple(cycles))
    _require_valid(emb)
    return emb


def round_trip_check(t: Triangulation, tau: ZOrientation) -> bool:
    """Extract an embedding, cone it back, and compare with the original.

    Face cycles are named after their type-I vertices, so the rebuilt
    triangulation must match T face for face and the rebuilt orientation
    must choose the same directed zigzags.
    """
    emb = extract_directed_embedding(t, tau)
    t2, tau2 = triangulate_embedding(emb)
    if set(t.faces) != set(t2.faces):
        return False
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
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "v":
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: expected 'v <name>', got {raw.strip()!r}")
            vertices.append(parts[1])
        elif kind == "a":
            if len(parts) != 4:
                raise ParseError(f"line {lineno}: expected 'a <index> <from> <to>'")
            try:
                idx = int(parts[1])
            except ValueError:
                raise ParseError(f"line {lineno}: arc index {parts[1]!r} is not an integer") from None
            if idx != len(arcs):
                raise ParseError(f"line {lineno}: arc index {idx} out of order, expected {len(arcs)}")
            arcs.append((parts[2], parts[3]))
        elif kind == "c":
            if len(parts) < 3:
                raise ParseError(f"line {lineno}: expected 'c <name> <i1> ...'")
            try:
                idxs = [int(x) for x in parts[2:]]
            except ValueError:
                raise ParseError(f"line {lineno}: face cycle has a non-integer arc index") from None
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
