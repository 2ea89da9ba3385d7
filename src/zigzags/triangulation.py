"""Closed surface triangulations as plain combinatorics on vertex tokens.

A triangulation is an ordered list of triangular faces, each an unordered
triple of vertex tokens.  Tokens are opaque non-empty strings without
whitespace or '#'; every ordering used anywhere in the package is plain
lexicographic order on tokens, which keeps all derived data deterministic.

Faces are stored as sorted 3-tuples, edges as sorted 2-tuples.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "ParseError",
    "TriangulationError",
    "ValidationReport",
    "Triangulation",
    "edge_key",
    "face_key",
    "parse_triangulation",
    "serialize_triangulation",
]


class TriangulationError(ValueError):
    """A triangulation value is malformed or an operation's input is invalid."""


class ParseError(TriangulationError):
    """A text record could not be parsed; the message names the line."""


def _check_token(tok: str) -> str:
    if not isinstance(tok, str) or not tok:
        raise TriangulationError(f"vertex token must be a non-empty string, got {tok!r}")
    # str.split() splits at exactly the characters for which isspace() holds
    if tok.split() != [tok] or "#" in tok:
        # '#' starts a comment in the text format, so it cannot round-trip
        raise TriangulationError(f"vertex token {tok!r} contains whitespace or '#'")
    return tok


def _reachable(start, neighbours) -> set:
    """Everything reachable from start, where neighbours(x) lists x's neighbours."""
    seen = {start}
    stack = [start]
    while stack:
        for w in neighbours(stack.pop()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def edge_key(u: str, v: str) -> tuple[str, str]:
    """Canonical representation of the undirected edge {u, v}."""
    if u == v:
        raise TriangulationError(f"edge endpoints must differ, got {u!r} twice")
    return (u, v) if u < v else (v, u)


def face_key(a: str, b: str, c: str) -> tuple[str, str, str]:
    """Canonical representation of the face {a, b, c}."""
    if len({a, b, c}) != 3:
        raise TriangulationError(f"face vertices must be pairwise distinct, got {(a, b, c)!r}")
    return tuple(sorted((a, b, c)))


def _face_edges(face: tuple[str, str, str]) -> tuple[tuple[str, str], ...]:
    """The three edges of a face key; the key is sorted, so they are too."""
    a, b, c = face
    return (a, b), (a, c), (b, c)


def _link_cycle(v: str, faces, closed: bool = True) -> tuple[str, ...] | None:
    """The link of v in the given faces at v: one cycle walked from its least
    vertex toward the lesser of that vertex's two link-neighbors or, if not
    closed, one simple path walked from its lesser end; else None."""
    adj: dict[str, list[str]] = {}
    for a, b, c in faces:
        x, y = (b, c) if a == v else (a, c) if b == v else (a, b)
        adj.setdefault(x, []).append(y)
        adj.setdefault(y, []).append(x)
    # a cycle has no vertex off degree 2, a path just two ends of degree 1
    ends = [x for x, nb in adj.items() if len(nb) != 2]
    if closed:
        if ends:
            return None
    elif len(ends) != 2 or len(adj[ends[0]]) != 1 or len(adj[ends[1]]) != 1:
        return None
    start = min(ends) if ends else min(adj)
    walk = [start, min(adj[start])]
    if ends:
        # joined end to end the path is a cycle, which the one loop walks
        end = max(ends)
        adj[start].append(end)
        adj[end].append(start)
    while True:
        a, b = adj[walk[-1]]
        step = b if a == walk[-2] else a
        if step == start:
            break
        walk.append(step)
    # the walk misses any other cycle the link splits into
    return tuple(walk) if len(walk) == len(adj) else None


def _edge_violations(edge_faces: dict, edges) -> list[str]:
    """The given edges that do not lie in exactly two faces of the index."""
    return [
        f"edge {e[0]}-{e[1]} lies in {k} face(s), expected 2"
        for e in edges
        if (k := len(edge_faces[e])) != 2
    ]


def _link_violations(vertices, is_cycle) -> list[str]:
    """The given vertices whose link is not a single cycle, as is_cycle(v)
    tells."""
    return [f"link of vertex {v} is not a single cycle" for v in vertices if not is_cycle(v)]


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a structural check; empty violations means valid."""

    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        return "valid" if self.ok else "\n".join(self.violations)


class Triangulation:
    """An ordered list of triangular faces with derived lookups.

    Instances are immutable by convention: all public attributes are tuples
    and the lookup tables are private.  The constructor rejects faces with
    repeated vertices and duplicate faces; deeper surface conditions (every
    edge in exactly two faces, connectivity, single-cycle vertex links) are
    reported by validate().

    Derived data kept per instance: the report of validate(), the zigzags
    of engine.enumerate_zigzags, and the table of each edge's two passes
    over those zigzags (engine._pass_table); none refers back to the
    instance.
    """

    def __init__(self, faces) -> None:
        stored: list[tuple[str, str, str]] = []
        seen: set[tuple[str, str, str]] = set()
        tokens: set[str] = set()
        edge_faces: dict[tuple[str, str], list] = {}
        vertex_faces: dict[str, list] = {}
        for f in faces:
            trio = tuple(f)
            for tok in trio:
                # a non-string may be unhashable: check it before any lookup
                if type(tok) is not str or tok not in tokens:
                    tokens.add(_check_token(tok))
            if len(trio) != 3:
                raise TriangulationError(f"face must have 3 vertices, got {trio!r}")
            key = face_key(*trio)
            if key in seen:
                raise TriangulationError(f"duplicate face {key!r}")
            seen.add(key)
            stored.append(key)
            for v in key:
                vertex_faces.setdefault(v, []).append(key)
            for e in _face_edges(key):
                edge_faces.setdefault(e, []).append(key)
        self._set_fields(
            tuple(stored),
            seen,
            {e: tuple(sorted(fs)) for e, fs in edge_faces.items()},
            {v: tuple(sorted(fs)) for v, fs in vertex_faces.items()},
        )

    @classmethod
    def _indexed(cls, faces, edge_faces: dict, vertex_faces: dict) -> "Triangulation":
        """The triangulation on a list of face keys, taking over an edge and
        a vertex index (cell -> its faces as a sorted tuple) already built
        for them, as the constructor would build it.  Nothing is checked
        here: validate() runs in full on first use."""
        t = object.__new__(cls)
        t._set_fields(tuple(faces), set(faces), edge_faces, vertex_faces)
        return t

    def _set_fields(self, faces, face_set, edge_faces, vertex_faces) -> None:
        """Every field, from the face keys and their set, edge index and
        vertex index; the derived data starts out not yet computed."""
        self._faces: tuple[tuple[str, str, str], ...] = faces
        self._face_set = face_set  # for membership tests
        self._edge_faces, self._vertex_faces = edge_faces, vertex_faces
        self._vertices = tuple(sorted(vertex_faces))
        self._edges = tuple(sorted(edge_faces))
        self._report: ValidationReport | None = None
        self._zigzags: tuple | None = None
        self._passes: list | None = None

    # ------------------------------------------------------------------
    # basic accessors

    @property
    def faces(self) -> tuple[tuple[str, str, str], ...]:
        return self._faces

    @property
    def vertices(self) -> tuple[str, ...]:
        return self._vertices

    @property
    def edges(self) -> tuple[tuple[str, str], ...]:
        return self._edges

    def edge_faces(self, edge: tuple[str, str]) -> tuple[tuple[str, str, str], ...]:
        """The faces containing an edge, sorted."""
        try:
            return self._edge_faces[edge_key(*edge)]
        except KeyError:
            raise TriangulationError(f"no such edge {edge!r}") from None

    def vertex_faces(self, v: str) -> tuple[tuple[str, str, str], ...]:
        try:
            return self._vertex_faces[v]
        except KeyError:
            raise TriangulationError(f"no such vertex {v!r}") from None

    def common_face(self, e1, e2) -> tuple[str, str, str]:
        """The unique face containing both edges; error if none.

        Two or more common faces would force two faces sharing three
        vertices, which the constructor already rules out.
        """
        f1 = set(self.edge_faces(e1))
        f2 = set(self.edge_faces(e2))
        if e1 == e2:
            raise TriangulationError("edges must be distinct")
        both = f1 & f2
        if not both:
            raise TriangulationError(f"edges {e1!r} and {e2!r} share no face")
        # a second common face would repeat the first's vertices, a duplicate
        # face the constructor rejects
        return next(iter(both))

    # ------------------------------------------------------------------
    # structure

    def vertex_link(self, v: str) -> tuple[str, ...]:
        """The link of v as a single cycle of its neighbours; error if the
        link is not one cycle.  The cycle starts at the least neighbour and
        goes toward the lesser of that neighbour's two link-neighbours, so
        equal links compare equal."""
        cycle = _link_cycle(v, self.vertex_faces(v))
        if cycle is None:
            raise TriangulationError(f"link of vertex {v!r} is not a single cycle")
        return cycle

    def euler_characteristic(self) -> int:
        return len(self._vertices) - len(self._edges) + len(self._faces)

    def validate(self) -> ValidationReport:
        """Check the closed-surface conditions; violations come back as data."""
        if self._report is not None:
            return self._report
        violations: list[str] = []
        if not self._faces:
            violations.append("no faces")
        violations += _edge_violations(self._edge_faces, self._edges)
        if self._vertices:
            # the edge index gives each neighbour once
            neighbours: dict[str, list[str]] = {v: [] for v in self._vertices}
            for a, b in self._edges:
                neighbours[a].append(b)
                neighbours[b].append(a)
            seen = _reachable(self._vertices[0], neighbours.__getitem__)
            if len(seen) != len(self._vertices):
                violations.append(
                    f"graph disconnected: reached {len(seen)} of {len(self._vertices)} vertices"
                )
        violations += _link_violations(
            self._vertices, lambda v: _link_cycle(v, self._vertex_faces[v]) is not None
        )
        self._report = ValidationReport(tuple(violations))
        return self._report

    def require_valid(self) -> None:
        report = self.validate()
        if not report.ok:
            raise TriangulationError("invalid triangulation: " + "; ".join(report.violations))

    # ------------------------------------------------------------------
    # dunder

    def __eq__(self, other) -> bool:
        return isinstance(other, Triangulation) and self._faces == other._faces

    def __hash__(self) -> int:
        return hash(self._faces)

    def __repr__(self) -> str:
        return (
            f"Triangulation(V={len(self._vertices)}, E={len(self._edges)}, "
            f"F={len(self._faces)})"
        )


# ----------------------------------------------------------------------
# text format: one face record per line, '#' starts a comment


def _records(text: str):
    """Each record of a line format as (line number, fields, raw line): '#'
    begins a comment running to the end of the line, and a line with no
    field holds no record."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if parts:
            yield lineno, parts, raw


def _integer(field: str) -> int | None:
    """The integer a record field spells in decimal digits, -?[0-9]+, or
    None; int() alone would also read 1_1, +4 and non-ASCII digits."""
    decimal = field.isdigit() or field[:1] == "-" and field[1:].isdigit()
    return int(field) if decimal and field.isascii() else None


def parse_triangulation(text: str) -> Triangulation:
    """Parse the face-list text format.

    Each non-blank line holds one record; 'f <v1> <v2> <v3>' declares a face.
    '#' begins a comment running to the end of the line.  Errors name the
    offending line.  Validation is not applied here.
    """
    lineno, parts = 0, []

    def faces():
        # the constructor takes each face as it comes, so the record last
        # read is the one it fails on
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
        # split tokens are valid tokens, so the face repeats a vertex or a face
        if len(set(parts[1:])) != 3:
            raise ParseError(f"line {lineno}: face has a repeated vertex") from None
        raise ParseError(f"line {lineno}: duplicate face {' '.join(sorted(parts[1:]))}") from None


def serialize_triangulation(t: Triangulation) -> str:
    """Render the face list; parse(serialize(t)) reproduces t's face list."""
    return "".join(f"f {a} {b} {c}\n" for a, b, c in t.faces)
