"""Closed surface triangulations as plain combinatorics on vertex tokens.

A triangulation is an ordered list of triangular faces, each an unordered
triple of vertex tokens.  Tokens are opaque non-empty strings without
whitespace or '#'; every ordering used anywhere in the package is plain
lexicographic order on tokens, which keeps all derived data deterministic.

Faces are stored as sorted 3-tuples, edges as sorted 2-tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

__all__ = [
    "ParseError",
    "TriangulationError",
    "ValidationReport",
    "LinkCycle",
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
    if any(c.isspace() for c in tok) or "#" in tok:
        # '#' starts a comment in the text format, so it cannot round-trip
        raise TriangulationError(f"vertex token {tok!r} contains whitespace or '#'")
    return tok


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


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a structural check; empty violations means valid."""

    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        return "valid" if self.ok else "\n".join(self.violations)


@dataclass(frozen=True)
class LinkCycle:
    """The cyclic sequence of neighbors around a vertex.

    The stored rotation starts at the lexicographically least neighbor and
    proceeds toward the lexicographically lesser of its two link-neighbors,
    so equal links always compare equal.
    """

    center: str
    cycle: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.cycle)

    def edges(self) -> tuple[tuple[str, str], ...]:
        """The link's edges as canonical pairs, in cycle order."""
        n = len(self.cycle)
        return tuple(edge_key(self.cycle[i], self.cycle[(i + 1) % n]) for i in range(n))


class Triangulation:
    """An ordered list of triangular faces with derived lookups.

    Instances are immutable by convention: all public attributes are tuples
    and the lookup tables are private.  The constructor rejects faces with
    repeated vertices and duplicate faces; deeper surface conditions (every
    edge in exactly two faces, connectivity, single-cycle vertex links) are
    reported by validate().
    """

    def __init__(self, faces) -> None:
        stored: list[tuple[str, str, str]] = []
        seen: set[tuple[str, str, str]] = set()
        for f in faces:
            trio = tuple(_check_token(t) for t in f)
            if len(trio) != 3:
                raise TriangulationError(f"face must have 3 vertices, got {trio!r}")
            key = face_key(*trio)
            if key in seen:
                raise TriangulationError(f"duplicate face {key!r}")
            seen.add(key)
            stored.append(key)
        self._faces: tuple[tuple[str, str, str], ...] = tuple(stored)

        edge_faces: dict[tuple[str, str], list] = {}
        vertex_faces: dict[str, list] = {}
        for f in self._faces:
            for v in f:
                vertex_faces.setdefault(v, []).append(f)
            for u, v in combinations(f, 2):
                edge_faces.setdefault(edge_key(u, v), []).append(f)
        self._edge_faces = {e: tuple(sorted(fs)) for e, fs in edge_faces.items()}
        self._vertex_faces = {v: tuple(sorted(fs)) for v, fs in vertex_faces.items()}
        self._vertices = tuple(sorted(self._vertex_faces))
        self._edges = tuple(sorted(self._edge_faces))
        self._report: ValidationReport | None = None

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

    def vertex_edges(self, v: str) -> tuple[tuple[str, str], ...]:
        return tuple(sorted({edge_key(v, u) for f in self.vertex_faces(v) for u in f if u != v}))

    def neighbors(self, v: str) -> tuple[str, ...]:
        return tuple(sorted({u for f in self.vertex_faces(v) for u in f if u != v}))

    def degree(self, v: str) -> int:
        return len(self.neighbors(v))

    def has_face(self, face) -> bool:
        key = face_key(*face)
        return key in self._edge_faces.get(key[:2], ())

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
        assert len(both) == 1
        return next(iter(both))

    def other_face(self, edge, face) -> tuple[str, str, str]:
        """The face on the other side of edge; requires the edge to lie in two faces."""
        fs = self.edge_faces(edge)
        key = face_key(*face)
        if key not in fs:
            raise TriangulationError(f"face {face!r} does not contain edge {edge!r}")
        if len(fs) != 2:
            raise TriangulationError(f"edge {edge!r} lies in {len(fs)} face(s), expected 2")
        return fs[0] if fs[1] == key else fs[1]

    # ------------------------------------------------------------------
    # structure

    def _link_cycle(self, v: str) -> tuple[str, ...] | None:
        """The link of v walked from its least vertex toward the lesser of that
        vertex's two link-neighbors; None unless the link is a single cycle."""
        adj: dict[str, list[str]] = {}
        n_edges = 0
        for f in self.vertex_faces(v):
            x, y = (t for t in f if t != v)
            adj.setdefault(x, []).append(y)
            adj.setdefault(y, []).append(x)
            n_edges += 1
        if any(len(nb) != 2 for nb in adj.values()) or n_edges != len(adj):
            return None
        # degree-2 everywhere still allows several disjoint cycles
        start = min(adj)
        cycle = [start, min(adj[start])]
        while True:
            a, b = adj[cycle[-1]]
            step = b if a == cycle[-2] else a
            if step == start:
                break
            cycle.append(step)
        return tuple(cycle) if len(cycle) == len(adj) else None

    def vertex_link(self, v: str) -> LinkCycle:
        """The link of v as a single cycle; error if the link is not one cycle."""
        cycle = self._link_cycle(v)
        if cycle is None:
            raise TriangulationError(f"link of vertex {v!r} is not a single cycle")
        return LinkCycle(v, cycle)

    def euler_characteristic(self) -> int:
        return len(self._vertices) - len(self._edges) + len(self._faces)

    def validate(self) -> ValidationReport:
        """Check the closed-surface conditions; violations come back as data."""
        if self._report is not None:
            return self._report
        violations: list[str] = []
        if not self._faces:
            violations.append("no faces")
        for e in self._edges:
            k = len(self._edge_faces[e])
            if k != 2:
                violations.append(f"edge {e[0]}-{e[1]} lies in {k} face(s), expected 2")
        if self._vertices:
            seen = {self._vertices[0]}
            stack = [self._vertices[0]]
            while stack:
                for u in self.neighbors(stack.pop()):
                    if u not in seen:
                        seen.add(u)
                        stack.append(u)
            if len(seen) != len(self._vertices):
                violations.append(
                    f"graph disconnected: reached {len(seen)} of {len(self._vertices)} vertices"
                )
        for v in self._vertices:
            if self._link_cycle(v) is None:
                violations.append(f"link of vertex {v} is not a single cycle")
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


def parse_triangulation(text: str) -> Triangulation:
    """Parse the face-list text format.

    Each non-blank line holds one record; 'f <v1> <v2> <v3>' declares a face.
    '#' begins a comment running to the end of the line.  Errors name the
    offending line.  Validation is not applied here.
    """
    faces: list[tuple[str, ...]] = []
    seen: set[tuple[str, str, str]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] != "f":
            raise ParseError(f"line {lineno}: unknown record type {parts[0]!r}")
        if len(parts) != 4:
            raise ParseError(f"line {lineno}: face record needs 3 vertices, got {len(parts) - 1}")
        trio = tuple(parts[1:])
        if len(set(trio)) != 3:
            raise ParseError(f"line {lineno}: face has a repeated vertex")
        key = tuple(sorted(trio))
        if key in seen:
            raise ParseError(f"line {lineno}: duplicate face {' '.join(key)}")
        seen.add(key)
        faces.append(trio)
    return Triangulation(faces)


def serialize_triangulation(t: Triangulation) -> str:
    """Render the face list; parse(serialize(t)) reproduces t's face list."""
    return "".join(f"f {a} {b} {c}\n" for a, b, c in t.faces)
