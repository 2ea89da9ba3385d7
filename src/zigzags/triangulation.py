"""Closed surface triangulations as plain combinatorics on vertex tokens.

A triangulation is an ordered list of triangular faces, each an unordered
triple of vertex tokens.  Tokens are opaque non-empty strings without
whitespace or '#'; every ordering used anywhere in the package is plain
lexicographic order on tokens, which keeps all derived data deterministic.

Faces are stored as sorted 3-tuples, edges as sorted 2-tuples.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import chain

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


def _is_token(tok) -> bool:
    """Whether tok can name a vertex: a non-empty string with no whitespace
    and no '#', which starts a comment in the text formats."""
    # str.split() splits at exactly the characters for which isspace() holds
    return isinstance(tok, str) and tok.split() == [tok] and "#" not in tok


def _check_token(tok: str) -> str:
    if not isinstance(tok, str) or not tok:
        raise TriangulationError(f"vertex token must be a non-empty string, got {tok!r}")
    if not _is_token(tok):
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


def _link_walk(v: str, faces, edge_faces: dict) -> list[str] | None:
    """The link of v in walk order, or None when it is not one cycle, also
    for no face.  faces are the faces at v and edge_faces an edge index
    over them (edge key -> the faces holding it).  The walk goes around v
    from its first face, crossing each edge (v, y) to its other face; it
    fails on an edge at v outside two faces.  Every link vertex it passes
    then has two faces at v, so it cannot meet one twice before it closes,
    and it visits one link cycle's faces: v's whole link exactly when it
    visits each face at v."""
    if not faces:
        return None
    f = faces[0]
    a, b, c = f
    x, y = (b, c) if a == v else (a, c) if b == v else (a, b)
    link = [x]
    while y != x:
        link.append(y)
        try:
            g, h = edge_faces[(v, y) if v < y else (y, v)]
        except ValueError:  # the edge lies in other than two faces
            return None
        f = h if g == f else g
        a, b, c = f
        y = a if a != v and a != y else b if b != v and b != y else c
    return link if len(link) == len(faces) else None


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

    Derived data kept per instance: the report of validate(); the zigzags
    of engine.enumerate_zigzags, or of the audit that proves a glued walk
    the only one (engine._audit_sole_zigzag); the table of each edge's two
    passes over those zigzags, keyed by edge (engine._pass_table); and the
    last orientation of those zigzags that engine.classify classified: its
    bits, its four type dicts and the facts dict its classifications share,
    which holds its homogeneity once read and its eulerian.DirectedEmbedding
    once extracted.  A glued or built surface keeps them as a parsed one
    does.  Only engine.classify reads or writes that last entry.  None
    refers back to the instance.  No corner table is kept: each zigzag walk
    builds its own (engine._corner_table).
    """

    def __init__(self, faces) -> None:
        stored: list[tuple[str, str, str]] = []
        seen: set[tuple[str, str, str]] = set()
        tokens: set[str] = set()
        for f in faces:
            trio = tuple(f)
            for tok in trio:
                # a non-string may be unhashable: check it before any lookup
                if type(tok) is not str or tok not in tokens:
                    tokens.add(_check_token(tok))
            if len(trio) != 3:
                raise TriangulationError(f"face must have 3 vertices, got {trio!r}")
            # face_key inline: a three-way sort
            a, b, c = trio
            if a > b:
                a, b = b, a
            if b > c:
                b, c = c, b
                if a > b:
                    a, b = b, a
            if a == b or b == c:
                raise TriangulationError(f"face vertices must be pairwise distinct, got {trio!r}")
            key = (a, b, c)
            if key in seen:
                raise TriangulationError(f"duplicate face {key!r}")
            seen.add(key)
            stored.append(key)
        # swept in sorted order, each cell takes its faces already sorted: a
        # vertex's grow in a list, made a tuple once, so a vertex of degree d
        # costs O(d); an edge's, two at most, grow as a tuple, each of the
        # face's three edges taking the one tuple (f,)
        edge_faces: dict[tuple[str, str], tuple] = {}
        stars: defaultdict[str, list] = defaultdict(list)
        cell = edge_faces.get
        for f in sorted(stored):
            a, b, c = f
            stars[a].append(f)
            stars[b].append(f)
            stars[c].append(f)
            one = (f,)
            for e in (a, b), (a, c), (b, c):
                edge_faces[e] = cell(e, ()) + one
        vertex_faces = dict(zip(stars, map(tuple, stars.values())))
        self._set_fields(tuple(stored), seen, edge_faces, vertex_faces)

    @classmethod
    def _indexed(cls, faces, edge_faces: dict, vertex_faces: dict) -> "Triangulation":
        """The triangulation on a list of face keys, taking over an edge and
        a vertex index already built for them in the form the constructor's
        sweep leaves its own in: cell -> its faces as a sorted tuple.  A
        caller that grows its indexes unsorted (surgery._Surface) sorts each
        cell once to hand them over.  Nothing is checked here: validate()
        runs in full on first use."""
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
        self._passes: dict | None = None
        self._classified: tuple | None = None  # (bits, four type dicts, facts)

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
        if edge_key(*e1) == edge_key(*e2):
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
        equal links compare equal.  The link is walked across the edge index
        (_link_walk), the walk validate and every link test of a glue make."""
        walk = _link_walk(v, self.vertex_faces(v), self._edge_faces)
        if walk is None:
            raise TriangulationError(f"link of vertex {v!r} is not a single cycle")
        i = walk.index(min(walk))
        walk = walk[i:] + walk[:i]
        return tuple(walk[:1] + walk[:0:-1] if walk[-1] < walk[1] else walk)

    def euler_characteristic(self) -> int:
        return len(self._vertices) - len(self._edges) + len(self._faces)

    def validate(self) -> ValidationReport:
        """Check the closed-surface conditions; violations come back as data.

        Each edge must lie in two faces, the edge graph must be connected,
        and each vertex link must be one cycle.  Each link is walked once
        (_link_walk), and the search for the first vertex's component
        (_reachable) goes from a vertex to the link it walked, or to every
        vertex of its faces when the walk failed.  The report is kept."""
        if self._report is not None:
            return self._report
        violations: list[str] = []
        if not self._faces:
            violations.append("no faces")
        edge_faces, vertex_faces = self._edge_faces, self._vertex_faces
        violations += _edge_violations(edge_faces, self._edges)
        links = {v: _link_walk(v, faces, edge_faces) for v, faces in vertex_faces.items()}
        if links:
            reached = len(_reachable(
                self._vertices[0], lambda v: links[v] or chain.from_iterable(vertex_faces[v])
            ))
            if reached != len(links):
                violations.append(f"graph disconnected: reached {reached} of {len(links)} vertices")
        violations += _link_violations(self._vertices, lambda v: links[v] is not None)
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

    The text is split into records in one pass, and the constructor takes
    the faces of all of them at once; only a record at fault, which the
    constructor or the record type rejects, sends the parse back over the
    text, record by record, to name the first such line.
    """
    # each record's fields; one of another type goes in as no face, which the
    # constructor rejects
    lines = text.splitlines()
    faces = [r[1:] if r[0] == "f" else () for raw in lines if (r := raw.partition("#")[0].split())]
    try:
        return Triangulation(faces)
    except TriangulationError as exc:
        error = exc
    # some record is at fault: the first one is named
    seen = set()
    for lineno, parts, _ in _records(text):
        if parts[0] != "f":
            raise ParseError(f"line {lineno}: unknown record type {parts[0]!r}")
        if len(parts) != 4:
            raise ParseError(f"line {lineno}: face record needs 3 vertices, got {len(parts) - 1}")
        # split tokens are valid tokens, so the face repeats a vertex or a face
        key = tuple(sorted(parts[1:]))
        if len(set(key)) != 3:
            raise ParseError(f"line {lineno}: face has a repeated vertex")
        if key in seen:
            raise ParseError(f"line {lineno}: duplicate face {' '.join(key)}")
        seen.add(key)
    raise error  # no record named: the constructor's own error stands


def serialize_triangulation(t: Triangulation) -> str:
    """Render the face list; parse(serialize(t)) reproduces t's face list."""
    return "".join(f"f {a} {b} {c}\n" for a, b, c in t.faces)
