"""Zigzag traversal, z-orientations, and edge/vertex/face type structure.

A zigzag is an orbit of the deterministic successor map on states.  A state
is an ordered pair (prev, cur) of distinct edges lying in a common face F;
its successor is (cur, nxt) where nxt is the unique edge of the other face
of cur that shares no vertex with prev.  Walking an orbit and recording, for
each state, the directed pass of its cur edge (entering at the vertex shared
with prev) yields the zigzag as a cyclic sequence of directed edge passes.

Every orbit has a disjoint reversal orbit, so zigzags come in reversal
pairs; a z-orientation chooses one direction from each pair.  Under a
z-orientation each edge is passed exactly twice: in opposite directions
(type I) or twice in the same direction (type II, which then carries that
direction).  A vertex is type I when all its edges are; a face is type I
(two type-I edges and one type-II edge) or type II (three type-II edges
forming a directed cycle) - anything else indicates a bug upstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, NamedTuple

from ._cyclic import least_rotation
from .triangulation import Triangulation, TriangulationError, edge_key

__all__ = [
    "Pass",
    "make_pass",
    "Zigzag",
    "zigzag_successor",
    "zigzag_predecessor",
    "enumerate_zigzags",
    "is_z_knotted",
    "ZOrientation",
    "make_z_orientation",
    "all_z_orientations",
    "Classification",
    "classify",
    "face_shadow",
    "is_homogeneous",
    "format_zigzags",
    "format_classification",
]

Edge = tuple[str, str]
State = tuple[Edge, Edge]


class Pass(NamedTuple):
    """One directed traversal of an edge.

    The canonical edge comes first so that tuple comparison orders passes by
    (edge, src, dst), the order all canonical forms are defined over.
    """

    edge: Edge
    src: str
    dst: str

    def flipped(self) -> "Pass":
        return Pass(self.edge, self.dst, self.src)

    def __str__(self) -> str:
        return f"{self.src}>{self.dst}"


def make_pass(src: str, dst: str) -> Pass:
    return Pass(edge_key(src, dst), src, dst)


@dataclass(frozen=True)
class Zigzag:
    """A cyclic sequence of directed passes, stored at its least rotation.

    Consecutive passes chain dst -> src (cyclically); the constructor checks
    this, so ill-formed assemblies fail fast.  Equality is equality of
    directed cyclic sequences.  The canonical form additionally minimizes
    over the reversal and is what enumeration reports.
    """

    passes: tuple[Pass, ...]

    def __post_init__(self) -> None:
        if not self.passes:
            raise ValueError("a zigzag has at least one pass")
        for p in self.passes:
            if p.edge != edge_key(p.src, p.dst):
                raise ValueError(f"pass {p!r} is inconsistent with its edge")
        n = len(self.passes)
        for i, p in enumerate(self.passes):
            if p.dst != self.passes[(i + 1) % n].src:
                raise ValueError(f"passes {i} and {(i + 1) % n} do not chain")
        object.__setattr__(self, "passes", least_rotation(self.passes))

    def __len__(self) -> int:
        return len(self.passes)

    def reverse(self) -> "Zigzag":
        """The same closed walk traversed backwards."""
        return Zigzag(tuple(p.flipped() for p in reversed(self.passes)))

    def canonical(self) -> "Zigzag":
        rev = self.reverse()
        return self if self.passes <= rev.passes else rev

    @property
    def is_canonical(self) -> bool:
        return self.passes <= self.reverse().passes

    def occurrences(self, edge: Edge) -> tuple[int, ...]:
        """Positions at which the (undirected) edge is passed."""
        key = edge_key(*edge)
        return tuple(i for i, p in enumerate(self.passes) if p.edge == key)

    def edge_counts(self) -> dict[Edge, int]:
        counts: dict[Edge, int] = {}
        for p in self.passes:
            counts[p.edge] = counts.get(p.edge, 0) + 1
        return counts

    def __str__(self) -> str:
        return " ".join(str(p) for p in self.passes)


# ----------------------------------------------------------------------
# successor dynamics


def zigzag_successor(t: Triangulation, state: State) -> State:
    """Advance one step; raises if the state's edges share no face."""
    prev, cur = state
    common = t.common_face(prev, cur)
    far = t.other_face(cur, common)
    prev_set = set(prev)
    nxt = [edge_key(u, v) for u, v in _face_edges(far) if not ({u, v} & prev_set)]
    assert len(nxt) == 1, "exactly one edge of the far face must avoid prev"
    return (cur, nxt[0])


def zigzag_predecessor(t: Triangulation, state: State) -> State:
    """Inverse of the successor map."""
    cur, nxt = state
    common = t.common_face(cur, nxt)
    near = t.other_face(cur, common)
    nxt_set = set(nxt)
    prev = [edge_key(u, v) for u, v in _face_edges(near) if not ({u, v} & nxt_set)]
    assert len(prev) == 1
    return (prev[0], cur)


def _face_edges(face) -> tuple[Edge, Edge, Edge]:
    a, b, c = face
    return (edge_key(a, b), edge_key(a, c), edge_key(b, c))


def _pass_of(state: State) -> Pass:
    prev, cur = state
    shared = set(prev) & set(cur)
    assert len(shared) == 1, "consecutive zigzag edges share exactly one vertex"
    src = next(iter(shared))
    dst = cur[0] if cur[1] == src else cur[1]
    return Pass(edge_key(*cur), src, dst)


def enumerate_zigzags(t: Triangulation) -> tuple[Zigzag, ...]:
    """All zigzags of t, one canonical representative per reversal pair.

    Partitions all 6*|F| states into successor orbits.  Output is sorted by
    canonical form and is therefore deterministic.
    """
    t.require_valid()
    states: list[State] = []
    for face in t.faces:
        es = _face_edges(face)
        for a in es:
            for b in es:
                if a != b:
                    states.append((a, b))
    states.sort()

    visited: set[State] = set()
    out: list[Zigzag] = []
    for start in states:
        if start in visited:
            continue
        orbit = [start]
        cur = zigzag_successor(t, start)
        while cur != start:
            orbit.append(cur)
            cur = zigzag_successor(t, cur)
        orbit_set = set(orbit)
        reversal = {(b, a) for (a, b) in orbit}
        assert not (orbit_set & reversal), "a zigzag is never its own reversal"
        visited |= orbit_set | reversal
        out.append(Zigzag(tuple(_pass_of(s) for s in orbit)).canonical())
    out.sort(key=lambda z: z.passes)
    return tuple(out)


def is_z_knotted(t: Triangulation) -> bool:
    """True when a single zigzag (up to reversal) covers the whole surface."""
    return len(enumerate_zigzags(t)) == 1


# ----------------------------------------------------------------------
# z-orientations


@dataclass(frozen=True)
class ZOrientation:
    """A direction choice for every reversal pair of zigzags.

    zigzags holds the canonical representatives in enumeration order; bit i
    selects the canonical direction (0) or its reversal (1).
    """

    zigzags: tuple[Zigzag, ...]
    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.zigzags) != len(self.bits):
            raise ValueError(
                f"expected {len(self.zigzags)} bits, got {len(self.bits)}"
            )
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("bits must be 0 or 1")
        if any(not z.is_canonical for z in self.zigzags):
            raise ValueError("zigzags must be canonical representatives")

    @property
    def k(self) -> int:
        return len(self.zigzags)

    @cached_property
    def chosen(self) -> tuple[Zigzag, ...]:
        return tuple(z if b == 0 else z.reverse() for z, b in zip(self.zigzags, self.bits))

    def reversed(self) -> "ZOrientation":
        return ZOrientation(self.zigzags, tuple(1 - b for b in self.bits))


def make_z_orientation(t: Triangulation, bits) -> ZOrientation:
    """Build the z-orientation selecting each zigzag's direction by bit."""
    return ZOrientation(enumerate_zigzags(t), tuple(int(b) for b in bits))


def all_z_orientations(t: Triangulation) -> Iterator[ZOrientation]:
    """All 2^k z-orientations in lexicographic bit order (guarded to k <= 20)."""
    zs = enumerate_zigzags(t)
    k = len(zs)
    if k > 20:
        raise ValueError(f"refusing to enumerate 2^{k} z-orientations (limit k=20)")
    for m in range(1 << k):
        bits = tuple(int(c) for c in format(m, f"0{k}b")) if k else ()
        yield ZOrientation(zs, bits)


# ----------------------------------------------------------------------
# type structure


@dataclass(frozen=True)
class Classification:
    """Edge, vertex, and face types induced by a z-orientation."""

    edge_types: dict[Edge, str]
    edge_directions: dict[Edge, tuple[str, str]]  # type-II edges only
    vertex_types: dict[str, str]
    face_types: dict[tuple[str, str, str], str]

    @property
    def type_i_vertices(self) -> tuple[str, ...]:
        return tuple(sorted(v for v, kind in self.vertex_types.items() if kind == "I"))

    @property
    def type_ii_edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(e for e, kind in self.edge_types.items() if kind == "II"))


def classify(t: Triangulation, tau: ZOrientation) -> Classification:
    """Classify edges, vertices, and faces under tau.

    Asserts the double-cover property (each edge passed exactly twice) and
    the face dichotomy; a violation of either means a bug, not bad input.
    """
    passes: dict[Edge, list[tuple[str, str]]] = {e: [] for e in t.edges}
    for z in tau.chosen:
        for p in z.passes:
            assert p.edge in passes, f"pass over unknown edge {p.edge!r}"
            passes[p.edge].append((p.src, p.dst))
    assert all(len(v) == 2 for v in passes.values()), "each edge is passed exactly twice"

    edge_types: dict[Edge, str] = {}
    edge_directions: dict[Edge, tuple[str, str]] = {}
    for e, (d1, d2) in passes.items():
        if d1 == d2:
            edge_types[e] = "II"
            edge_directions[e] = d1
        else:
            assert d1 == (d2[1], d2[0])
            edge_types[e] = "I"

    vertex_types = {
        v: "I" if all(edge_types[e] == "I" for e in t.vertex_edges(v)) else "II"
        for v in t.vertices
    }

    face_types: dict[tuple[str, str, str], str] = {}
    for f in t.faces:
        kinds = sorted(edge_types[e] for e in _face_edges(f))
        if kinds == ["I", "I", "II"]:
            face_types[f] = "I"
        else:
            assert kinds == ["II", "II", "II"], f"face {f!r} violates the type dichotomy"
            outs = {edge_directions[e][0] for e in _face_edges(f)}
            ins = {edge_directions[e][1] for e in _face_edges(f)}
            assert outs == ins == set(f), f"type-II face {f!r} is not a directed cycle"
            face_types[f] = "II"
    return Classification(edge_types, edge_directions, vertex_types, face_types)


def face_shadow(t: Triangulation, z: Zigzag) -> tuple[tuple[str, str, str], ...]:
    """The cyclic face sequence of a zigzag.

    Entry i is the common face of passes i and i+1; it is the face the walk
    lies in while turning between the two edges.
    """
    n = len(z.passes)
    return tuple(
        t.common_face(z.passes[i].edge, z.passes[(i + 1) % n].edge) for i in range(n)
    )


def is_homogeneous(t: Triangulation, tau: ZOrientation) -> bool:
    """True when every face is type I and every chosen zigzag repeats II,I,I.

    The cyclic pattern check: the length is divisible by 3 and the type-II
    positions are exactly one residue class mod 3.
    """
    return _homogeneous(classify(t, tau), tau)


def _homogeneous(cls: Classification, tau: ZOrientation) -> bool:
    """is_homogeneous decided from an existing classification under tau."""
    if any(kind != "I" for kind in cls.face_types.values()):
        return False
    for z in tau.chosen:
        n = len(z)
        if n % 3 != 0:
            return False
        twos = [i for i, p in enumerate(z.passes) if cls.edge_types[p.edge] == "II"]
        if len(twos) != n // 3:
            return False
        if len({i % 3 for i in twos}) != 1:
            return False
    return True


# ----------------------------------------------------------------------
# text rendering


def format_zigzags(zs) -> str:
    """One line per zigzag: 'z <index> <length>' then the passes as u>v."""
    return "".join(f"z {i} {len(z)} {z}\n" for i, z in enumerate(zs))


def format_classification(cls: Classification) -> str:
    """Sorted E/V/F record lines for an entire classification."""
    lines = []
    for e in sorted(cls.edge_types):
        if cls.edge_types[e] == "I":
            lines.append(f"E {e[0]} {e[1]} I")
        else:
            src, dst = cls.edge_directions[e]
            lines.append(f"E {e[0]} {e[1]} II {src} {dst}")
    for v in sorted(cls.vertex_types):
        lines.append(f"V {v} {cls.vertex_types[v]}")
    for f in sorted(cls.face_types):
        lines.append(f"F {f[0]} {f[1]} {f[2]} {cls.face_types[f]}")
    return "".join(line + "\n" for line in lines)
