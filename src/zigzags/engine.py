"""Zigzag traversal, z-orientations, and edge/vertex/face type structure.

A zigzag is an orbit of the deterministic successor map on states.  A state
is an ordered pair (prev, cur) of distinct edges lying in a common face F;
its successor is (cur, nxt) where nxt is the unique edge of the other face
of cur that shares no vertex with prev.  Walking an orbit and recording, for
each state, the directed pass of its cur edge (entering at the vertex shared
with prev) yields the zigzag as a cyclic sequence of directed edge passes.

enumerate_zigzags walks the same orbits in vertex form.  The state
(prev, cur) is (s, d, x): the pass s->d over cur, reached from the face
F = {s, d, x}, so prev = {s, x}.  The other face of cur is {s, d, y}, its
edge avoiding prev is {d, y}, and the successor is (d, y, s); the reversal
(cur, prev) is (s, x, d).  The corner table (_corner_table) maps each
directed edge (s, d) and the apex x of one of its faces to the apex y of
the other, so a walk step is one dict lookup.  Only the two walks here
build one, each its own: enumeration, which marks each state it walks in
the table itself, and a glued surface's audit, which keeps the walk it
proves to be t's only zigzag as t's enumeration.

Every orbit has a disjoint reversal orbit, so zigzags come in reversal
pairs; a z-orientation chooses one direction from each pair.  classify
takes only z-orientations of t's own zigzags, t's enumeration or an equal
copy of it, and raises TriangulationError for any other.  Under a
z-orientation each edge is passed exactly twice: in opposite directions
(type I) or twice in the same direction (type II, which then carries that
direction).  A vertex is type I when all its edges are; a face is type I
(two type-I edges and one type-II edge) or type II (three type-II edges
forming a directed cycle) - anything else indicates a bug upstream.

An orientation is homogeneous when every chosen zigzag reads II,I,I;
every face is then type I (Classification.homogeneous).  is_homogeneous
first reads the types of each zigzag's first six passes off t's pass
table, and rejects without classifying an orientation under which some
zigzag cannot read so.  It rejects nothing the definition admits, so a
search over orientations classifies only those that pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from typing import Iterator, NamedTuple

from .triangulation import Triangulation, TriangulationError, _face_edges, edge_key

__all__ = [
    "Pass",
    "make_pass",
    "Zigzag",
    "zigzag_successor",
    "enumerate_zigzags",
    "is_z_knotted",
    "ZOrientation",
    "make_z_orientation",
    "all_z_orientations",
    "Classification",
    "classify",
    "face_shadow",
    "is_homogeneous",
]

Edge = tuple[str, str]
State = tuple[Edge, Edge]


class InvariantError(AssertionError):
    """A result the construction guarantees failed its check: a bug, not bad
    input.  Raised explicitly, so the check survives python -O."""


class Pass(NamedTuple):
    """One directed traversal of an edge.

    The canonical edge comes first so that tuple comparison orders passes by
    (edge, src, dst), the order all canonical forms are defined over.
    """

    edge: Edge
    src: str
    dst: str

    def __str__(self) -> str:
        return f"{self.src}>{self.dst}"


def make_pass(src: str, dst: str) -> Pass:
    return Pass(edge_key(src, dst), src, dst)


def _make_passes(triples) -> tuple[Pass, ...]:
    """Passes from (edge, src, dst) triples, each made by tuple.__new__ in C
    rather than through Pass.__new__, which is a Python function."""
    return tuple(map(tuple.__new__, repeat(Pass), triples))


def _least_rotation(seq) -> tuple:
    """seq rotated to start at its least item's first occurrence, or at its
    second when the item occurs twice and that rotation is less.  That is
    the least rotation whenever the least item occurs at most twice, as in
    every zigzag of a triangulation (each edge is passed twice in all) and
    every face cycle validate_embedding accepts; with three or more
    occurrences it starts at the first."""
    s = tuple(seq)
    if not s:
        return s
    m = min(s)
    i = s.index(m)
    first = s[i:] + s[:i]
    if s.count(m) != 2:
        return first
    j = s.index(m, i + 1)
    return min(first, s[j:] + s[:j])


_NO_KEY = object()


@dataclass(frozen=True)
class Zigzag:
    """A cyclic sequence of directed passes, stored at its least rotation.

    Consecutive passes chain dst -> src (cyclically); the constructor checks
    this, so ill-formed assemblies fail fast.  Equality is equality of
    directed cyclic sequences.  The canonical form additionally minimizes
    over the reversal and is what enumeration reports.

    A walk that passes its least pass three or more times, which no zigzag
    of a triangulation does, is kept, stored at that pass's first
    occurrence (_least_rotation): a glued walk is built before its audit
    (_audit_sole_zigzag), which names such a fault as an InvariantError.
    """

    passes: tuple[Pass, ...]

    def __post_init__(self) -> None:
        passes = self.passes
        if not passes:
            raise ValueError("a zigzag has at least one pass")
        for p in passes:
            e, s, d = p
            if e != ((s, d) if s < d else (d, s) if d < s else _NO_KEY):
                edge_key(s, d)  # a loop (src == dst) has no key: edge_key rejects it
                raise ValueError(f"pass {p!r} is inconsistent with its edge")
        srcs = [p.src for p in passes]
        if [p.dst for p in passes] != srcs[1:] + srcs[:1]:
            n = len(passes)
            i = next(i for i, p in enumerate(passes) if p.dst != srcs[(i + 1) % n])
            raise ValueError(f"passes {i} and {(i + 1) % n} do not chain")
        object.__setattr__(self, "passes", _least_rotation(passes))

    def __len__(self) -> int:
        return len(self.passes)

    def reverse(self) -> "Zigzag":
        """The same closed walk traversed backwards."""
        passes = _make_passes([(e, d, s) for e, s, d in reversed(self.passes)])
        # __post_init__'s checks cannot fail here: flipping a pass keeps its
        # edge key, and passes that chain dst -> src chain again when each is
        # flipped and their order reversed.  Only the least rotation is new.
        rev = object.__new__(Zigzag)
        object.__setattr__(rev, "passes", _least_rotation(passes))
        return rev

    def canonical(self) -> "Zigzag":
        """The lesser of the zigzag and its reversal by passes.

        Both start at their least pass, which lies on the least edge e.
        When the zigzag passes e only with its key, it starts with that
        pass and its reversal cannot, so it is the lesser; when it passes e
        only against its key, the reversal is.  Only an e passed both ways
        needs the full comparison."""
        e, s, d = self.passes[0]
        if s != e[0]:
            return self.reverse()
        if (e, d, s) not in self.passes:
            return self
        rev = self.reverse()
        return self if self.passes <= rev.passes else rev

    @property
    def is_canonical(self) -> bool:
        return self.canonical() is self

    def occurrences(self, edge: Edge) -> tuple[int, ...]:
        """Positions at which the (undirected) edge is passed."""
        key = edge_key(*edge)
        return tuple(i for i, p in enumerate(self.passes) if p.edge == key)

    def __str__(self) -> str:
        return " ".join(str(p) for p in self.passes)


# ----------------------------------------------------------------------
# successor dynamics


def zigzag_successor(t: Triangulation, state: State) -> State:
    """Advance one step; raises if the state's edges share no face or its
    cur edge does not lie in two faces."""
    prev, cur = state
    common = t.common_face(prev, cur)
    fs = t.edge_faces(cur)
    if len(fs) != 2:
        raise TriangulationError(f"edge {cur!r} lies in {len(fs)} face(s), expected 2")
    far = fs[0] if fs[1] == common else fs[1]
    prev_set = set(prev)
    # far's apex is not common's, prev's far end, so just one edge of far avoids prev
    nxt = [e for e in _face_edges(far) if prev_set.isdisjoint(e)]
    return (cur, nxt[0])


def _corner_table(edge_faces: dict) -> dict[tuple[str, str, str], str]:
    """(s, d, x) -> y for each face {s, d, x} whose edge {s, d} lies in
    exactly one other face, {s, d, y}; edges in 1 or 3+ faces have none."""
    across = {}
    for (u, v), faces in edge_faces.items():
        if len(faces) == 2:
            # faces and edges are sorted, so the apex is the first vertex off u, v
            (a, b, c), (p, q, r) = faces
            x = a if a != u else b if b != v else c
            y = p if p != u else q if q != v else r
            across[u, v, x] = across[v, u, x] = y
            across[u, v, y] = across[v, u, y] = x
    return across


def enumerate_zigzags(t: Triangulation) -> tuple[Zigzag, ...]:
    """All zigzags of t, one canonical representative per reversal pair.

    Partitions all 6*|F| states into successor orbits.  Each orbit is
    walked once, on a corner table built for this walk, which it marks as
    it goes: each state walked has its entry set to None, so no visited set
    and no list of states is kept.  A state is skipped when its entry or
    its reversal's is None, a walk that meets a None entry other than its
    start's raises InvariantError, and the walk stops once the orbits and
    their reversals cover all 6*|F| states.  Output is sorted by canonical
    form and is therefore deterministic.  It is computed once per
    triangulation and kept on t: a later call returns the same tuple.
    """
    if t._zigzags is not None:
        return t._zigzags
    t.require_valid()
    across = _corner_table(t._edge_faces)
    walked = 0
    out: list[Zigzag] = []
    for start in across:
        s, d, x = start
        if across[start] is None or across[s, x, d] is None:
            continue
        triples, state, y = [], start, across[start]
        while y is not None:
            a, b, _ = state
            across[state] = None
            triples.append(((a, b) if a < b else (b, a), a, b))
            state = (b, y, a)
            y = across[state]
        # the walk stops at the first state already walked: closed at its
        # start, or reaching a state twice, which no surface's table does
        if state != start:
            raise InvariantError(f"a zigzag walk reaches the state {state} twice")
        walked += len(triples)
        # reversing turns the successor into its inverse, so it maps whole
        # orbits onto orbits: this one is its own reversal exactly when it
        # holds the reversal of its start
        if across[s, x, d] is None:
            raise InvariantError("a zigzag is never its own reversal")
        out.append(Zigzag(_make_passes(triples)).canonical())
        if 2 * walked == len(across):
            break
    out.sort(key=lambda z: z.passes)
    t._zigzags = tuple(out)
    return t._zigzags


def is_z_knotted(t: Triangulation) -> bool:
    """True when a single zigzag (up to reversal) covers the whole surface."""
    return len(enumerate_zigzags(t)) == 1


# ----------------------------------------------------------------------
# z-orientations


@dataclass(frozen=True)
class ZOrientation:
    """A direction choice for every reversal pair of zigzags.

    zigzags holds the canonical representatives in enumeration order, kept
    as a tuple; bit i selects the canonical direction (0) or its reversal
    (1).  Bits equal to 0 or 1, such as False, True, 0.0 or 1.0, are kept
    as the ints 0 and 1 (_checked_bits), whichever constructor built the
    orientation.
    """

    zigzags: tuple[Zigzag, ...]
    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "zigzags", tuple(self.zigzags))
        object.__setattr__(self, "bits", _checked_bits(self.zigzags, self.bits))
        if any(not z.is_canonical for z in self.zigzags):
            raise ValueError("zigzags must be canonical representatives")

    @cached_property
    def chosen(self) -> tuple[Zigzag, ...]:
        return tuple(z if b == 0 else z.reverse() for z, b in zip(self.zigzags, self.bits))

    def reversed(self) -> "ZOrientation":
        return _oriented(self.zigzags, tuple(1 - b for b in self.bits))


def _checked_bits(zs: tuple[Zigzag, ...], bits) -> tuple[int, ...]:
    """bits as a tuple of the ints 0 and 1, one per zigzag of zs; raises
    TriangulationError for a wrong count or a bit equal to neither."""
    bits = tuple(bits)
    if len(zs) != len(bits):
        raise TriangulationError(f"expected {len(zs)} bits, got {len(bits)}")
    if any(b not in (0, 1) for b in bits):
        raise TriangulationError("bits must be 0 or 1")
    return tuple(map(int, bits))


def _oriented(zs: tuple[Zigzag, ...], bits) -> ZOrientation:
    """ZOrientation(zs, bits) for zigzags from enumerate_zigzags or another
    orientation: they are canonical, so the is_canonical check, which may
    build reversals, cannot fail and is skipped.  The bits are checked and
    kept as ZOrientation keeps them."""
    tau = object.__new__(ZOrientation)
    object.__setattr__(tau, "zigzags", zs)
    object.__setattr__(tau, "bits", _checked_bits(zs, bits))
    return tau


def make_z_orientation(t: Triangulation, bits) -> ZOrientation:
    """Build the z-orientation selecting each zigzag of t's enumeration by bit."""
    return _oriented(enumerate_zigzags(t), bits)


def _orient_along(zs: tuple[Zigzag, ...], arcs) -> ZOrientation:
    """The z-orientation of zs passing each arc (src, dst) from src to dst.

    Raises InvariantError when a zigzag passes no arc, or arcs both ways.
    """
    direction = {edge_key(*a): a for a in arcs}
    bits = []
    for i, z in enumerate(zs):
        # the reversal flips every pass: bit 1 when all passes run against
        along = {(s, d) == direction[e] for e, s, d in z.passes if e in direction}
        if len(along) != 1:
            raise InvariantError(f"zigzag {i} does not pass the directed edges all one way")
        bits.append(0 if True in along else 1)
    return _oriented(zs, tuple(bits))


def all_z_orientations(t: Triangulation) -> Iterator[ZOrientation]:
    """All 2^k z-orientations in lexicographic bit order (guarded to k <= 20)."""
    zs = enumerate_zigzags(t)
    k = len(zs)
    if k > 20:
        raise ValueError(f"refusing to enumerate 2^{k} z-orientations (limit k=20)")
    for m in range(1 << k):
        bits = tuple(int(c) for c in format(m, f"0{k}b")) if k else ()
        yield _oriented(zs, bits)


# ----------------------------------------------------------------------
# type structure


@dataclass(frozen=True)
class Classification:
    """The analysis of one triangulation under one of its z-orientations.

    classify(t, tau) builds it with the edge, vertex, and face types.
    Homogeneity and the edge -> pass positions are derived on first use and
    kept, so every holder of the classification shares them.  The face a
    pass enters is read off the chosen walk by _turn where it is needed.

    The homogeneity, and once extracted the eulerian.DirectedEmbedding, are
    kept in the facts dict _facts.  Classifications of t under the same
    bits, while t keeps them, share their four type dicts and their facts
    (see classify), so treat the dicts as read-only.
    """

    triangulation: Triangulation
    orientation: ZOrientation
    edge_types: dict[Edge, str]
    edge_directions: dict[Edge, tuple[str, str]]  # type-II edges only
    vertex_types: dict[str, str]
    face_types: dict[tuple[str, str, str], str]
    _facts: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def type_i_vertices(self) -> tuple[str, ...]:
        return tuple(sorted(v for v, kind in self.vertex_types.items() if kind == "I"))

    @property
    def type_ii_edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(e for e, kind in self.edge_types.items() if kind == "II"))

    @property
    def homogeneous(self) -> bool:
        """True when every chosen zigzag reads II,I,I: its length is a
        multiple of 3, and its types repeat II,I,I from its first type-II
        pass.  Every face is then type I (_homogeneity_scan).  Reversing a
        zigzag reverses its type sequence, which keeps both conditions, so
        the canonical zigzags answer for the chosen ones unreversed.

        The verdict is kept in the facts, so each (t, bits) is scanned
        once (see classify)."""
        facts = self._facts
        if "homogeneous" not in facts:
            facts["homogeneous"] = _homogeneity_scan(self)
        return facts["homogeneous"]

    @cached_property
    def pass_positions(self) -> dict[Edge, list[tuple[int, int]]]:
        """Edge -> its passes as (chosen zigzag index, position), in walk order."""
        where: dict[Edge, list[tuple[int, int]]] = {}
        for zi, z in enumerate(self.orientation.chosen):
            for i, p in enumerate(z.passes):
                where.setdefault(p.edge, []).append((zi, i))
        return where


def _reads_ii_i_i(n: int, ii: list) -> bool:
    """Whether a zigzag of n passes, whose passes read type II where ii is
    true, can read II,I,I: n is divisible by 3, and ii holds one type II in
    its first three passes and has period 3.  ii may be a prefix of the
    zigzag's types, which the rule then tests only so far."""
    return n % 3 == 0 and sum(ii[:3]) == 1 and ii[3:] == ii[:-3]


def _homogeneity_scan(cls: Classification) -> bool:
    """Classification.homogeneous, read off the zigzags alone: each type
    sequence reads II,I,I (_reads_ii_i_i).  No face type is read: such
    walks make a third of the 2E = 3F passes type II, so F/2 edges are type
    II, and they lie in F faces counted with multiplicity.  classify has checked that each face
    holds one or three, so each face holds exactly one."""
    directions = cls.edge_directions
    return all(
        _reads_ii_i_i(len(z), [e in directions for e, _, _ in z.passes])
        for z in cls.orientation.zigzags
    )


def _pass_table(t: Triangulation) -> dict[Edge, tuple]:
    """e -> (i, f, j, g) for each edge e of t, in t.edges order: zigzags i
    and j of t's enumeration pass e, with e's key when f (g) is True.

    Built once, from t's zigzags alone, and kept on t.  Its rows are
    tuples of ints and bools, which the cyclic collector stops tracking;
    lists it would keep scanning.  Raises TriangulationError unless each
    edge is passed exactly twice (double cover)."""
    if t._passes is not None:
        return t._passes
    slots: dict[Edge, list] = {e: [] for e in t.edges}
    row = slots.__getitem__
    for i, z in enumerate(enumerate_zigzags(t)):
        for e, src, _ in z.passes:
            cell = row(e)
            cell.append(i)
            cell.append(src == e[0])
    if any(len(cell) != 4 for cell in slots.values()):
        raise TriangulationError("each edge is passed exactly twice")
    t._passes = dict(zip(slots, map(tuple, slots.values())))
    return t._passes


def _require_own(t: Triangulation, tau: ZOrientation) -> None:
    """Raise TriangulationError unless tau's zigzags are t's enumeration:
    the same tuple, or the same zigzags in the same order.  The message
    names the zigzag count when it differs, else the first zigzag that is
    not t's.  enumerate_zigzags checks t's validity on its first call."""
    zs, own = enumerate_zigzags(t), tau.zigzags
    if own is zs or own == zs:
        return
    if len(own) != len(zs):
        raise TriangulationError(
            f"the z-orientation's zigzag count {len(own)} is not the triangulation's {len(zs)}"
        )
    i = next(i for i, (z, mine) in enumerate(zip(own, zs)) if z != mine)
    raise TriangulationError(f"zigzag {i} of the z-orientation is not the triangulation's zigzag {i}")


def classify(t: Triangulation, tau: ZOrientation) -> Classification:
    """Classify edges, vertices, and faces under tau, an orientation of t's
    own zigzags.

    Raises TriangulationError when t is no closed surface (a cached check,
    so every Classification is of one), when tau's zigzags are not t's
    enumeration (_require_own), for an edge not passed exactly twice
    (double cover, checked once per t by _pass_table), and for a face that
    is neither type I nor a directed type-II cycle, which by the paper no
    orientation of t's own zigzags has.  Types are read off the bits.

    t keeps the bits, the type dicts and the facts dict of the last
    orientation classified, and every classification of those bits shares
    them.  No other function reads or writes what t keeps.
    """
    _require_own(t, tau)
    bits, last = tau.bits, t._classified
    if last is not None and last[0] == bits:
        return Classification(t, tau, *last[1:])
    edge_types: dict[Edge, str] = {}
    edge_directions: dict[Edge, tuple[str, str]] = {}
    for e, (i, f, j, g) in _pass_table(t).items():
        # a reversed zigzag passes each edge the other way; two passes over
        # one edge either agree (type II) or run opposite ways
        if f ^ bits[i] == g ^ bits[j]:
            edge_types[e] = "II"
            edge_directions[e] = e if f ^ bits[i] else (e[1], e[0])
        else:
            edge_types[e] = "I"

    # a vertex is type II exactly when a type-II edge ends at it
    vertex_types = dict.fromkeys(t.vertices, "I")
    for u, v in edge_directions:
        vertex_types[u] = vertex_types[v] = "II"

    face_types: dict[tuple[str, str, str], str] = {}
    for f in t.faces:
        a, b, c = f
        es = ab, ac, bc = (a, b), (a, c), (b, c)  # f is sorted, so these are canonical
        twos = (ab in edge_directions) + (ac in edge_directions) + (bc in edge_directions)
        if twos == 1:
            face_types[f] = "I"
        elif twos != 3:
            raise TriangulationError(f"face {f!r} violates the type dichotomy")
        else:
            outs = {edge_directions[e][0] for e in es}
            ins = {edge_directions[e][1] for e in es}
            if not outs == ins == set(f):
                raise TriangulationError(f"type-II face {f!r} is not a directed cycle")
            face_types[f] = "II"
    kept = edge_types, edge_directions, vertex_types, face_types, {}
    t._classified = (bits, *kept)
    return Classification(t, tau, *kept)


def _turn(passes, i: int) -> tuple[str, str, str]:
    """The face key of the walk's turn from pass i to pass i+1 of passes:
    pass i's edge and pass i+1's end, a face only where the walk turns in one."""
    (u, v), _, _ = passes[i]
    w = passes[(i + 1) % len(passes)].dst
    return (w, u, v) if w < u else (u, w, v) if w < v else (u, v, w)


def face_shadow(t: Triangulation, z: Zigzag) -> tuple[tuple[str, str, str], ...]:
    """The cyclic face sequence of a zigzag.

    Entry i is the common face of passes i and i+1; it is the face the walk
    lies in while turning between the two edges.  As passes chain, that face
    is {src, dst} of pass i plus dst of pass i+1 (_turn); raises
    TriangulationError when it is not a face of t.
    """
    ps = z.passes
    out = tuple(_turn(ps, i) for i in range(len(ps)))
    if not t._face_set.issuperset(out):
        i = next(i for i, f in enumerate(out) if f not in t._face_set)
        j = (i + 1) % len(ps)
        raise TriangulationError(
            f"passes {i} and {j}: edges {ps[i].edge!r} and {ps[j].edge!r} share no face"
        )
    return out


def _audit_sole_zigzag(t: Triangulation, z: Zigzag) -> tuple[Zigzag, ...]:
    """Check that z is t's only zigzag up to reversal, and return t's
    zigzags: t keeps (z.canonical(),) as its enumeration when it has none.
    t must be a closed surface, so that 2E = 3F.

    Every turn of z lies in a face, and consecutive turns lie in different
    faces: as each edge lies in two faces, the turn after a pass lies in the
    other face of its edge, which is the successor rule, so z is an orbit.
    Its 2E states (s_i, d_i, s_i-1) and their reversals (s_i, s_i-1, d_i)
    are pairwise distinct, so they are 4E = 6F states, all there are, and no
    other orbit is left.  On a corner table of t, built for this check, the
    turn after a state lies in a face other than the turn before it exactly
    when the table maps the state to d_i+1.  A walk that fails is walked
    again along its face shadow, and raises InvariantError naming the
    first position that fails: its length, then a turn off the faces, a
    turn twice in one face, and a repeated state, an explicit check that
    also runs under python -O.
    """
    n, two_e = len(z), 2 * len(t.edges)
    srcs = [p.src for p in z.passes]
    dsts, prevs = [p.dst for p in z.passes], srcs[-1:] + srcs[:-1]
    states = list(zip(srcs, dsts, prevs))
    # the table is freed once read, before the state set is built
    ok = list(map(_corner_table(t._edge_faces).get, states)) == dsts[1:] + dsts[:1] and n == two_e
    if not (ok and len({*states, *zip(srcs, prevs, dsts)}) == 2 * n):
        if n != two_e:
            raise InvariantError(f"zigzag has {n} passes, not 2E = {two_e}")
        try:
            shadow = face_shadow(t, z)
        except TriangulationError as exc:
            raise InvariantError(f"zigzag leaves the faces: {exc}") from None
        for i in range(n):
            if shadow[i - 1] == shadow[i]:
                raise InvariantError(f"zigzag turns twice in face {shadow[i]} at position {i}")
        seen: set[tuple[str, str, str]] = set()
        for i, (s, d, x) in enumerate(states):
            if (s, d, x) in seen or (s, x, d) in seen:
                raise InvariantError(f"zigzag repeats a state or its reversal at position {i}")
            seen.update(((s, d, x), (s, x, d)))
    if t._zigzags is None:
        t._zigzags = (z.canonical(),)
    return t._zigzags


def _ruled_out(t: Triangulation, tau: ZOrientation) -> bool:
    """True when tau has a zigzag that cannot read II,I,I, as its length and
    its first six passes tell (_reads_ii_i_i).  Raises as classify does
    when tau's zigzags are not t's (_require_own).

    Types come from t's pass table, one row per edge: a pass is type II
    when its edge's two passes agree under the bits, as in classify.  At
    most six rows per zigzag are read."""
    _require_own(t, tau)
    table, bits = _pass_table(t), tau.bits
    for z in tau.zigzags:
        ii = []
        for e, _, _ in z.passes[:6]:
            i, f, j, g = table[e]
            ii.append(f ^ bits[i] == g ^ bits[j])
        if not _reads_ii_i_i(len(z), ii):
            return True
    return False


def is_homogeneous(t: Triangulation, tau: ZOrientation) -> bool:
    """True when every chosen zigzag reads II,I,I (see
    Classification.homogeneous); raises TriangulationError as classify does
    when tau's zigzags are not t's.

    An orientation _ruled_out rejects is not classified.  The screen is
    exact: it tests the first six passes of each zigzag as
    _homogeneity_scan tests them all.  Every orientation it passes is
    classified, so homogeneity keeps classify's one definition."""
    return not _ruled_out(t, tau) and classify(t, tau).homogeneous
