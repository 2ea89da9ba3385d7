"""Gluing surgery on special pairs of type-II edges.

A special pair in a z-knotted homogeneous triangulation is a pair of type-II
edges e1, e2 sharing one vertex v whose four occurrences interleave along
the single zigzag (e1 .. e2 .. e1 .. e2).  Splitting v into v+ and v- and
cutting e1, e2 opens a quadrilateral hole; gluing a second triangulation
opened the same way along a matching pair produces a bigger triangulation
whose single zigzag is predicted exactly by reassembling the cut segments.

Sides: the link cycle of v is divided by the far endpoints v1, v2 into two
arcs, and each face at v lies on one arc.  A +/- labeling of the four faces
containing e1 or e2 is admissible when the two minus faces lie on one arc,
the two plus faces on the other, and the single zigzag's face shadow reads
F1-,F1+ ... F2-,F2+ ... F1+,F1- ... F2+,F2-.  Ties between the two
admissible labelings are broken toward the lexicographically smaller pair
of minus faces.

Role orders: for a host pair the side condition holds in exactly one of the
orders (e1, e2) and (e2, e1).  find_special_pairs emits each pair in that
order, and plan_gluing picks it for a host pair given in either order; a
piece pair resolves in both orders, and plan_gluing takes the one whose
edges point at the shared vertex the way the host's do.  resolve_site never
reorders: it resolves the pair as given or raises SurgeryError.

All glue outputs are verified rather than trusted: the glued face list is
re-validated, its zigzag census re-enumerated, and the result compared with
the predicted sequence; any mismatch is an assertion failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .engine import (
    Classification,
    Pass,
    Zigzag,
    ZOrientation,
    _homogeneous,
    classify,
    enumerate_zigzags,
    face_shadow,
    make_pass,
)
from .triangulation import Triangulation, edge_key, face_key

__all__ = [
    "SurgeryError",
    "SpecialPair",
    "PiecePair",
    "SegmentDecomposition",
    "GluingSite",
    "find_special_pairs",
    "are_concordant",
    "find_piece_pairs",
    "resolve_site",
    "plan_gluing",
    "check_compatibility",
    "predict_glued_zigzag",
    "glue",
    "inherited_pairs",
]

Edge = tuple[str, str]

HOST = "host"
TWO_ZIGZAG = "two_zigzag_piece"
FOUR_ZIGZAG = "four_zigzag_piece"


class SurgeryError(ValueError):
    """A gluing precondition does not hold."""


@dataclass(frozen=True)
class SpecialPair:
    """An ordered pair of edges sharing one vertex.

    The order (e1, e2) matters for gluing compatibility; swapped() gives the
    other role assignment of the same unordered pair.
    """

    e1: Edge
    e2: Edge
    shared_vertex: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "e1", edge_key(*self.e1))
        object.__setattr__(self, "e2", edge_key(*self.e2))
        shared = set(self.e1) & set(self.e2)
        if shared != {self.shared_vertex}:
            raise SurgeryError(
                f"edges {self.e1} and {self.e2} do not share exactly the vertex "
                f"{self.shared_vertex!r}"
            )

    @property
    def v1(self) -> str:
        """Endpoint of e1 away from the shared vertex."""
        return self.e1[0] if self.e1[1] == self.shared_vertex else self.e1[1]

    @property
    def v2(self) -> str:
        """Endpoint of e2 away from the shared vertex."""
        return self.e2[0] if self.e2[1] == self.shared_vertex else self.e2[1]

    def edges(self) -> frozenset[Edge]:
        return frozenset((self.e1, self.e2))

    def swapped(self) -> "SpecialPair":
        return SpecialPair(self.e2, self.e1, self.shared_vertex)


@dataclass(frozen=True)
class PiecePair(SpecialPair):
    """A piece-side pair together with the occurrence pattern it matched."""

    kind: str = TWO_ZIGZAG


@dataclass(frozen=True)
class SegmentDecomposition:
    """The zigzag segments cut out by a pair's occurrences.

    Keys are "1+", "1-", "2+", "2-".  For a host they are the four arcs of
    the single zigzag between consecutive pair occurrences; for a
    two-zigzag piece the arcs between the two occurrences of each edge in
    its own zigzag; for a four-zigzag piece each segment is a whole zigzag
    with the pair edge's single pass removed.
    """

    kind: str
    segments: dict[str, tuple[Pass, ...]]

    def __getitem__(self, key: str) -> tuple[Pass, ...]:
        return self.segments[key]


@dataclass(frozen=True, eq=False)
class GluingSite:
    """A resolved pair: labels, sides, directions, and cut segments."""

    triangulation: Triangulation
    orientation: ZOrientation
    pair: SpecialPair
    kind: str
    face_labels: dict[tuple[str, str, str], str]  # the four faces at e1/e2 -> "+"/"-"
    vertex_sides: dict[str, str]  # link interior vertex -> "+"/"-"
    e1_direction: tuple[str, str]
    e2_direction: tuple[str, str]
    segments: SegmentDecomposition

    @property
    def v(self) -> str:
        return self.pair.shared_vertex

    @property
    def v1(self) -> str:
        return self.pair.v1

    @property
    def v2(self) -> str:
        return self.pair.v2

    def enters(self, index: int) -> bool:
        """Does e1 (index 1) or e2 (index 2) point into the shared vertex?"""
        direction = self.e1_direction if index == 1 else self.e2_direction
        return direction[1] == self.v


# ----------------------------------------------------------------------
# analysing (t, tau) once per call


class _Analysis(NamedTuple):
    """What resolving pairs needs of one (t, tau), derived once per call."""

    t: Triangulation
    tau: ZOrientation
    cls: Classification
    where: dict[Edge, list[tuple[int, int]]]
    shadows: tuple[tuple[tuple[str, str, str], ...], ...]  # one per chosen zigzag


def _passes_of(zigzags) -> dict[Edge, list[tuple[int, int]]]:
    """Edge -> its passes as (zigzag index, position), in walk order."""
    where: dict[Edge, list[tuple[int, int]]] = {}
    for zi, z in enumerate(zigzags):
        for i, p in enumerate(z.passes):
            where.setdefault(p.edge, []).append((zi, i))
    return where


def _analyse(t: Triangulation, tau: ZOrientation, not_homogeneous: str) -> _Analysis:
    t.require_valid()
    cls = classify(t, tau)
    if not _homogeneous(cls, tau):
        raise SurgeryError(not_homogeneous)
    shadows = tuple(face_shadow(t, z) for z in tau.chosen)
    return _Analysis(t, tau, cls, _passes_of(tau.chosen), shadows)


def _positions(a: _Analysis, edge: Edge) -> list[int]:
    return [i for _, i in a.where[edge]]


# ----------------------------------------------------------------------
# finding pairs


def _interleaved(p, q) -> bool:
    # cyclic order p1 q p2 q: exactly one q-occurrence inside (p1, p2)
    inside = sum(1 for x in q if p[0] < x < p[1])
    return inside == 1


def _vertex_sharing_pairs(edges) -> list[tuple[Edge, Edge, str]]:
    """(c1, c2, v) for the pairs c1 < c2 of edges sharing a vertex v, sorted."""
    at: dict[str, list[Edge]] = {}
    for e in sorted(edges):
        for v in e:
            at.setdefault(v, []).append(e)
    return sorted(
        (c1, c2, v) for v, es in at.items() for i, c1 in enumerate(es) for c2 in es[i + 1:]
    )


def find_special_pairs(t: Triangulation, tau: ZOrientation) -> tuple[SpecialPair, ...]:
    """All special pairs, each emitted once in its resolvable role order.

    The +/- side condition singles out exactly one of the two role orders
    (e1, e2) and (e2, e1); the returned pairs use that order, so each of
    them is directly usable as a host gluing site.
    """
    if len(tau.zigzags) != 1:
        raise SurgeryError("special pairs are defined for z-knotted triangulations")
    a = _analyse(t, tau, "special pairs require a homogeneous z-orientation")
    links: dict[str, tuple[str, ...]] = {}  # a vertex may share many pairs
    out = []
    for c1, c2, v in _vertex_sharing_pairs(a.cls.type_ii_edges):
        if not _interleaved(_positions(a, c1), _positions(a, c2)):
            continue
        pair = SpecialPair(c1, c2, v)
        if v not in links:
            links[v] = t.vertex_link(v).cycle
        _, _, face_side = _sides_and_faces(t, pair, links[v])
        if _host_labeling(a, pair, face_side) is None:
            pair = pair.swapped()
            if _host_labeling(a, pair, face_side) is None:
                raise SurgeryError(_NO_LABELING)
        out.append(pair)
    return tuple(out)


def are_concordant(
    t: Triangulation, tau: ZOrientation, p: SpecialPair, q: SpecialPair
) -> bool:
    """Do two edge-disjoint special pairs alternate p,q,p,q,... along the zigzag?"""
    if len(tau.zigzags) != 1:
        raise SurgeryError("concordance is defined for z-knotted triangulations")
    if p.edges() & q.edges():
        raise SurgeryError("concordance requires edge-disjoint pairs")
    z = tau.chosen[0]
    marks = []
    for edge, label in ((p.e1, "p"), (p.e2, "p"), (q.e1, "q"), (q.e2, "q")):
        occ = z.occurrences(edge)
        if len(occ) != 2:
            raise SurgeryError(f"pair edge {edge} is passed {len(occ)} time(s), expected 2")
        marks += [(pos, label) for pos in occ]
    marks.sort()
    return all(marks[i][1] != marks[(i + 1) % 8][1] for i in range(8))


def find_piece_pairs(t: Triangulation, tau: ZOrientation) -> tuple[PiecePair, ...]:
    """Vertex-sharing type-II pairs matching a piece occurrence pattern.

    Two-zigzag pattern: e1 occurs twice in one chosen zigzag and e2 twice in
    another.  Four-zigzag pattern: e1 occurs once in each of two zigzags and
    e2 once in each of the other two.
    """
    if len(tau.zigzags) not in (2, 4):
        raise SurgeryError("piece pairs require exactly two or four zigzags")
    cls = classify(t, tau)
    if not _homogeneous(cls, tau):
        raise SurgeryError("piece pairs require a homogeneous z-orientation")
    kind = TWO_ZIGZAG if len(tau.zigzags) == 2 else FOUR_ZIGZAG
    where = _passes_of(tau.chosen)
    holders = {e: [zi for zi, _ in where[e]] for e in cls.type_ii_edges}
    return tuple(
        PiecePair(c1, c2, v, kind=kind)
        for c1, c2, v in _vertex_sharing_pairs(cls.type_ii_edges)
        if _piece_pattern(kind, c1, holders[c1], c2, holders[c2]) is None
    )


def _piece_pattern(kind: str, e1: Edge, h1: list[int], e2: Edge, h2: list[int]) -> str | None:
    """Why a pair misses the occurrence pattern of a piece kind, or None.

    h1 and h2 name the zigzag holding each pass of e1 and of e2.
    """
    for e, h in ((e1, h1), (e2, h2)):
        if kind == TWO_ZIGZAG and (len(h) != 2 or h[0] != h[1]):
            return f"edge {e} does not occur twice in a single zigzag; not a two-zigzag piece pair"
        if kind == FOUR_ZIGZAG and (len(h) != 2 or h[0] == h[1]):
            return (
                f"edge {e} does not occur once in each of two zigzags; "
                "not a four-zigzag piece pair"
            )
    if kind == TWO_ZIGZAG and h1[0] == h2[0]:
        return "pair edges must occur in distinct zigzags"
    if kind == FOUR_ZIGZAG and set(h1) & set(h2):
        return "pair edges must occur in disjoint zigzag pairs"
    return None


# ----------------------------------------------------------------------
# resolving a site


_NO_LABELING = "no +/- labeling is consistent with the side condition"
_NOT_HOMOGENEOUS_SITE = "gluing sites require a homogeneous z-orientation"


def _sides_and_faces(t: Triangulation, pair: SpecialPair, cyc=None):
    """Link vertex -> arc, the four pair faces (two at e1, two at e2), face -> arc.

    The link cycle of v (cyc, when the caller has it) is cut at v1 and v2
    into arc A (after v1 up to v2) and arc B (after v2 up to v1), interiors
    only.  v1 and v2 adjacent in the link would mean a face containing both
    pair edges, which cannot happen when every face has exactly one type-II
    edge.
    """
    if cyc is None:
        cyc = t.vertex_link(pair.shared_vertex).cycle
    n = len(cyc)
    i1, i2 = cyc.index(pair.v1), cyc.index(pair.v2)
    arc_a = [cyc[(i1 + k) % n] for k in range(1, (i2 - i1) % n)]
    arc_b = [cyc[(i2 + k) % n] for k in range(1, (i1 - i2) % n)]
    if not arc_a or not arc_b:
        raise SurgeryError(
            f"pair edges {pair.e1} and {pair.e2} bound a common face at "
            f"{pair.shared_vertex!r}"
        )
    side_of = {w: "A" for w in arc_a}
    side_of.update({w: "B" for w in arc_b})
    faces = (*t.edge_faces(pair.e1), *t.edge_faces(pair.e2))
    assert len(set(faces)) == 4, "pair faces must be distinct"
    face_side = {}
    for f in faces:
        sides = {side_of[w] for w in f if w not in (pair.shared_vertex, pair.v1, pair.v2)}
        assert len(sides) == 1, f"face {f!r} straddles the link arcs"
        face_side[f] = sides.pop()
    # each pair edge sees one face on each arc
    assert face_side[faces[0]] != face_side[faces[1]]
    assert face_side[faces[2]] != face_side[faces[3]]
    return side_of, faces, face_side


def _reading(shadow, pos: int):
    """The faces the walk leaves and enters at the pass in position pos."""
    return (shadow[pos - 1], shadow[pos])


def _segment(z: Zigzag, start: int, stop: int) -> tuple[Pass, ...]:
    """Passes strictly between positions start and stop, cyclically."""
    n = len(z)
    return tuple(z.passes[(start + k) % n] for k in range(1, (stop - start - 1) % n + 1))


def _pair_problem(a: _Analysis, pair: SpecialPair) -> str | None:
    """Why the pair misses the occurrence pattern of its site kind, or None.

    Every reason here holds for both role orders of a pair or for neither.
    """
    for e in (pair.e1, pair.e2):
        if a.cls.edge_types.get(e) != "II":
            return f"pair edge {e} is not type II"
    k = len(a.tau.zigzags)
    if isinstance(pair, PiecePair):
        expected = {2: TWO_ZIGZAG, 4: FOUR_ZIGZAG}.get(k)
        if pair.kind != expected:
            return f"pair kind {pair.kind!r} does not match the census"
    if k == 1:
        occ1, occ2 = _positions(a, pair.e1), _positions(a, pair.e2)
        assert len(occ1) == 2 and len(occ2) == 2
        if not _interleaved(occ1, occ2):
            return f"occurrences of {pair.e1} and {pair.e2} do not interleave; not a special pair"
        return None
    if k in (2, 4):
        h1, h2 = ([zi for zi, _ in a.where[e]] for e in (pair.e1, pair.e2))
        return _piece_pattern(TWO_ZIGZAG if k == 2 else FOUR_ZIGZAG, pair.e1, h1, pair.e2, h2)
    return f"no site kind for a census of {k} zigzags"


def _checked(a: _Analysis, pair: SpecialPair) -> SpecialPair:
    problem = _pair_problem(a, pair)
    if problem is not None:
        raise SurgeryError(problem)
    return pair


def _host_labeling(a: _Analysis, pair: SpecialPair, face_side):
    """The side-condition test for one role order of a host pair.

    Returns the occurrences p1, q1, p2, q2 and the faces F1-, F1+, F2-, F2+
    of the admissible labeling, or None when this role order has none.
    """
    shadow = a.shadows[0]
    n = len(shadow)
    occ1, occ2 = _positions(a, pair.e1), _positions(a, pair.e2)
    candidates = []
    for p1 in occ1:
        f1_minus, f1_plus = _reading(shadow, p1)
        q1 = min(occ2, key=lambda q: (q - p1) % n)
        f2_minus, f2_plus = _reading(shadow, q1)
        if face_side[f1_minus] == face_side[f2_minus] and face_side[f1_plus] == face_side[f2_plus]:
            candidates.append((p1, q1, f1_minus, f1_plus, f2_minus, f2_plus))
    if not candidates:
        return None
    p1, q1, f1m, f1p, f2m, f2p = min(candidates, key=lambda c: sorted((c[2], c[4])))
    p2 = occ1[0] if occ1[1] == p1 else occ1[1]
    q2 = occ2[0] if occ2[1] == q1 else occ2[1]

    # the full shadow pattern F1-,F1+ ... F2-,F2+ ... F1+,F1- ... F2+,F2-
    assert _reading(shadow, p2) == (f1p, f1m)
    assert _reading(shadow, q2) == (f2p, f2m)
    assert (q1 - p1) % n < (p2 - p1) % n < (q2 - p1) % n
    return p1, q1, p2, q2, f1m, f1p, f2m, f2p


def _host_cut(a: _Analysis, pair: SpecialPair):
    side_of, _, face_side = _sides_and_faces(a.t, pair)
    labeling = _host_labeling(a, pair, face_side)
    if labeling is None:
        raise SurgeryError(_NO_LABELING)
    p1, q1, p2, q2, f1m, f1p, f2m, f2p = labeling
    face_labels = {f1m: "-", f1p: "+", f2m: "-", f2p: "+"}
    minus_side = face_side[f1m]
    vertex_sides = {w: ("-" if s == minus_side else "+") for w, s in side_of.items()}
    z = a.tau.chosen[0]
    segments = {
        "1+": _segment(z, p1, q1),
        "2+": _segment(z, q1, p2),
        "1-": _segment(z, p2, q2),
        "2-": _segment(z, q2, p1),
    }
    return face_labels, vertex_sides, segments


def _piece_cut(a: _Analysis, pair: SpecialPair, kind: str):
    side_of, faces, face_side = _sides_and_faces(a.t, pair)
    # both labelings satisfy the side condition; tie-break on minus faces
    minus_side = min("AB", key=lambda s: sorted(f for f in faces if face_side[f] == s))
    face_labels = {f: ("-" if face_side[f] == minus_side else "+") for f in faces}
    vertex_sides = {w: ("-" if s == minus_side else "+") for w, s in side_of.items()}

    # a segment runs from a pass of the pair edge to its next pass in the
    # same zigzag (itself, for a four-zigzag piece), signed by the face the
    # walk enters there
    segments: dict[str, tuple[Pass, ...]] = {}
    for index, e in ((1, pair.e1), (2, pair.e2)):
        plus_face = next(f for f in a.t.edge_faces(e) if face_labels[f] == "+")
        passes = a.where[e]
        for zi, r in passes:
            nxt = next((q for zj, q in passes if zj == zi and q != r), r)
            sign = "+" if a.shadows[zi][r] == plus_face else "-"
            segments[f"{index}{sign}"] = _segment(a.tau.chosen[zi], r, nxt)
        if f"{index}+" not in segments or f"{index}-" not in segments:
            what = "occurrences of" if kind == TWO_ZIGZAG else "zigzags through"
            raise SurgeryError(f"{what} {e} do not cross its faces oppositely")
    return face_labels, vertex_sides, segments


def _resolve(a: _Analysis, pair: SpecialPair) -> GluingSite:
    """Label, split, and cut a checked pair in the role order given."""
    kind = {1: HOST, 2: TWO_ZIGZAG, 4: FOUR_ZIGZAG}[len(a.tau.zigzags)]
    if kind == HOST:
        face_labels, vertex_sides, segments = _host_cut(a, pair)
    else:
        face_labels, vertex_sides, segments = _piece_cut(a, pair, kind)
    assert all(segments.values()), "segments are never empty"
    directions = a.cls.edge_directions
    return GluingSite(
        a.t, a.tau, pair, kind, face_labels, vertex_sides,
        directions[pair.e1], directions[pair.e2], SegmentDecomposition(kind, segments),
    )


def resolve_site(t: Triangulation, tau: ZOrientation, pair: SpecialPair) -> GluingSite:
    """Label the pair's faces, split the link into sides, and cut segments.

    The site kind is inferred from the zigzag census: one zigzag makes a
    host, two or four make a piece.  Raises SurgeryError when the pair does
    not show the occurrence pattern its kind requires, or, for a host, when
    its role order fails the side condition.
    """
    a = _analyse(t, tau, _NOT_HOMOGENEOUS_SITE)
    return _resolve(a, _checked(a, pair))


def plan_gluing(
    host_t: Triangulation,
    host_tau: ZOrientation,
    host_pair: SpecialPair,
    piece_t: Triangulation,
    piece_tau: ZOrientation,
    piece_pairs,
) -> tuple[GluingSite, GluingSite]:
    """Resolve both sites of one gluing, choosing every role order directly.

    The host pair is resolved in the role order the side condition picks.
    The piece candidates are taken in the given order; each is checked, then
    given the role order whose edges point at its shared vertex the way the
    host site's edges do, and the first candidate with such an order is
    resolved in it.  Returns (host_site, piece_site), ready for glue.
    Raises SurgeryError when the host pair is no site or no candidate fits.
    """
    host = _analyse(host_t, host_tau, _NOT_HOMOGENEOUS_SITE)
    # the side condition picks the role order; a pair that fails a check
    # common to both orders is reported in the swapped order, as (e2, e1)
    if _pair_problem(host, host_pair) is not None or (
        len(host_tau.zigzags) == 1
        and _host_labeling(host, host_pair, _sides_and_faces(host_t, host_pair)[2]) is None
    ):
        host_pair = host_pair.swapped()
    host_site = _resolve(host, _checked(host, host_pair))

    piece = _analyse(piece_t, piece_tau, _NOT_HOMOGENEOUS_SITE)
    wanted = (host_site.enters(1), host_site.enters(2))
    knotted = len(piece_tau.zigzags) == 1
    for cand in piece_pairs:
        for pair in (_checked(piece, cand), cand.swapped()):
            directions = (piece.cls.edge_directions[e] for e in (pair.e1, pair.e2))
            # a z-knotted piece is no piece: resolved as given, the guard rejects it
            if knotted or tuple(d[1] == pair.shared_vertex for d in directions) == wanted:
                piece_site = _resolve(piece, pair)
                # the guard: site kinds fit, and the directions match by choice
                if check_compatibility(host_site, piece_site):
                    return host_site, piece_site
    raise SurgeryError(
        "pair directions at the shared vertices do not match in either role order"
    )


# ----------------------------------------------------------------------
# gluing


def check_compatibility(host_site: GluingSite, piece_site: GluingSite) -> bool:
    """Each split edge must point the same way at the shared vertex on both sides."""
    if host_site.kind != HOST:
        raise SurgeryError("first argument must be a host site")
    if piece_site.kind not in (TWO_ZIGZAG, FOUR_ZIGZAG):
        raise SurgeryError("second argument must be a piece site")
    return host_site.enters(1) == piece_site.enters(1) and host_site.enters(2) == piece_site.enters(2)


def _split_names(host_site: GluingSite, piece_site: GluingSite) -> tuple[str, str]:
    plus, minus = host_site.v + "+", host_site.v + "-"
    taken = set(host_site.triangulation.vertices) | set(piece_site.triangulation.vertices)
    if plus in taken or minus in taken:
        raise SurgeryError(f"split vertex names {plus!r}/{minus!r} collide with existing vertices")
    return plus, minus


def _site_vertex_map(site: GluingSite, plus: str, minus: str, renames: dict[str, str]):
    """Rewrite one vertex of a pass or edge under the split and identification."""
    v = site.v

    def sub(u: str, other: str) -> str:
        if u == v:
            side = site.vertex_sides[other]
            return plus if side == "+" else minus
        return renames.get(u, u)

    return sub


def _rewrite_pass(p: Pass, sub) -> Pass:
    return make_pass(sub(p.src, p.dst), sub(p.dst, p.src))


def _rewrite_edge(e: Edge, sub) -> Edge:
    return edge_key(sub(e[0], e[1]), sub(e[1], e[0]))


def _split_edge_pass(site: GluingSite, index: int, sign: str, plus: str, minus: str) -> Pass:
    """The pass of e1/e2's split copy, directed like the original edge."""
    direction = site.e1_direction if index == 1 else site.e2_direction
    name = plus if sign == "+" else minus
    src, dst = (name if x == site.v else x for x in direction)
    return make_pass(src, dst)


def predict_glued_zigzag(host_site: GluingSite, piece_site: GluingSite) -> Zigzag:
    """Assemble the glued zigzag from the cut segments.

    With host segments A and two-zigzag piece segments B the glued walk is
    e1+, A1+, e2-, B2-, e2-, A2-, e1-, B1-, e1-, A1-, e2+, B2+, e2+, A2+,
    e1+, B1+.  With four-zigzag piece segments C it is e1+, A1+, e2-, C2-,
    e2+, A2+, e1+, C1+, e1-, A1-, e2+, C2+, e2-, A2-, e1-, C1-.
    """
    plus, minus = _split_names(host_site, piece_site)
    hsub = _site_vertex_map(host_site, plus, minus, {})
    psub = _site_vertex_map(
        piece_site, plus, minus,
        {piece_site.v1: host_site.v1, piece_site.v2: host_site.v2},
    )
    A = {k: tuple(_rewrite_pass(p, hsub) for p in host_site.segments[k])
         for k in ("1+", "1-", "2+", "2-")}
    B = {k: tuple(_rewrite_pass(p, psub) for p in piece_site.segments[k])
         for k in ("1+", "1-", "2+", "2-")}

    def e(index: int, sign: str) -> tuple[Pass, ...]:
        return (_split_edge_pass(host_site, index, sign, plus, minus),)

    if piece_site.kind == TWO_ZIGZAG:
        seq = (
            e(1, "+") + A["1+"] + e(2, "-") + B["2-"] + e(2, "-") + A["2-"]
            + e(1, "-") + B["1-"] + e(1, "-") + A["1-"] + e(2, "+") + B["2+"]
            + e(2, "+") + A["2+"] + e(1, "+") + B["1+"]
        )
    else:
        seq = (
            e(1, "+") + A["1+"] + e(2, "-") + B["2-"] + e(2, "+") + A["2+"]
            + e(1, "+") + B["1+"] + e(1, "-") + A["1-"] + e(2, "+") + B["2+"]
            + e(2, "-") + A["2-"] + e(1, "-") + B["1-"]
        )
    return Zigzag(seq)


def _rewrite_faces(site: GluingSite, plus: str, minus: str, renames: dict[str, str]):
    out = []
    for f in site.triangulation.faces:
        if site.v in f:
            x, y = (w for w in f if w != site.v)
            interior = [w for w in (x, y) if w in site.vertex_sides]
            assert interior, "a face at v has an interior link vertex"
            side = site.vertex_sides[interior[0]]
            name = plus if side == "+" else minus
            out.append(face_key(name, renames.get(x, x), renames.get(y, y)))
        else:
            out.append(face_key(*(renames.get(w, w) for w in f)))
    # face labels and sides must agree where both are defined
    for f, lab in site.face_labels.items():
        x, y = (w for w in f if w != site.v)
        interior = [w for w in (x, y) if w in site.vertex_sides]
        assert site.vertex_sides[interior[0]] == lab
    return out


def glue(
    host: tuple[Triangulation, ZOrientation],
    host_site: GluingSite,
    piece: tuple[Triangulation, ZOrientation],
    piece_site: GluingSite,
) -> tuple[Triangulation, ZOrientation]:
    """Glue a piece into a host along resolved sites; returns the result
    with its single zigzag oriented as predicted.

    The host must be z-knotted and homogeneous with a resolved special
    pair; the piece homogeneous with a resolved piece pair; directions must
    match at the shared vertices and the vertex namespaces must be disjoint.
    """
    th, _tauh = host
    tp, _taup = piece
    if host_site.triangulation != th or piece_site.triangulation != tp:
        raise SurgeryError("sites do not belong to the given triangulations")
    if host_site.kind != HOST:
        raise SurgeryError("host site must come from a z-knotted triangulation")
    if piece_site.kind not in (TWO_ZIGZAG, FOUR_ZIGZAG):
        raise SurgeryError("piece site must come from a two- or four-zigzag triangulation")
    if not check_compatibility(host_site, piece_site):
        raise SurgeryError("pair directions at the shared vertices do not match")
    if set(th.vertices) & set(tp.vertices):
        raise SurgeryError("host and piece vertex namespaces must be disjoint")

    plus, minus = _split_names(host_site, piece_site)
    host_faces = _rewrite_faces(host_site, plus, minus, {})
    piece_faces = _rewrite_faces(
        piece_site, plus, minus,
        {piece_site.v1: host_site.v1, piece_site.v2: host_site.v2},
    )
    glued = Triangulation(host_faces + piece_faces)
    assert glued.validate().ok, "glued face list is a closed surface triangulation"

    assert len(glued.vertices) == len(th.vertices) + len(tp.vertices) - 2
    assert len(glued.edges) == len(th.edges) + len(tp.edges)
    assert len(glued.faces) == len(th.faces) + len(tp.faces)

    predicted = predict_glued_zigzag(host_site, piece_site)
    zs = enumerate_zigzags(glued)
    assert len(zs) == 1, "gluing along a special pair yields a z-knotted triangulation"
    assert zs[0] == predicted.canonical(), "enumerated zigzag matches the prediction"
    tau = ZOrientation(zs, (0,) if zs[0] == predicted else (1,))

    cls = classify(glued, tau)
    assert _homogeneous(cls, tau), "glued orientation is homogeneous"
    host_cls = classify(th, host[1])
    piece_cls = classify(tp, piece[1])
    assert set(cls.type_i_vertices) == set(host_cls.type_i_vertices) | set(
        piece_cls.type_i_vertices
    ), "type-I vertices are preserved by gluing"
    return glued, tau


# ----------------------------------------------------------------------
# survival of other pairs


def _edge_in_segments(seg: SegmentDecomposition, edge: Edge, index: int) -> bool:
    key_p, key_m = f"{index}+", f"{index}-"
    in_p = any(p.edge == edge for p in seg[key_p])
    in_m = any(p.edge == edge for p in seg[key_m])
    return in_p and in_m


def inherited_pairs(
    glued: tuple[Triangulation, ZOrientation],
    host_site: GluingSite,
    piece_site: GluingSite,
    host_pairs=(),
    piece_pairs=(),
) -> tuple[SpecialPair, ...]:
    """Re-express pairs that survive the gluing, in glued vertex names.

    A host pair survives when it is edge-disjoint from the used pair and,
    in some role order, its first edge lies in both A1 segments and its
    second in both A2 segments (this is concordance with the used pair
    written in segment terms).  A piece pair survives when each edge lies
    in both same-index piece segments.  Input pairs are given in the
    original (pre-glue) names; every survivor is re-verified as special in
    the glued zigzag.
    """
    t, tau = glued
    assert len(tau.zigzags) == 1
    cls = classify(t, tau)
    z = tau.chosen[0]
    plus, minus = host_site.v + "+", host_site.v + "-"

    def survivors(site: GluingSite, pairs, renames):
        sub = _site_vertex_map(site, plus, minus, renames)
        out = []
        for pair in pairs:
            if pair.edges() & site.pair.edges():
                continue
            for ordered in ((pair.e1, pair.e2), (pair.e2, pair.e1)):
                if _edge_in_segments(site.segments, ordered[0], 1) and _edge_in_segments(
                    site.segments, ordered[1], 2
                ):
                    break
            else:
                continue
            new_e1 = _rewrite_edge(ordered[0], sub)
            new_e2 = _rewrite_edge(ordered[1], sub)
            shared = set(new_e1) & set(new_e2)
            assert len(shared) == 1, "surviving pair still shares one vertex"
            new_pair = SpecialPair(new_e1, new_e2, next(iter(shared)))
            for e in (new_e1, new_e2):
                assert cls.edge_types[e] == "II"
            assert _interleaved(z.occurrences(new_e1), z.occurrences(new_e2)), (
                "surviving pair is special in the glued zigzag"
            )
            out.append(new_pair)
        return out

    found = survivors(host_site, host_pairs, {})
    found += survivors(
        piece_site, piece_pairs,
        {piece_site.v1: host_site.v1, piece_site.v2: host_site.v2},
    )
    return tuple(sorted(found, key=lambda p: (p.e1, p.e2)))
