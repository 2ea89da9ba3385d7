"""Gluing surgery on special pairs of type-II edges.

A special pair in a z-knotted homogeneous triangulation is a pair of type-II
edges e1, e2 sharing one vertex v whose four occurrences interleave along
the single zigzag (e1 .. e2 .. e1 .. e2).  Splitting v into v+ and v- and
cutting e1, e2 opens a quadrilateral hole; gluing a second triangulation
opened the same way along a matching pair produces a bigger triangulation
whose single zigzag is predicted exactly by reassembling the cut segments.

Sides: the link cycle of v is divided by the far endpoints v1, v2 into two
arcs, and each face at v lies on one arc.  One rule labels every site: the
minus arc is the one holding the least of the four faces at e1 and e2, each
link vertex and face takes the sign of its arc, and each pass of e1 or e2
is keyed by its edge index and the sign of the face it enters.  A segment
runs from a pair pass to the next pair pass in the same chosen zigzag, and
that pass's key is the segment's end: a host's ends run 1+, 2+, 1-, 2-
cyclically, a two-zigzag piece's segment ends at its edge's other sign, and
a four-zigzag piece's at its own key.

Glued walk: from key 1+ on the host, each of eight steps emits the pass of
the split copy of the key's edge and the site's segment for the key, then
moves to the other site with the sign of that segment's end flipped as the
next key.

Role orders: swapping e1 and e2 keeps every sign and only swaps the 1/2
indices of the keys.  A host pair resolves in the order whose walk reads
1+, 2+, 1-, 2- cyclically, so its role order is read off the walk, and
find_special_pairs emits each pair in that order; plan_gluing takes it for
a host pair given in either order.  A piece pair resolves in both orders,
and plan_gluing takes the one whose edges point at the shared vertex the
way the host's do.  resolve_site never reorders: it resolves the pair as
given or raises SurgeryError.

Every function here takes the Classification of a (t, tau), the one
analysis classify(t, tau) builds once t passes its closed-surface check,
and reads the pass positions and face shadows it derives on first use.  A
GluingSite stores only what resolving decides: the classification it was
resolved on, the pair in its role order, the +/- side of each interior link
vertex of v, and the four cut segments with their ends.  It derives the rest: its kind from the zigzag census (one zigzag makes a
host, two or four a piece), the pair edges' directions from the
classification, and each pair face's label from the side of that face's
interior link vertex.

Gluing renames vertices by one rule (_namer), for faces, passes and edges
alike: v becomes v+ or v-, the side of the interior link vertex of the face
or edge it lies on, and the piece's v1, v2 take the host's names.

All glue outputs are verified rather than trusted, each check at the cost
of what the gluing changed.  The glued surface is spliced from the host's
(Triangulation._spliced): only the faces at v are renamed, the piece's faces
are appended, and only the edges and vertices those faces touch are checked
for two faces and a one-cycle link.  The predicted zigzag is then walked on
the glued surface (engine._sole_zigzag_shadow): its turns follow the
successor rule and its states with their reversals are all 6F states, so it
is the only zigzag, and no census is enumerated.  glue also checks the
V, E, F sums, homogeneity, and type-I vertex preservation against the
sites' classifications; any failure raises InvariantError, an explicit
check that also runs under python -O.  glue returns the glued result's
classification, built by that verification with the walk's face shadow,
which a caller such as generators.tree_build hands to its next plan_gluing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import (
    Classification,
    InvariantError,
    Pass,
    Zigzag,
    _oriented,
    _sole_zigzag_shadow,
    classify,
    make_pass,
)
from .triangulation import Triangulation, edge_key, face_key

__all__ = [
    "SurgeryError",
    "InvariantError",
    "SpecialPair",
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


def _kind(cls: Classification) -> str | None:
    """The site kind of a zigzag census: 1, 2, 4 zigzags make a host, a
    two-zigzag piece, a four-zigzag piece; any other census makes none."""
    return {1: HOST, 2: TWO_ZIGZAG, 4: FOUR_ZIGZAG}.get(len(cls.orientation.zigzags))


@dataclass(frozen=True, eq=False)
class GluingSite:
    """A resolved pair: its sides and cut segments, and what they imply.

    segments maps "1+", "1-", "2+", "2-" to passes.  For a host they are
    the four arcs of the single zigzag between consecutive pair occurrences;
    for a two-zigzag piece the arcs between the two occurrences of each edge
    in its own zigzag; for a four-zigzag piece each segment is a whole
    zigzag with the pair edge's single pass removed.  ends maps each key to
    the key of the pair pass ending its segment: the glued walk (see the
    module docstring) leaves this site there for the other's flipped key.
    """

    classification: Classification  # the (t, tau) the pair was resolved on
    pair: SpecialPair
    vertex_sides: dict[str, str]  # link interior vertex -> "+"/"-"
    segments: dict[str, tuple[Pass, ...]]
    ends: dict[str, str]

    @property
    def kind(self) -> str | None:
        return _kind(self.classification)

    @property
    def e1_direction(self) -> tuple[str, str]:
        return self.classification.edge_directions[self.pair.e1]

    @property
    def e2_direction(self) -> tuple[str, str]:
        return self.classification.edge_directions[self.pair.e2]

    @property
    def face_labels(self) -> dict[tuple[str, str, str], str]:
        """The four faces at e1 and e2 -> "+"/"-", the side of each face's
        interior link vertex."""
        t, sides = self.classification.triangulation, self.vertex_sides
        return {
            f: sides[next(w for w in f if w in sides)]
            for e in (self.pair.e1, self.pair.e2)
            for f in t.edge_faces(e)
        }

    @property
    def v(self) -> str:
        return self.pair.shared_vertex

    @property
    def v1(self) -> str:
        return self.pair.v1

    @property
    def v2(self) -> str:
        return self.pair.v2


# ----------------------------------------------------------------------
# preconditions


def _require_homogeneous(cls: Classification, message: str) -> None:
    if not cls.homogeneous:
        raise SurgeryError(message)


def _heads(cls: Classification, pair: SpecialPair) -> tuple[bool, ...]:
    """Whether e1 and whether e2 point into the shared vertex."""
    return tuple(cls.edge_directions[e][1] == pair.shared_vertex for e in (pair.e1, pair.e2))


# ----------------------------------------------------------------------
# finding pairs


def _pattern_problem(cls: Classification, kind: str | None, e1: Edge, e2: Edge) -> str | None:
    """Why the type-II edges e1, e2 miss the occurrence pattern of a site
    kind (a host's: see the module docstring; a piece's: find_piece_pairs),
    or None.  Double cover passes each of them twice."""
    if kind is None:
        return f"no site kind for a census of {len(cls.orientation.zigzags)} zigzags"
    (z1, a), (y1, b) = cls.pass_positions[e1]
    (z2, c), (y2, d) = cls.pass_positions[e2]
    if kind == HOST:
        # passes are in walk order, so a < b: exactly one of c, d lies between
        if (a < c < b) == (a < d < b):
            return f"occurrences of {e1} and {e2} do not interleave; not a special pair"
        return None
    h1, h2 = {z1, y1}, {z2, y2}
    for e, h in ((e1, h1), (e2, h2)):
        if kind == TWO_ZIGZAG and len(h) != 1:
            return f"edge {e} does not occur twice in a single zigzag; not a two-zigzag piece pair"
        if kind == FOUR_ZIGZAG and len(h) != 2:
            return (
                f"edge {e} does not occur once in each of two zigzags; "
                "not a four-zigzag piece pair"
            )
    if h1 & h2:
        if kind == TWO_ZIGZAG:
            return "pair edges must occur in distinct zigzags"
        return "pair edges must occur in disjoint zigzag pairs"
    return None


def _candidates(cls: Classification) -> list[tuple[Edge, Edge, str]]:
    """(c1, c2, v), sorted, for the type-II edges c1 < c2 that share a vertex
    v and show the occurrence pattern of the census's site kind."""
    kind = _kind(cls)
    at: dict[str, list[Edge]] = {}
    for e in cls.type_ii_edges:
        for v in e:
            at.setdefault(v, []).append(e)
    return sorted(
        (c1, c2, v)
        for v, es in at.items()
        for i, c1 in enumerate(es)
        for c2 in es[i + 1:]
        if _pattern_problem(cls, kind, c1, c2) is None
    )


def find_special_pairs(cls: Classification) -> tuple[SpecialPair, ...]:
    """All special pairs, each emitted once in its resolvable role order.

    The +/- side condition singles out exactly one of the two role orders
    (e1, e2) and (e2, e1); the returned pairs use that order, so each of
    them is directly usable as a host gluing site.
    """
    if len(cls.orientation.zigzags) != 1:
        raise SurgeryError("special pairs are defined for z-knotted triangulations")
    _require_homogeneous(cls, "special pairs require a homogeneous z-orientation")
    links: dict[str, dict[str, int]] = {}  # a vertex may share many pairs
    out = []
    for c1, c2, v in _candidates(cls):
        if v not in links:
            links[v] = _link_positions(cls.triangulation, v)
        out.append(_labeling(cls, SpecialPair(c1, c2, v), links[v])[0])
    return tuple(out)


def are_concordant(cls: Classification, p: SpecialPair, q: SpecialPair) -> bool:
    """Do two edge-disjoint special pairs alternate p,q,p,q,... along the zigzag?"""
    if len(cls.orientation.zigzags) != 1:
        raise SurgeryError("concordance is defined for z-knotted triangulations")
    if p.edges() & q.edges():
        raise SurgeryError("concordance requires edge-disjoint pairs")
    marks = []
    for edge, label in ((p.e1, "p"), (p.e2, "p"), (q.e1, "q"), (q.e2, "q")):
        occ = [i for _, i in cls.pass_positions.get(edge, ())]
        if len(occ) != 2:
            raise SurgeryError(f"pair edge {edge} is passed {len(occ)} time(s), expected 2")
        marks += [(pos, label) for pos in occ]
    marks.sort()
    return all(marks[i][1] != marks[(i + 1) % 8][1] for i in range(8))


def find_piece_pairs(cls: Classification) -> tuple[SpecialPair, ...]:
    """Vertex-sharing type-II pairs showing a piece occurrence pattern.

    Two-zigzag pattern: e1 occurs twice in one chosen zigzag and e2 twice in
    another.  Four-zigzag pattern: e1 occurs once in each of two zigzags and
    e2 once in each of the other two.
    """
    if _kind(cls) not in (TWO_ZIGZAG, FOUR_ZIGZAG):
        raise SurgeryError("piece pairs require exactly two or four zigzags")
    _require_homogeneous(cls, "piece pairs require a homogeneous z-orientation")
    return tuple(SpecialPair(c1, c2, v) for c1, c2, v in _candidates(cls))


# ----------------------------------------------------------------------
# resolving a site


_NO_LABELING = "no +/- labeling is consistent with the side condition"
_NOT_HOMOGENEOUS_SITE = "gluing sites require a homogeneous z-orientation"


def _link_positions(t: Triangulation, v: str) -> dict[str, int]:
    """Link vertex of v -> its position along the link cycle."""
    return {w: i for i, w in enumerate(t.vertex_link(v).cycle)}


def _segment(z: Zigzag, start: int, stop: int) -> tuple[Pass, ...]:
    """Passes strictly between positions start and stop, cyclically."""
    n = len(z)
    return tuple(z.passes[(start + k) % n] for k in range(1, (stop - start - 1) % n + 1))


def _pair_problem(cls: Classification, pair: SpecialPair) -> str | None:
    """Why the pair misses the occurrence pattern of its site kind, or None.

    Every reason here holds for both role orders of a pair or for neither.
    """
    for e in (pair.e1, pair.e2):
        edge_type = cls.edge_types.get(e)
        if edge_type is None:
            return f"pair edge {e} is no edge of the triangulation"
        if edge_type != "II":
            return f"pair edge {e} is not type II"
    return _pattern_problem(cls, _kind(cls), pair.e1, pair.e2)


def _checked(cls: Classification, pair: SpecialPair) -> SpecialPair:
    problem = _pair_problem(cls, pair)
    if problem is not None:
        raise SurgeryError(problem)
    return pair


def _labeling(cls: Classification, pair: SpecialPair, pos: dict[str, int]):
    """The one +/- labeling of a checked pair (see Sides and Role orders
    above), in O(1) given pos, the link position map of the shared vertex v.

    Returns the pair in its role order, read off the walk for a host, the
    sign of a link vertex, and each pass's key -> (zigzag index, position).
    """
    v, v1, v2 = pair.shared_vertex, pair.v1, pair.v2
    n, i1 = len(pos), pos[v1]
    span = (pos[v2] - i1) % n
    # with v1, v2 apart in the link no face holds both pair edges, so each
    # pair face has one vertex off v, v1, v2 and each pair edge has one face
    # on each arc
    if span == 1 or span == n - 1:
        raise SurgeryError(
            f"pair edges {pair.e1} and {pair.e2} bound a common face at {v!r}"
        )

    def inner(face) -> str:
        return next(w for w in face if w != v and w != v1 and w != v2)

    def arc(w: str) -> bool:
        return (pos[w] - i1) % n < span

    t = cls.triangulation
    minus = arc(inner(min(*t.edge_faces(pair.e1), *t.edge_faces(pair.e2))))

    def sign(w: str) -> str:
        return "-" if arc(w) == minus else "+"

    keys: dict[str, tuple[int, int]] = {}
    for index, e in ((1, pair.e1), (2, pair.e2)):
        passes = cls.pass_positions[e]
        for zi, r in passes:
            keys[f"{index}{sign(inner(cls.face_shadows[zi][r]))}"] = (zi, r)
        if f"{index}+" not in keys or f"{index}-" not in keys:
            what = "occurrences of" if passes[0][0] == passes[-1][0] else "zigzags through"
            raise SurgeryError(f"{what} {e} do not cross its faces oppositely")
    if _kind(cls) == HOST:
        walk = sorted(keys, key=keys.__getitem__)
        if walk[(walk.index("1+") + 1) % 4] != "2+":
            pair = pair.swapped()
            keys = {f"{3 - int(k[0])}{k[1]}": at for k, at in keys.items()}
    return pair, sign, keys


def _resolve(cls: Classification, pair: SpecialPair, reorder: bool = False) -> GluingSite:
    """Label, split, and cut a checked pair.

    A host pair is cut in the role order its labeling reads; when that is
    the swapped order, reorder takes it, and otherwise the pair raises
    SurgeryError.  A piece pair is cut in the order given.  Each segment
    runs from a pair pass to the next pair pass in the same chosen zigzag,
    whose key is its end: the host's four arcs, a two-zigzag piece's halves
    of each zigzag, a four-zigzag piece's whole zigzags less one pass.
    """
    pos = _link_positions(cls.triangulation, pair.shared_vertex)
    ordered, sign, keys = _labeling(cls, pair, pos)
    if ordered is not pair and not reorder:
        raise SurgeryError(_NO_LABELING)
    segments, ends = {}, {}
    for key, (zi, r) in keys.items():
        z = cls.orientation.chosen[zi]
        ends[key] = min(
            (k for k, (zj, _) in keys.items() if zj == zi),
            key=lambda k: (keys[k][1] - r - 1) % len(z),
        )
        segments[key] = _segment(z, r, keys[ends[key]][1])
    cut = (pair.v1, pair.v2)
    return GluingSite(cls, ordered, {w: sign(w) for w in pos if w not in cut}, segments, ends)


def resolve_site(cls: Classification, pair: SpecialPair) -> GluingSite:
    """Label the pair's faces, split the link into sides, and cut segments.

    The site kind is inferred from the zigzag census: one zigzag makes a
    host, two or four make a piece.  Raises SurgeryError when the pair does
    not show the occurrence pattern its kind requires, or, for a host, when
    its role order fails the side condition.
    """
    _require_homogeneous(cls, _NOT_HOMOGENEOUS_SITE)
    return _resolve(cls, _checked(cls, pair))


def plan_gluing(
    host: Classification, host_pair: SpecialPair, piece: Classification, piece_pairs
) -> tuple[GluingSite, GluingSite]:
    """Resolve both sites of one gluing, choosing every role order directly.

    The host pair is resolved in the role order its labeling reads.  The
    piece must have two or four zigzags.  The piece candidates are taken in
    the given order; each is checked, then given the role order whose edges
    point at its shared vertex the way the host site's edges do, and the
    first candidate with such an order is resolved in it.  Returns
    (host_site, piece_site), ready for glue.  Raises SurgeryError when the
    host pair is no site, the piece no piece, or no candidate fits; a pair
    that fails a check is reported in the order given.
    """
    _require_homogeneous(host, _NOT_HOMOGENEOUS_SITE)
    if _kind(host) != HOST:
        raise SurgeryError(f"a host needs one zigzag, not {len(host.orientation.zigzags)}")
    host_site = _resolve(host, _checked(host, host_pair), reorder=True)
    _require_homogeneous(piece, _NOT_HOMOGENEOUS_SITE)
    if _kind(piece) not in (TWO_ZIGZAG, FOUR_ZIGZAG):
        raise SurgeryError(
            f"a piece needs two or four zigzags, not {len(piece.orientation.zigzags)}"
        )
    wanted = _heads(host, host_site.pair)
    for cand in piece_pairs:
        for pair in (_checked(piece, cand), cand.swapped()):
            if _heads(piece, pair) == wanted:
                return host_site, _resolve(piece, pair)
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
    return _heads(host_site.classification, host_site.pair) == _heads(
        piece_site.classification, piece_site.pair
    )


def _split_names(host_site: GluingSite, piece_site: GluingSite) -> dict[str, str]:
    """Side "+"/"-" -> the name v+/v- of that half of the split vertex."""
    split = {side: host_site.v + side for side in "+-"}
    indexes = (site.classification.triangulation._vertex_faces for site in (host_site, piece_site))
    if any(name in index for index in indexes for name in split.values()):
        raise SurgeryError(
            f"split vertex names {split['+']!r}/{split['-']!r} collide with existing vertices"
        )
    return split


def _namer(site: GluingSite, split: dict[str, str], renames: dict[str, str]):
    """The one renaming rule of a gluing, for one site's faces, edges and passes.

    rename(cells, make) renames the vertices of each cell and rebuilds it as
    make(*entries); a cell with no vertex to rename is kept as it is, and a
    pass's edge entry, being no vertex, reaches make unchanged.  The split
    vertex v takes the name split[side] for the side of the interior link
    vertex of the face or edge it lies on: every face at v has one, and so
    does every edge at v but e1 and e2.  A vertex in renames takes its new
    name; any other keeps its own.
    """
    v, sides, moved = site.v, site.vertex_sides, {site.v, *renames}

    def renamed(cell, make):
        at = split[sides[next(w for w in cell if w in sides)]] if v in cell else v
        return make(*(at if u == v else renames.get(u, u) for u in cell))

    return lambda cells, make: [c if moved.isdisjoint(c) else renamed(c, make) for c in cells]


def _namers(host_site: GluingSite, piece_site: GluingSite, split: dict[str, str]):
    """The host's and the piece's renaming: the piece's v1, v2 take the host's names."""
    renames = {piece_site.v1: host_site.v1, piece_site.v2: host_site.v2}
    return _namer(host_site, split, {}), _namer(piece_site, split, renames)


def _renamed_pass(_edge: Edge, src: str, dst: str) -> Pass:
    return make_pass(src, dst)


def predict_glued_zigzag(host_site: GluingSite, piece_site: GluingSite) -> Zigzag:
    """Assemble the glued zigzag from the cut segments by the glued walk
    (see the module docstring).

    With host segments A and two-zigzag piece segments B the walk yields
    e1+, A1+, e2-, B2-, e2-, A2-, e1-, B1-, e1-, A1-, e2+, B2+, e2+, A2+,
    e1+, B1+.  With four-zigzag piece segments C it yields e1+, A1+, e2-,
    C2-, e2+, A2+, e1+, C1+, e1-, A1-, e2+, C2+, e2-, A2-, e1-, C1-.
    """
    split = _split_names(host_site, piece_site)
    return _predicted(host_site, piece_site, split, *_namers(host_site, piece_site, split))


def _predicted(
    host_site: GluingSite, piece_site: GluingSite, split: dict[str, str], host_rename, piece_rename
) -> Zigzag:
    """predict_glued_zigzag under the gluing's split names and renamings."""
    sites = ((host_site, host_rename), (piece_site, piece_rename))
    directions = {"1": host_site.e1_direction, "2": host_site.e2_direction}
    v, key, passes = host_site.v, "1+", []
    for step in range(8):
        site, rename = sites[step % 2]
        # the key's split edge copy, directed like the host's edge
        passes.append(make_pass(*(split[key[1]] if x == v else x for x in directions[key[0]])))
        passes += rename(site.segments[key], _renamed_pass)
        end = site.ends[key]
        key = end[0] + ("-" if end[1] == "+" else "+")
    return Zigzag(tuple(passes))


def glue(host_site: GluingSite, piece_site: GluingSite) -> Classification:
    """Glue a piece into a host along resolved sites; returns the result's
    classification, with its single zigzag oriented as predicted.

    The host site must come from a z-knotted homogeneous triangulation, the
    piece site from a two- or four-zigzag homogeneous one; directions must
    match at the shared vertices and the vertex namespaces must be disjoint.

    The glued surface is spliced from the host's: its faces at v are
    renamed and the piece's faces appended, and only the edges and vertices
    those faces touch are re-checked.  The predicted zigzag is verified by
    walking it on the glued surface, not by enumerating its zigzags, and the
    walk's face shadow becomes the result's.  Raises InvariantError when the
    glued result fails a check: a closed surface, the V, E, F sums, the
    prediction as its only zigzag, homogeneity, and the type-I vertices.
    """
    host, piece = host_site.classification, piece_site.classification
    th, tp = host.triangulation, piece.triangulation
    if host_site.kind != HOST:
        raise SurgeryError("host site must come from a z-knotted triangulation")
    if piece_site.kind not in (TWO_ZIGZAG, FOUR_ZIGZAG):
        raise SurgeryError("piece site must come from a two- or four-zigzag triangulation")
    if not check_compatibility(host_site, piece_site):
        raise SurgeryError("pair directions at the shared vertices do not match")
    if any(u in th._vertex_faces for u in tp.vertices):  # the host's vertex index
        raise SurgeryError("host and piece vertex namespaces must be disjoint")

    split = _split_names(host_site, piece_site)
    host_rename, piece_rename = _namers(host_site, piece_site, split)
    at_v = th.vertex_faces(host_site.v)
    glued = th._spliced(
        dict(zip(at_v, host_rename(at_v, face_key))), piece_rename(tp.faces, face_key)
    )
    if not glued.validate().ok:
        raise InvariantError(f"glued face list is no closed surface: {glued.validate()}")
    if (len(glued.vertices), len(glued.edges), len(glued.faces)) != (
        len(th.vertices) + len(tp.vertices) - 2,
        len(th.edges) + len(tp.edges),
        len(th.faces) + len(tp.faces),
    ):
        raise InvariantError("glued V, E, F are not the sums V-2, E, F of host and piece")

    predicted = _predicted(host_site, piece_site, split, host_rename, piece_rename)
    shadow = _sole_zigzag_shadow(glued, predicted)
    z = predicted.canonical()
    cls = classify(glued, _oriented((z,), (0,) if z == predicted else (1,)))
    vars(cls)["face_shadows"] = (shadow,)  # where the cached property keeps it
    if not cls.homogeneous:
        raise InvariantError("glued orientation is not homogeneous")
    if set(cls.type_i_vertices) != set(host.type_i_vertices) | set(piece.type_i_vertices):
        raise InvariantError("gluing did not preserve the type-I vertices")
    return cls


# ----------------------------------------------------------------------
# survival of other pairs


def _edge_in_segments(segments: dict[str, tuple[Pass, ...]], edge: Edge, index: int) -> bool:
    return all(any(p.edge == edge for p in segments[f"{index}{sign}"]) for sign in "+-")


def inherited_pairs(
    glued: Classification,
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
    the glued zigzag, and SurgeryError names an input pair that is not.
    """
    if len(glued.orientation.zigzags) != 1:
        raise SurgeryError("inherited pairs are defined for a z-knotted glued triangulation")
    host_rename, piece_rename = _namers(host_site, piece_site, _split_names(host_site, piece_site))

    def survivors(site: GluingSite, pairs, rename):
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
            new_e1, new_e2 = rename(ordered, edge_key)
            shared = set(new_e1) & set(new_e2)
            if (
                len(shared) != 1
                or any(glued.edge_types.get(e) != "II" for e in (new_e1, new_e2))
                or _pattern_problem(glued, HOST, new_e1, new_e2)
            ):
                raise SurgeryError(
                    f"pair {pair.e1}/{pair.e2} at {pair.shared_vertex!r} lies in the "
                    "surviving segments but is no special pair of the glued zigzag"
                )
            out.append(SpecialPair(new_e1, new_e2, shared.pop()))
        return out

    found = survivors(host_site, host_pairs, host_rename)
    found += survivors(piece_site, piece_pairs, piece_rename)
    return tuple(sorted(found, key=lambda p: (p.e1, p.e2)))
