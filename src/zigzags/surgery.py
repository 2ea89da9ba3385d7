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
1+, 2+, 1-, 2- cyclically.  With e1 passed at a < b and e2 at m between
them and once outside, the walk from a reads e1, e2, e1, e2, each edge's
passes entering opposite sides, so it reads 1+ then 2+ exactly when the
passes at a and m enter faces on the same side.  This same-side rule
(_reads_forward) reads a host role order in O(1) from the pass positions:
find_special_pairs emits each pair in it without labeling a site, and
plan_gluing and tree builds take it for a host pair given in either
order.  A piece pair resolves in both orders, and plan_gluing takes the one
whose edges point at the shared vertex the way the host's do.  resolve_site
never reorders: it resolves the pair as given or raises SurgeryError.

Every function here takes the Classification of a (t, tau), the one
analysis classify(t, tau) builds once t passes its closed-surface check,
and reads the pass positions it derives on first use; the face a pair pass
enters is read off the chosen walk by the one turn rule, engine._turn.  A
GluingSite stores only what resolving decides: the classification it was
resolved on, the pair in its role order, the +/- side of each interior link
vertex of v, and the four cut segments with their ends.  It derives only
its kind, from the zigzag census (one zigzag makes a host, two or four a
piece); the pair edges' directions are the classification's, and each pair
face lies on the side of its interior link vertex.

Every entry point checks each classification it takes for the role it
fills by one rule, _require_site: homogeneity first, then the census.

Gluing renames vertices by one rule (_namer), for faces, passes and edges
alike: v becomes v+ or v-, the side of the interior link vertex of the face
or edge it lies on, the piece's v1, v2 take the host's names, and its
other vertices take a prefix (tree_build's node<id>.), so one unprefixed
piece serves many gluings.  A piece cell off v, v1 and v2 keeps its type.

All glue outputs are verified rather than trusted.  A _Surface holds a
growing surface, and each glue changes it in place: only the faces and
passes at v are renamed, the piece's faces are appended, and the glued walk
rearranges the host's four arcs around the split edges' passes and the
piece's renamed segments.  Each glue is then checked at the cost of what it
changed: the edges and vertices it touched lie in two faces and have a
one-cycle link; the V, E, F sums hold; where the zigzag changed, its passes
chain, its turns follow the successor rule and its II,I,I phase holds; each
split or new edge is passed twice with the type of the edge it came from,
the split copies type II; every new face is type I; and each touched vertex
keeps its type.  A finished surface is audited once in full: its
Triangulation is validated, the zigzag is walked as its only zigzag
(engine._sole_zigzag_shadow), and classify, homogeneity and the type-I
vertices are checked.  Any failure raises InvariantError, an explicit check
that also runs under python -O, and a failed glue check names the glue.
glue runs one gluing on a copy of the host, along the host site as it was
resolved, and audits the result; generators.tree_build runs all of a
tree's gluings on one surface, resolving each host pair on it, and audits
it once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

from .engine import (
    Classification,
    InvariantError,
    Pass,
    Zigzag,
    _oriented,
    _sole_zigzag_shadow,
    _turn,
    classify,
    make_pass,
)
from .triangulation import (
    Triangulation,
    _edge_violations,
    _face_edges,
    _link_cycle,
    _link_violations,
    edge_key,
    face_key,
)

__all__ = [
    "HOST",
    "TWO_ZIGZAG",
    "FOUR_ZIGZAG",
    "SurgeryError",
    "InvariantError",
    "SpecialPair",
    "GluingSite",
    "find_special_pairs",
    "find_piece_pairs",
    "resolve_site",
    "plan_gluing",
    "check_compatibility",
    "predict_glued_zigzag",
    "glue",
]

Edge = tuple[str, str]
Face = tuple[str, str, str]

HOST = "host"
TWO_ZIGZAG = "two_zigzag_piece"
FOUR_ZIGZAG = "four_zigzag_piece"
# the site kind of a zigzag census; any other census makes none
_KINDS = {1: HOST, 2: TWO_ZIGZAG, 4: FOUR_ZIGZAG}
# the site kinds a role admits -> what it says of any other census
_NEEDS = {
    (HOST,): "a host needs one zigzag, not {}",
    (TWO_ZIGZAG, FOUR_ZIGZAG): "a piece needs two or four zigzags, not {}",
    tuple(_KINDS.values()): "no site kind for a census of {} zigzags",
}
_HOST_ROLE, _PIECE_ROLE, _ANY_ROLE = _NEEDS


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
    """The site kind of a classification's zigzag census."""
    return _KINDS.get(len(cls.orientation.zigzags))


@dataclass(frozen=True, eq=False)
class GluingSite:
    """A resolved pair: its sides and cut segments, and what they imply.

    segments maps "1+", "1-", "2+", "2-" to passes, each cut by _arc, the
    one slice rule, from its chosen zigzag's passes.  For a host they are
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


# ----------------------------------------------------------------------
# preconditions


def _require_site(cls: Classification, kinds: tuple[str, ...]) -> str:
    """The site kind of a classification that can fill a role: homogeneous,
    and of one of the role's kinds.  Raises SurgeryError otherwise."""
    if not cls.homogeneous:
        raise SurgeryError("gluing sites require a homogeneous z-orientation")
    kind = _kind(cls)
    if kind not in kinds:
        raise SurgeryError(_NEEDS[kinds].format(len(cls.orientation.zigzags)))
    return kind


def _heads(directions: dict[Edge, tuple[str, str]], pair: SpecialPair) -> tuple[bool, ...]:
    """Whether e1 and whether e2 point into the shared vertex, given the
    type-II edge directions."""
    return tuple(directions[e][1] == pair.shared_vertex for e in (pair.e1, pair.e2))


# ----------------------------------------------------------------------
# finding pairs


def _pattern_problem(kind: str, e1: Edge, e2: Edge, at1, at2) -> str | None:
    """Why the type-II edges e1, e2, passed at the (zigzag index, position)
    lists at1 and at2 in walk order, miss the occurrence pattern of a site
    kind (a host's: see the module docstring; a piece's: find_piece_pairs),
    or None.  Double cover passes each of them twice."""
    (z1, a), (y1, b) = at1
    (z2, c), (y2, d) = at2
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


def _candidates(cls: Classification, kind: str) -> list[tuple[Edge, Edge, str]]:
    """(c1, c2, v), sorted, for the type-II edges c1 < c2 that share a vertex
    v and show the occurrence pattern of the site kind."""
    at = cls.pass_positions
    by_vertex: dict[str, list[Edge]] = {}
    for e in cls.type_ii_edges:
        for v in e:
            by_vertex.setdefault(v, []).append(e)
    return sorted(
        (c1, c2, v)
        for v, es in by_vertex.items()
        for i, c1 in enumerate(es)
        for c2 in es[i + 1:]
        if _pattern_problem(kind, c1, c2, at[c1], at[c2]) is None
    )


def find_special_pairs(cls: Classification) -> tuple[SpecialPair, ...]:
    """All special pairs, each emitted once in its resolvable role order.

    The +/- side condition singles out exactly one of the two role orders
    (e1, e2) and (e2, e1).  Each candidate is checked as resolve_site checks
    it and built once in that order, read by the same-side rule (see Role
    orders above) in O(1), so each pair is directly usable as a host site.
    """
    _require_site(cls, _HOST_ROLE)
    at, walks = cls.pass_positions, [z.passes for z in cls.orientation.chosen]
    links: dict[str, dict[str, int]] = {}  # a vertex may share many pairs
    out = []
    for c1, c2, v in _candidates(cls, HOST):
        if v not in links:
            links[v] = _positions(cls.triangulation.vertex_link(v))
        pair_at = (at[c1], at[c2])
        _, entered = _pass_sides(links[v], c1, c2, v, pair_at, walks)
        out.append(SpecialPair(*((c1, c2) if _reads_forward(pair_at, entered) else (c2, c1)), v))
    return tuple(out)


def find_piece_pairs(cls: Classification) -> tuple[SpecialPair, ...]:
    """Vertex-sharing type-II pairs showing a piece occurrence pattern.

    Two-zigzag pattern: e1 occurs twice in one chosen zigzag and e2 twice in
    another.  Four-zigzag pattern: e1 occurs once in each of two zigzags and
    e2 once in each of the other two.
    """
    kind = _require_site(cls, _PIECE_ROLE)
    return tuple(SpecialPair(c1, c2, v) for c1, c2, v in _candidates(cls, kind))


# ----------------------------------------------------------------------
# resolving a site


_NO_LABELING = "no +/- labeling is consistent with the side condition"


def _positions(cycle) -> dict[str, int]:
    """Link vertex -> its position along the link cycle."""
    return {w: i for i, w in enumerate(cycle)}


def _arc(passes, start: int, stop: int):
    """The passes strictly between positions start and stop, cyclically, as
    a slice of passes: the one rule that cuts every segment.  When stop is
    start that is every pass but the one at start."""
    return passes[start + 1:stop] if start < stop else passes[start + 1:] + passes[:stop]


def _pair_problem(kind: str, edges, directions: dict, pair: SpecialPair, passes_of) -> str | None:
    """Why the pair misses the occurrence pattern of the site kind, given the
    edges and the type-II directions, or None; passes_of(e) lists a type-II
    edge's passes as _pattern_problem takes them.

    Every reason here holds for both role orders of a pair or for neither.
    """
    for e in (pair.e1, pair.e2):
        if e not in edges:
            return f"pair edge {e} is no edge of the triangulation"
        if e not in directions:
            return f"pair edge {e} is not type II"
    return _pattern_problem(kind, pair.e1, pair.e2, passes_of(pair.e1), passes_of(pair.e2))


def _checked(cls: Classification, kind: str, pair: SpecialPair) -> SpecialPair:
    passes_of = cls.pass_positions.__getitem__
    problem = _pair_problem(kind, cls.edge_types, cls.edge_directions, pair, passes_of)
    if problem is not None:
        raise SurgeryError(problem)
    return pair


def _pass_sides(pos: dict[str, int], e1: Edge, e2: Edge, v: str, at, walks):
    """The side test at v (see Sides above) in O(1), given pos, v's link
    position map; at, e1's and e2's passes as (zigzag index, position) in
    walk order; and walks[zi], the passes of zigzag zi.  The pass at r of
    zigzag zi enters _turn(walks[zi], r), whose vertex off the pair edge is
    w, the end of the next pass.  Returns side(w), whether link vertex w is
    on the arc from v1 to v2, and each pass as (the face it enters, the side
    of that face).  Raises SurgeryError when a pass turns in no face at v, or
    when e1's passes, then e2's, enter faces on one side."""
    v1 = e1[0] if e1[1] == v else e1[1]
    v2 = e2[0] if e2[1] == v else e2[1]
    n, i1 = len(pos), pos[v1]
    span = (pos[v2] - i1) % n
    # every caller has required homogeneity, so each face holds one type-II
    # edge and v1, v2 are apart in the link: no face holds both pair edges,
    # each pair face has one vertex off v, v1, v2 and each pair edge has one
    # face on each arc

    def side(w: str) -> bool:
        return (pos[w] - i1) % n < span

    entered = []
    for e, i_far, passes in zip((e1, e2), (i1, pos[v2]), at):
        for zi, r in passes:
            w = walks[zi][(r + 1) % len(walks[zi])].dst
            # w beside the far end in v's link makes those three a face
            if (pos.get(w, i_far) - i_far) % n not in (1, n - 1):
                raise SurgeryError(f"pass {r} of zigzag {zi} over {e} turns in no face at {v!r}")
            entered.append((_turn(walks[zi], r), side(w)))
        if entered[-2][1] == entered[-1][1]:
            what = "occurrences of" if passes[0][0] == passes[1][0] else "zigzags through"
            raise SurgeryError(f"{what} {e} do not cross its faces oppositely")
    return side, entered


def _reads_forward(at, entered) -> bool:
    """The same-side rule (see Role orders above): whether e1's first pass
    and e2's pass between e1's two enter faces on the same side."""
    ((_, a), (_, b)), ((_, c), _) = at
    return entered[0][1] == entered[2 if a < c < b else 3][1]


def _labeling(pair: SpecialPair, pos: dict[str, int], at, walks, host: bool):
    """The one +/- labeling of a checked pair (see Sides and Role orders
    above) in O(1), given as _pass_sides takes it, in the role order
    _reads_forward reads if host.  Returns the pair in that order, each
    interior link vertex of v -> its sign, and each pass's key -> its pass."""
    side, entered = _pass_sides(pos, pair.e1, pair.e2, pair.shared_vertex, at, walks)
    # the passes enter the four pair faces, one each: the least takes "-"
    minus = min(entered)[1]
    signs = {minus: "-", not minus: "+"}
    sides = {w: signs[side(w)] for w in pos if w != pair.v1 and w != pair.v2}
    roles = "1122"
    if host and not _reads_forward(at, entered):
        pair, roles = pair.swapped(), "2211"
    keys = {i + signs[s]: p for i, p, (_, s) in zip(roles, chain(*at), entered)}
    return pair, sides, keys


def _segments(keys: dict[str, tuple[int, int]], zigzags) -> tuple[dict, dict[str, str]]:
    """Each key -> its segment, cut by _arc from zigzags[zigzag index] (a
    sequence of passes) between its pass and the next pair pass along that
    zigzag; and each key -> that next pass's key, its segment's end."""
    ends = {
        key: min(
            (k for k, (zj, _) in keys.items() if zj == zi),
            key=lambda k: (keys[k][1] - r - 1) % len(zigzags[zi]),
        )
        for key, (zi, r) in keys.items()
    }
    segments = {key: _arc(zigzags[zi], r, keys[ends[key]][1]) for key, (zi, r) in keys.items()}
    return segments, ends


def _resolve(cls: Classification, pair: SpecialPair) -> GluingSite:
    """Label, split, and cut a checked pair, in the role order its labeling
    reads: for a host pair that may be the swapped order, for a piece pair
    it is the order given.  Each segment runs from a pair pass to the next
    pair pass in the same chosen zigzag, whose key is its end: the host's
    four arcs, a two-zigzag piece's halves of each zigzag, a four-zigzag
    piece's whole zigzags less one pass.
    """
    pos, at = _positions(cls.triangulation.vertex_link(pair.shared_vertex)), cls.pass_positions
    at_pair, walks = (at[pair.e1], at[pair.e2]), [z.passes for z in cls.orientation.chosen]
    ordered, sides, keys = _labeling(pair, pos, at_pair, walks, _kind(cls) == HOST)
    segments, ends = _segments(keys, walks)
    return GluingSite(cls, ordered, sides, segments, ends)


def resolve_site(cls: Classification, pair: SpecialPair) -> GluingSite:
    """Label the pair's faces, split the link into sides, and cut segments.

    The site kind is inferred from the zigzag census: one zigzag makes a
    host, two or four make a piece.  Raises SurgeryError when the pair does
    not show the occurrence pattern its kind requires, or, for a host, when
    its role order fails the side condition.
    """
    site = _resolve(cls, _checked(cls, _require_site(cls, _ANY_ROLE), pair))
    if site.pair is not pair:
        raise SurgeryError(_NO_LABELING)
    return site


def _piece_site(piece: Classification, wanted: tuple[bool, ...], piece_pairs) -> GluingSite:
    """The piece half of plan_gluing: the first candidate resolved in the
    role order whose pair-edge heads are wanted."""
    kind = _require_site(piece, _PIECE_ROLE)
    given = 0
    for given, cand in enumerate(piece_pairs, 1):
        for pair in (_checked(piece, kind, cand), cand.swapped()):
            if _heads(piece.edge_directions, pair) == wanted:
                return _resolve(piece, pair)
    if not given:
        raise SurgeryError("no piece pair was given")
    raise SurgeryError(
        "pair directions at the shared vertices do not match in either role order"
    )


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
    host_site = _resolve(host, _checked(host, _require_site(host, _HOST_ROLE), host_pair))
    wanted = _heads(host.edge_directions, host_site.pair)
    return host_site, _piece_site(piece, wanted, piece_pairs)


# ----------------------------------------------------------------------
# gluing


def check_compatibility(host_site: GluingSite, piece_site: GluingSite) -> bool:
    """Each split edge must point the same way at the shared vertex on both
    sides.  Raises SurgeryError when the sites are no host and piece."""
    _require_site(host_site.classification, _HOST_ROLE)
    _require_site(piece_site.classification, _PIECE_ROLE)
    return _heads(host_site.classification.edge_directions, host_site.pair) == _heads(
        piece_site.classification.edge_directions, piece_site.pair
    )


def _require_gluable(host_site: GluingSite, piece_site: GluingSite) -> None:
    """glue's preconditions on its sites: check_compatibility's kinds, and
    matching directions."""
    if not check_compatibility(host_site, piece_site):
        raise SurgeryError("pair directions at the shared vertices do not match")


def _namer(v: str, sides: dict[str, str], split: dict[str, str], renames: dict[str, str]):
    """The one renaming rule of a gluing, for one site's faces, edges and passes.

    rename(cells, make) renames the vertices of each cell, a host cell at v or
    a piece cell, and rebuilds it as make(*entries); a pass's edge entry,
    being no vertex, reaches make unchanged.  The split vertex v takes the
    name split[side] for the side, in sides, of the interior link vertex of
    the face or edge it lies on: every face at v has one, and so does every
    edge at v but e1 and e2.  A vertex in renames takes its new name; any
    other keeps its own.
    """

    def renamed(cell, make):
        at = split[sides[next(w for w in cell if w in sides)]] if v in cell else v
        return make(*(at if u == v else renames.get(u, u) for u in cell))

    return lambda cells, make: [renamed(c, make) for c in cells]


def _namers(pair: SpecialPair, sides: dict[str, str], piece_site: GluingSite, split, named):
    """The renaming of the host, cut at pair with the given sides, and of the
    piece: its v1, v2 take the host's names, the others their names in named."""
    piece_pair = piece_site.pair
    renames = {**named, piece_pair.v1: pair.v1, piece_pair.v2: pair.v2}
    return (
        _namer(pair.shared_vertex, sides, split, {}),
        _namer(piece_pair.shared_vertex, piece_site.vertex_sides, split, renames),
    )


def _renamed_pass(_edge: Edge, src: str, dst: str) -> Pass:
    return make_pass(src, dst)


def _glued_walk(host_ends: dict[str, str], piece_ends: dict[str, str]):
    """The eight steps of the glued walk (see the module docstring) as
    (site, key): site 0 is the host, 1 the piece."""
    ends, key = (host_ends, piece_ends), "1+"
    for step in range(8):
        yield step % 2, key
        end = ends[step % 2][key]
        key = end[0] + ("-" if end[1] == "+" else "+")


def _reindex(index: dict, lost, gained, cells) -> tuple[dict, list]:
    """Move the lost faces out of index (cell -> its faces as a sorted tuple)
    and the gained faces in, where cells(face) lists the cells of a face.
    Returns each cell touched -> (its lost faces, its gained faces), and the
    cells new to the index."""
    change: dict = {}
    for i, faces in enumerate((lost, gained)):
        for f in faces:
            for cell in cells(f):
                change.setdefault(cell, ([], []))[i].append(f)
    born = []
    for cell, (out, into) in change.items():
        if cell in index:
            kept = list(index[cell])
            for f in out:
                kept.remove(f)
            kept += into
        else:
            born.append(cell)
            kept = into
        if kept:
            index[cell] = tuple(sorted(kept))
        else:
            del index[cell]
    return change, born


def _relinked(x: str, lost, gained, born_edges: set, edge_faces: dict) -> bool:
    """Whether the link of x, one cycle before x's lost faces were swapped
    for its gained ones, is one cycle after: the lost faces' link edges make
    a path, and the gained faces' a path between the same ends whose inner
    vertices were no neighbours of x, while the lost path's are no more."""
    old, new = _link_cycle(x, lost, closed=False), _link_cycle(x, gained, closed=False)
    return (
        old is not None
        and new is not None
        and {old[0], old[-1]} == {new[0], new[-1]}
        and all(edge_key(x, y) in born_edges for y in new[1:-1])
        and all(edge_key(x, y) not in edge_faces for y in old[1:-1])
    )


class _Cut(NamedTuple):
    """A host pair resolved on a _Surface, holding what a GluingSite holds
    but its classification: the pair in its role order, the side of each
    interior link vertex, each key's segment, cut by _arc from the surface's
    pass list, and each key's segment end."""

    pair: SpecialPair
    vertex_sides: dict[str, str]
    segments: dict[str, list[Pass]]
    ends: dict[str, str]


class _Change(NamedTuple):
    """What one splice changed, for its checks."""

    sizes: tuple[int, int, int]  # the V, E, F the glued surface must have
    gained: list[Face]  # the renamed faces at v and the piece's faces
    edges: list[Edge]  # the edges of lost or gained faces, sorted
    vertices: dict[str, tuple[list, list]]  # each vertex of one -> its lost, gained faces
    born: list[Edge]  # the edges new to the surface
    fresh: set[str]  # the vertices new to the surface
    types: dict[Edge, str]  # each renamed or split edge -> the type it must have
    copied: list[Edge]  # the other piece edges
    directions: dict[Edge, tuple[str, str]]  # each copied type-II edge -> its direction
    junctions: list[int]  # the positions of the split edges' passes
    dirty: list[int]  # the positions of the split and renamed passes
    type_i: set[str]  # the piece's type-I vertices


class _Surface:
    """A z-knotted homogeneous surface that gluings grow in place.

    It holds what its Triangulation and the Classification of its single
    zigzag would, kept current glue by glue: the face list and each face's
    slot in it, the edge and vertex indexes (cell -> its faces as a sorted
    tuple, as Triangulation keeps them), the zigzag as a list of passes in
    its chosen direction at any rotation, the directions of the type-II
    edges (an edge is type II exactly when it has one), the type-I vertices,
    and how many type-II edges end at each vertex.  A glue costs what it
    changes plus list.index scans and list slices, which run in C; no Python
    loop runs over the host's faces, edges or passes.
    """

    def __init__(self, host: Classification) -> None:
        _require_site(host, _HOST_ROLE)
        t = host.triangulation
        self.faces = list(t.faces)
        self.slots = dict(zip(self.faces, range(len(self.faces))))
        self.edge_faces = dict(t._edge_faces)
        self.vertex_faces = dict(t._vertex_faces)
        self.passes = list(host.orientation.chosen[0].passes)
        self.edge_directions = dict(host.edge_directions)
        self.type_i = set(host.type_i_vertices)
        # vertex -> the number of type-II edges ending at it
        self.ii_ends = Counter(chain.from_iterable(host.edge_directions))

    def _at(self, e: Edge) -> list[int]:
        """The positions of the two passes over e, ascending: a type-II edge
        is passed twice its one way, a type-I edge once each way."""
        ps = self.passes
        try:
            if e in self.edge_directions:
                p = Pass(e, *self.edge_directions[e])
                i = ps.index(p)
                return [i, ps.index(p, i + 1)]
            u, w = e
            return sorted((ps.index(Pass(e, u, w)), ps.index(Pass(e, w, u))))
        except ValueError:
            raise InvariantError(f"edge {e} is not passed twice as its type says") from None

    def cut(self, pair: SpecialPair) -> _Cut:
        """Resolve a host pair in the role order its labeling reads, by the
        checks and labeling resolve_site runs on a classification."""
        at: dict[Edge, list[tuple[int, int]]] = {}
        problem = _pair_problem(
            HOST, self.edge_faces, self.edge_directions, pair,
            lambda e: at.setdefault(e, [(0, r) for r in self._at(e)]),
        )
        if problem is not None:
            raise SurgeryError(problem)
        pos = _positions(_link_cycle(pair.shared_vertex, self.vertex_faces[pair.shared_vertex]))
        at_pair = (at[pair.e1], at[pair.e2])
        ordered, sides, keys = _labeling(pair, pos, at_pair, (self.passes,), host=True)
        segments, ends = _segments(keys, (self.passes,))
        return _Cut(ordered, sides, segments, ends)

    def splice(self, host: _Cut | GluingSite, piece_site: GluingSite, prefix: str = "") -> _Change:
        """Glue the piece in along the host site, in place, unchecked; the
        host site is a _Cut of this surface or a GluingSite resolved on the
        classification it was copied from.  The piece's vertices but v, v1
        and v2 take the prefix.

        The faces at v take their renamed keys in their slots and the
        piece's renamed faces are appended.  The glued walk joins the split
        edges' passes, the host's four segments and the piece's renamed
        segments into the new pass list, and the host's passes at v are
        renamed where they lie in it.
        """
        piece = piece_site.classification
        tp = piece.triangulation
        pair, v = host.pair, host.pair.shared_vertex
        named = {u: prefix + u for u in tp.vertices}
        names = set(named.values())
        if any(u in self.vertex_faces for u in names):
            raise SurgeryError("host and piece vertex namespaces must be disjoint")
        # side "+"/"-" -> the name v+/v- of that half of the split vertex
        split = {side: v + side for side in "+-"}
        if any(x in self.vertex_faces or x in names for x in split.values()):
            raise SurgeryError(
                f"split vertex names {split['+']!r}/{split['-']!r} collide with existing vertices"
            )
        host_rename, piece_rename = _namers(pair, host.vertex_sides, piece_site, split, named)
        sizes = (
            len(self.vertex_faces) + len(tp.vertices) - 2,
            len(self.edge_faces) + len(tp.edges),
            len(self.faces) + len(tp.faces),
        )

        # each new edge and the type of the edge it came from: the renamed
        # edges at v and at the piece's v, v1, v2, the pair edges' split
        # copies type II, and the piece's other edges, copied
        lost = self.vertex_faces[v]
        at_v = sorted({e for f in lost for e in _face_edges(f) if v in e} - pair.edges())
        kinds = ("II" if e in self.edge_directions else "I" for e in at_v)
        types = dict(zip(host_rename(at_v, edge_key), kinds))
        halves = split.values()
        types.update((edge_key(half, w), "II") for w in (pair.v1, pair.v2) for half in halves)
        piece_pair = piece_site.pair
        at_piece = [e for e in tp.edges if e != piece_pair.e1 and e != piece_pair.e2]
        seam = {piece_pair.shared_vertex, piece_pair.v1, piece_pair.v2}
        copied: list[Edge] = []
        directions: dict[Edge, tuple[str, str]] = {}
        for e, g in zip(at_piece, piece_rename(at_piece, edge_key)):
            if seam.intersection(e):
                types[g] = piece.edge_types[e]
            else:
                copied.append(g)
                if e in piece.edge_directions:
                    directions[g] = tuple(map(named.get, piece.edge_directions[e]))

        gained = host_rename(lost, face_key) + piece_rename(tp.faces, face_key)
        edges, vertices, born, fresh = self._swap(lost, gained)

        # the glued walk: each key's split-edge pass, then its host segment
        # or its renamed piece segment
        heads = {"1": self.edge_directions[pair.e1], "2": self.edge_directions[pair.e2]}
        new: list[Pass] = []
        junctions: list[int] = []  # where the split edges' passes lie in new
        dirty: list[int] = []  # where the renamed passes lie in new
        for site, key in _glued_walk(host.ends, piece_site.ends):
            junctions.append(len(new))
            new.append(make_pass(*(split[key[1]] if x == v else x for x in heads[key[0]])))
            start = len(new)
            if site == 0:
                new += host.segments[key]
            else:
                segment = piece_site.segments[key]
                dirty += [start + i for i, (e, _, _) in enumerate(segment) if seam.intersection(e)]
                new += piece_rename(segment, _renamed_pass)
        # the host's passes at v take their renamed edges where they lie
        self.passes = new
        moved = [r for e in at_v for r in self._at(e)]
        for r, p in zip(moved, host_rename([new[r] for r in moved], _renamed_pass)):
            new[r] = p
        # a piece's type-I vertices are off its pair, so they take the prefix
        type_i = {named[x] for x in piece.type_i_vertices}
        return _Change(
            sizes, gained, edges, vertices, born, fresh, types, copied, directions, junctions,
            junctions + dirty + moved, type_i,
        )

    def _swap(self, lost, gained):
        """Put the gained faces in: the first ones in the lost faces' slots,
        the rest at the end.  Returns the edges of lost or gained faces,
        sorted; each vertex of one -> (its lost faces, its gained faces);
        and the edges and the vertices new to the surface."""
        n_faces = len(self.faces)
        slots = [self.slots.pop(f) for f in lost]
        slots += range(n_faces, n_faces + len(gained) - len(lost))
        self.faces += gained[len(lost):]
        for slot, g in zip(slots, gained):
            if g in self.slots:
                raise InvariantError(f"glued face {g} is repeated")
            self.slots[g] = slot
            self.faces[slot] = g
        edges, born = _reindex(self.edge_faces, lost, gained, _face_edges)
        vertices, fresh = _reindex(self.vertex_faces, lost, gained, lambda f: f)
        return sorted(edges), vertices, born, set(fresh)

    def check(self, change: _Change) -> None:
        """The checks of one splice, each at the cost of what it changed (see
        the module docstring); they bring the type-II directions and ends
        and the type-I vertices up to date.  Raises InvariantError."""
        ef, vf, born = self.edge_faces, self.vertex_faces, set(change.born)
        violations = _edge_violations(ef, [e for e in change.edges if e in ef])
        # a new vertex's whole link is walked, an old one's where it changed
        violations += _link_violations(
            sorted(x for x in change.vertices if x in vf),
            lambda x: (
                _link_cycle(x, vf[x]) is not None
                if x in change.fresh
                else _relinked(x, *change.vertices[x], born, ef)
            ),
        )
        if violations:
            raise InvariantError("glued face list is no closed surface: " + "\n".join(violations))
        if (len(vf), len(ef), len(self.faces)) != change.sizes:
            raise InvariantError("glued V, E, F are not the sums V-2, E, F of host and piece")
        ps = self.passes
        n = len(ps)
        if n != 2 * len(ef):
            raise InvariantError(f"zigzag has {n} passes, not 2E = {2 * len(ef)}")
        strays = born ^ change.types.keys() ^ set(change.copied)
        if strays:
            raise InvariantError(f"edge {min(strays)} is not both new and renamed from an edge")

        # the walk where a pass is new or renamed: its passes chain and turn
        # in faces, a different face after each pass.  Elsewhere two passes
        # turn as they did in host or piece, in a face that kept its key
        turns: dict[int, Face] = {}

        def turn(i: int) -> Face:
            i %= n
            if i not in turns:
                if ps[i].dst != ps[(i + 1) % n].src:
                    raise InvariantError(f"passes {i} and {(i + 1) % n} do not chain")
                turns[i] = _turn(ps, i)
                if turns[i] not in self.slots:
                    raise InvariantError(f"passes {i} and {(i + 1) % n} turn in no face")
            return turns[i]

        for d in change.dirty:
            for i in (d - 1, d, d + 1):
                if turn(i - 1) == turn(i):
                    raise InvariantError(
                        f"zigzag turns twice in face {turn(i)} at position {i % n}"
                    )

        # each renamed or split edge passed twice, with the type it must have
        passed: dict[Edge, list[tuple[str, str]]] = {}
        for d in change.dirty:
            e, src, dst = ps[d]
            passed.setdefault(e, []).append((src, dst))
        directions, ends = self.edge_directions, self.ii_ends
        born_directions = dict(change.directions)
        for e, kind in change.types.items():
            got = passed.pop(e, [])
            if len(got) != 2:
                raise InvariantError(f"new edge {e} is passed {len(got)} time(s), not twice")
            if ("II" if got[0] == got[1] else "I") != kind:
                raise InvariantError(f"new edge {e} is not type {kind}")
            if kind == "II":
                born_directions[e] = got[0]
        if passed:
            raise InvariantError(f"zigzag passes {min(passed)}, no new edge, where it changed")
        for e in change.edges:
            if e not in ef:
                ends.subtract(directions.pop(e, ()))
        directions.update(born_directions)
        for e in born_directions:
            ends.update(e)

        for f in change.gained:
            if sum(e in directions for e in _face_edges(f)) != 1:
                raise InvariantError(f"glued face {f} is not type I")

        def ii(i: int) -> bool:
            return ps[i % n].edge in directions

        # the II,I,I phase across each junction; elsewhere every window of
        # four passes reads as it did in host or piece
        for j in change.junctions:
            for i in range(j - 3, j + 1):
                if ii(i) != ii(i + 3):
                    raise InvariantError(f"zigzag breaks its II,I,I phase at position {i % n}")

        # each touched vertex is type I, ending no type-II edge, exactly when
        # host or piece had it so
        self.type_i |= change.type_i
        for x in change.vertices:
            if x not in vf:
                self.type_i.discard(x)
                del ends[x]
            elif (ends[x] == 0) != (x in self.type_i):
                raise InvariantError(f"vertex {x} changed its type")

    def glue(
        self, host: _Cut | GluingSite, piece_site: GluingSite, what: str, prefix: str = ""
    ) -> None:
        """Splice the piece in under the prefix and check it; a failed check
        raises InvariantError whose message starts with what, naming the glue."""
        try:
            self.check(self.splice(host, piece_site, prefix))
        except InvariantError as exc:
            raise InvariantError(f"{what}: {exc}") from None

    def finish(self) -> Classification:
        """The surface's Triangulation and the classification of its zigzag,
        after the full audit; the surface is spent."""
        t = Triangulation._indexed(self.faces, self.edge_faces, self.vertex_faces)
        if not t.validate().ok:
            raise InvariantError(f"glued face list is no closed surface: {t.validate()}")
        walked = Zigzag(tuple(self.passes))
        _sole_zigzag_shadow(t, walked)
        z = walked.canonical()
        cls = classify(t, _oriented((z,), (0,) if z == walked else (1,)))
        if not cls.homogeneous:
            raise InvariantError("glued orientation is not homogeneous")
        if set(cls.type_i_vertices) != self.type_i:
            raise InvariantError("gluing did not preserve the type-I vertices")
        return cls


def predict_glued_zigzag(host_site: GluingSite, piece_site: GluingSite) -> Zigzag:
    """Assemble the glued zigzag from the cut segments by the glued walk
    (see the module docstring), on a _Surface copied from the host.

    With host segments A and two-zigzag piece segments B the walk yields
    e1+, A1+, e2-, B2-, e2-, A2-, e1-, B1-, e1-, A1-, e2+, B2+, e2+, A2+,
    e1+, B1+.  With four-zigzag piece segments C it yields e1+, A1+, e2-,
    C2-, e2+, A2+, e1+, C1+, e1-, A1-, e2+, C2+, e2-, A2-, e1-, C1-.
    Raises SurgeryError when the sites fail glue's preconditions.
    """
    _require_gluable(host_site, piece_site)
    surface = _Surface(host_site.classification)
    surface.splice(host_site, piece_site)
    return Zigzag(tuple(surface.passes))


def glue(host_site: GluingSite, piece_site: GluingSite) -> Classification:
    """Glue a piece into a host along resolved sites; returns the result's
    classification, with its single zigzag oriented as predicted.

    The host site must come from a z-knotted homogeneous triangulation, the
    piece site from a two- or four-zigzag homogeneous one; directions must
    match at the shared vertices and the vertex namespaces must be disjoint.

    The gluing runs on a _Surface copied from the host, along the host site
    as it was resolved: it is spliced in place and checked where it changed,
    then the result is audited in full, its predicted zigzag walked as its
    only zigzag rather than enumerated.  Raises InvariantError when the
    glued result fails a check: a closed surface, the V, E, F sums, the
    prediction as its only zigzag, homogeneity, and the type-I vertices.
    """
    _require_gluable(host_site, piece_site)
    surface = _Surface(host_site.classification)
    piece_v, host_v = piece_site.pair.shared_vertex, host_site.pair.shared_vertex
    surface.glue(host_site, piece_site, f"glued the piece at {piece_v} into the host at {host_v}")
    return surface.finish()

