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
reads a host role order in O(1) from the pass positions: find_special_pairs
emits each pair in it without labeling a site, and plan_gluing and tree
builds take it for a host pair given in either order.  The side test and
the rule are one function, _pass_sides, in two parts: a fact per (vertex,
edge), the link positions its passes turn toward (_turns), and a per-pair
part reading the four sides off two facts by arithmetic on link positions,
with no closure built.  find_special_pairs takes its candidates vertex by
vertex (_candidates): it walks the link of a vertex once, when the vertex
shares a first pair, and derives each fact at it once, so a candidate
costs O(1) and reads no face; only _labeling, which calls the same
_pass_sides, reads the faces the passes enter.
A piece pair resolves in both orders, and plan_gluing takes the one whose
edges point at the shared vertex the way the host's do.  resolve_site never
reorders: it resolves the pair as given or raises SurgeryError.

One check and one cut resolve every site, on a classification and on a tree
build's growing _Surface alike: _checked raises SurgeryError on a pair off
its kind's occurrence pattern, and _labeling labels the checked pair and
cuts its segments.  Both read pass positions only by comparing them, and
the cut reads a walk only by two operations of the walk's owner:
toward(zi, r), the vertex that pass r of zigzag zi turns toward, and
arc(zi, start, stop), the passes strictly between two positions.  A
classification's chosen walks supply them through _Chosen, a _Surface over
its own pass list.  A GluingSite is that cut with the classification it was
resolved on (_resolve); a _Surface's cut (_Cut) has no classification but
carries its pair's heads, and differs only in the vertex link, the pass
positions and the walk owner it hands over.

Every function here takes the Classification of a (t, tau), the one
analysis classify(t, tau) builds once t passes its closed-surface check,
and reads the pass positions it derives on first use; the face a pair pass
enters holds its edge and the vertex it turns toward.  A GluingSite stores
only what resolving decides: the classification it was resolved on, the
pair in its role order, the +/- side of each interior link vertex of v, and
the four cut segments with their ends.  It derives only its kind, from the
zigzag census (one zigzag makes a host, two or four a piece); the pair
edges' directions are the classification's, and each pair face lies on the
side of its interior link vertex.

Every entry point checks each classification it takes for the role it
fills by one rule, _require_site: homogeneity first, then the census.

Gluing renames vertices by one rule, for faces, passes and edges alike: v
becomes v+ or v-, the side of the first interior link vertex of the face or
edge it lies on (_side), the piece's v1, v2 take the host's names, and its
other vertices take a prefix (tree_build's node<id>.), so one unprefixed
piece serves many gluings.  Only the prefix and the host's names change from
one gluing of a piece site to the next, so each piece site compiles the rule
once, on first use, into a slot plan (GluingSite._plan): every piece face,
edge with its type and segment pass as slots of one name list, v+, v-, the
host's v1, v2 and the prefixed others.  A glue builds that list and keys
each planned cell; the host's cells at v are renamed by the rule directly
(_namer).  A _Surface is built from a classification under a prefix the same
way: a common prefix keeps every key's order, so one unprefixed analysis of
a root serves every tree build of a process, as one piece site and its plan
serve every glue.

All glue outputs are verified rather than trusted.  A _Surface holds a
growing surface, and each glue changes it in place: only the faces and
passes at v are renamed, the piece's faces are appended, and the glued walk
rearranges the host's four arcs around the split edges' passes and the
piece's renamed segments.  Its zigzag is its own: only its methods
__init__, _at, toward, arc, zigzag, splice and check read or write the pass
list, and a tree build reads no field of it, only the cut's heads and the
V, E, F each glue returns.  Its edge and vertex indexes keep each cell's
faces in an unsorted list, which a glue edits by the faces it moved alone,
so a cell of high degree, such as a star root's apex, costs no copy or sort
per glue; the finished surface sorts each cell once.  Each glue is then
checked at the cost of what it changed, by one rule for every cell it wrote,
the host's cells at v, the split edges and all of the piece's cells alike:
the edges and vertices it touched lie in two faces and have a one-cycle
link; the V, E, F sums hold; where the zigzag changed, its passes chain, its
turns follow the successor rule and its II,I,I phase holds across each
junction; each new edge is passed twice with the type of the edge it came
from, the split copies type II, and a type-II one takes the direction its
passes read; every new face is type I; and each touched vertex keeps its
type.  The link tests walk the surface's own edge index: a new vertex's
whole link by triangulation._link_walk, the walk vertex_link makes, and an
old vertex's only where it changed (_relinked), so a vertex of high degree
is not walked whole per glue.  A finished surface is audited once in full:
its Triangulation is validated, which walks each link by the same
_link_walk; the zigzag is checked as its only zigzag and kept as its
enumeration (engine._audit_sole_zigzag); and classify, homogeneity and the
type-I vertices are checked on that enumeration.  Any failure raises
InvariantError, an explicit check that also runs under python -O, and a
failed glue check names the glue.
glue runs one gluing on a copy of the host, along the host site as it was
resolved, and audits the result; generators.tree_build runs all of a tree's
gluings on one surface, resolving each host pair on it, and audits it once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import NamedTuple

from .engine import (
    Classification,
    InvariantError,
    Pass,
    Zigzag,
    _audit_sole_zigzag,
    _oriented,
    _turn,
    classify,
    make_pass,
)
from .triangulation import (
    Triangulation,
    _edge_violations,
    _face_edges,
    _link_violations,
    _link_walk,
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
        e1, e2, v = self.e1, self.e2, self.shared_vertex
        # an edge is re-keyed only when it is no canonical key already, as
        # find_special_pairs, swapped() and the generators hand them in
        if not (type(e1) is tuple and len(e1) == 2 and e1[0] < e1[1]):
            object.__setattr__(self, "e1", e1 := edge_key(*e1))
        if not (type(e2) is tuple and len(e2) == 2 and e2[0] < e2[1]):
            object.__setattr__(self, "e2", e2 := edge_key(*e2))
        # two distinct edges at v share v and nothing else
        if not (e1 != e2 and v in e1 and v in e2):
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


class _Plan(NamedTuple):
    """A piece site's renaming rule, decided for each of its cells (see
    Gluing renames above) but the names: a cell holds slots into a glue's
    name list, where slot 0 is v+, 1 is v-, 2 and 3 are the host's v1 and
    v2, and slot i from 4 is the prefix + vertices[i - 1].  A glue checks
    every cell it names from the plan, so the plan marks none as trusted."""

    vertices: tuple[str, ...]  # the piece's v, v1, v2, then the vertex of slots 4, 5, ...
    faces: list[tuple[int, ...]]  # each face, in the piece's face order
    edges: list[tuple[int, int, str]]  # each edge but e1, e2, in edge order, with its type
    segments: dict[str, list[tuple[int, ...]]]  # each key -> its segment's passes as (src, dst)
    type_i: tuple[int, ...]  # the piece's type-I vertices


def _side(cell, sides: dict[str, str]) -> str:
    """The side, in sides, of the first entry of cell that has one: that of
    the interior link vertex of a face or edge at the split vertex."""
    return sides[next(w for w in cell if w in sides)]


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
    A piece site compiles its renaming once, when first spliced, into the
    plan every glue of it reads.
    """

    classification: Classification  # the (t, tau) the pair was resolved on
    pair: SpecialPair
    vertex_sides: dict[str, str]  # link interior vertex -> "+"/"-"
    segments: dict[str, tuple[Pass, ...]]
    ends: dict[str, str]

    @property
    def kind(self) -> str | None:
        return _kind(self.classification)

    @cached_property
    def _plan(self) -> _Plan:
        """The piece's faces, edges, segments and type-I vertices in slots
        (see _Plan), each cell's slots chosen by the renaming rule."""
        piece, pair, sides = self.classification, self.pair, self.vertex_sides
        tp, v = piece.triangulation, pair.shared_vertex
        seam = (v, pair.v1, pair.v2)
        vertices = (*seam, *(u for u in tp.vertices if u not in seam))
        slot = {u: i for i, u in enumerate(vertices[1:], 2)}
        half = {"+": 0, "-": 1}

        def slots(cell) -> tuple[int, ...]:
            return tuple(half[_side(cell, sides)] if u == v else slot[u] for u in cell)

        types = piece.edge_types
        edges = [(*slots(e), types[e]) for e in tp.edges if e != pair.e1 and e != pair.e2]
        segments = {
            key: [slots((src, dst)) for _, src, dst in segment]
            for key, segment in self.segments.items()
        }
        type_i = tuple(map(slot.get, piece.type_i_vertices))
        return _Plan(vertices, list(map(slots, tp.faces)), edges, segments, type_i)


# ----------------------------------------------------------------------
# preconditions


def _require_census(k: int, kinds: tuple[str, ...]) -> str:
    """The site kind of a census of k zigzags that can fill a role: one of
    the role's kinds.  Raises SurgeryError otherwise."""
    kind = _KINDS.get(k)
    if kind not in kinds:
        raise SurgeryError(_NEEDS[kinds].format(k))
    return kind


def _require_site(cls: Classification, kinds: tuple[str, ...]) -> str:
    """The site kind of a classification that can fill a role: homogeneous,
    and of one of the role's kinds.  Raises SurgeryError otherwise."""
    if not cls.homogeneous:
        raise SurgeryError("gluing sites require a homogeneous z-orientation")
    return _require_census(len(cls.orientation.zigzags), kinds)


def _heads(directions: dict[Edge, tuple[str, str]], pair: SpecialPair) -> tuple[bool, ...]:
    """Whether e1 and whether e2 point into the shared vertex, given the
    type-II edge directions."""
    return tuple(directions[e][1] == pair.shared_vertex for e in (pair.e1, pair.e2))


# ----------------------------------------------------------------------
# finding pairs


def _pattern_problem(kind: str, at1, at2) -> str | None:
    """Why the type-II edges e1, e2, passed at the (zigzag index, position)
    lists at1 and at2 in walk order, miss the occurrence pattern of a site
    kind (a host's: see the module docstring; a piece's: find_piece_pairs),
    or None; the reason names them {e1} and {e2}, for str.format, so that a
    candidate search formats none.  Double cover passes each of them twice."""
    (z1, a), (y1, b) = at1
    (z2, c), (y2, d) = at2
    if kind == HOST:
        # passes are in walk order, so a < b: exactly one of c, d lies between
        if (a < c < b) == (a < d < b):
            return "occurrences of {e1} and {e2} do not interleave; not a special pair"
        return None
    h1, h2 = {z1, y1}, {z2, y2}
    for e, h in (("{e1}", h1), ("{e2}", h2)):
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


def _candidates(cls: Classification, kind: str):
    """(c1, c2, v) for the type-II edges c1 < c2 that share a vertex v and
    show the occurrence pattern of the site kind, vertex by vertex."""
    at, by_vertex = cls.pass_positions, {}
    for e in sorted(cls.edge_directions):
        for v in e:
            by_vertex.setdefault(v, []).append(e)
    for v, es in by_vertex.items():
        for i, c1 in enumerate(es, 1):
            for c2 in es[i:]:
                if _pattern_problem(kind, at[c1], at[c2]) is None:
                    yield c1, c2, v


def find_special_pairs(cls: Classification) -> tuple[SpecialPair, ...]:
    """All special pairs, each emitted once in its resolvable role order.

    The +/- side condition singles out exactly one of the two role orders
    (e1, e2) and (e2, e1).  Each candidate is checked as resolve_site checks
    it and built once in that order, read by the same-side rule (see Role
    orders above), so each pair is directly usable as a host site.  The
    candidates come vertex by vertex, and a candidate's four sides are read
    off one fact per (vertex, edge), with one link walk per shared vertex.
    Pairs come in sorted (c1, c2, v) order, and so does the SurgeryError
    raised: that of the least candidate that fails.
    """
    _require_site(cls, _HOST_ROLE)
    at, walks = cls.pass_positions, _Chosen(cls.orientation.chosen)
    last, out, failed = None, [], []
    for c1, c2, v in _candidates(cls, HOST):
        if v != last:
            last, pos, facts = v, _positions(cls.triangulation.vertex_link(v)), {}
        try:
            out.append((c1, c2, v, _pass_sides(pos, c1, c2, v, (at[c1], at[c2]), walks, facts)[3]))
        except SurgeryError as exc:  # a candidate fails on its own facts: the least raises
            failed.append((c1, c2, v, exc))
    if failed:
        raise min(failed)[3]
    out.sort()
    return tuple(SpecialPair(*((c1, c2) if ahead else (c2, c1)), v) for c1, c2, v, ahead in out)


def find_piece_pairs(cls: Classification) -> tuple[SpecialPair, ...]:
    """Vertex-sharing type-II pairs showing a piece occurrence pattern.

    Two-zigzag pattern: e1 occurs twice in one chosen zigzag and e2 twice in
    another.  Four-zigzag pattern: e1 occurs once in each of two zigzags and
    e2 once in each of the other two.
    """
    kind = _require_site(cls, _PIECE_ROLE)
    return tuple(SpecialPair(c1, c2, v) for c1, c2, v in sorted(_candidates(cls, kind)))


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


class _Chosen(NamedTuple):
    """A classification's chosen walks, read as the shared cut reads any
    walk: by toward and arc alone, which a _Surface provides over its own
    pass list.  A pass is named by its zigzag index and position."""

    zigzags: tuple[Zigzag, ...]

    def toward(self, zi: int, r: int) -> str:
        """The vertex pass r of zigzag zi turns toward, the next pass's end."""
        walk = self.zigzags[zi].passes
        return walk[(r + 1) % len(walk)].dst

    def arc(self, zi: int, start: int, stop: int) -> tuple[Pass, ...]:
        """The passes of zigzag zi strictly between start and stop (_arc)."""
        return _arc(self.zigzags[zi].passes, start, stop)


def _checked(kind: str, edges, directions: dict, pair: SpecialPair, passes_of) -> SpecialPair:
    """The pair, once it shows the occurrence pattern of the site kind, given
    the edges and the type-II directions; passes_of(e) lists a type-II edge's
    passes as _pattern_problem takes them.  The one pair check of every site,
    on a classification (_checked_on) or on a _Surface (_Surface.cut).

    Raises SurgeryError naming the first reason the pair misses: a pair edge,
    e1's then e2's, that is no edge or not type II, then the pattern.  Every
    reason holds for both role orders of a pair or for neither.
    """
    for e in (pair.e1, pair.e2):
        if e not in edges:
            raise SurgeryError(f"pair edge {e} is no edge of the triangulation")
        if e not in directions:
            raise SurgeryError(f"pair edge {e} is not type II")
    problem = _pattern_problem(kind, passes_of(pair.e1), passes_of(pair.e2))
    if problem is not None:
        raise SurgeryError(problem.format(e1=pair.e1, e2=pair.e2))
    return pair


def _checked_on(cls: Classification, kind: str, pair: SpecialPair) -> SpecialPair:
    """_checked on a classification: its edges, type-II directions and pass
    positions."""
    return _checked(kind, cls.edge_types, cls.edge_directions, pair, cls.pass_positions.__getitem__)


def _turns(pos: dict[str, int], e: Edge, v: str, passes, walks) -> list[int]:
    """The fact of the pair edge e at v in O(1), given pos, v's link position
    map; passes, e's two passes as (zigzag index, position); and walks, the
    walk's owner (_Chosen or _Surface): the link position of the vertex w
    that each pass turns toward.  Raises SurgeryError when a pass turns in
    no face at v."""
    n, i_far = len(pos), pos[e[0] if e[1] == v else e[1]]
    turned = []
    for zi, r in passes:
        i = pos.get(walks.toward(zi, r), i_far)
        # w beside the far end in v's link makes those three a face
        if (i - i_far) % n not in (1, n - 1):
            raise SurgeryError(f"pass {r} of zigzag {zi} over {e} turns in no face at {v!r}")
        turned.append(i)
    return turned


def _pass_sides(pos: dict[str, int], e1: Edge, e2: Edge, v: str, at, walks, facts: dict):
    """The side test of the pair e1, e2 at v (see Sides above) in O(1), given
    pos and walks as _turns takes them and at, e1's and e2's passes in walk
    order.  facts maps each edge at v to its fact and takes those it lacks,
    e1's before e2's, so the first SurgeryError is the one raised with no
    fact kept.  Link position i is on the arc from v1 to v2 when
    (i - i1) % len(pos) < span, for i1 the position of v1 and span the steps
    from v1 to v2.  Returns i1, span, the side each pass turns to, e1's then
    e2's, and whether the pair reads forward by the same-side rule (see Role
    orders above): e1's first pass and e2's pass between e1's two enter
    faces on the same side.  Raises SurgeryError when a pass turns in no
    face at v, or when e1's passes, then e2's, turn to one side."""
    n, i1 = len(pos), pos[e1[0] if e1[1] == v else e1[1]]
    span = (pos[e2[0] if e2[1] == v else e2[1]] - i1) % n
    # every caller has required homogeneity, so each face holds one type-II
    # edge and v1, v2 are apart in the link: no face holds both pair edges,
    # each pair face has one vertex off v, v1, v2 and each pair edge has one
    # face on each arc
    sides: list[bool] = []
    for e, passes in zip((e1, e2), at):
        if e not in facts:
            facts[e] = _turns(pos, e, v, passes, walks)
        r, s = facts[e]
        sides += (r - i1) % n < span, (s - i1) % n < span
        if sides[-1] == sides[-2]:
            what = "occurrences of" if passes[0][0] == passes[1][0] else "zigzags through"
            raise SurgeryError(f"{what} {e} do not cross its faces oppositely")
    ((_, a), (_, b)), ((_, c), _) = at
    return i1, span, sides, sides[0] == sides[2 if a < c < b else 3]


def _labeling(pair: SpecialPair, pos: dict[str, int], at, walks, host: bool):
    """The cut of a checked pair, the one every site is resolved by: its
    +/- labeling (see Sides and Role orders above), given as _pass_sides
    takes it, in the role order the same-side rule reads if host, and its
    segments; of the side test's callers it alone reads faces.  It reads
    the walk by walks.toward and walks.arc alone, and the pass positions
    only by comparing them.  Returns the pair in that order, each interior
    link vertex of v -> its sign, each pass's key -> its segment, and each
    key -> its segment's end, as _segments cuts them."""
    i1, span, sides, ahead = _pass_sides(pos, pair.e1, pair.e2, pair.shared_vertex, at, walks, {})
    # the passes enter the four pair faces, one each, of their edge and the
    # vertex they turn toward: the least takes "-"
    faces = (face_key(*e, walks.toward(*p)) for e, ps in zip((pair.e1, pair.e2), at) for p in ps)
    minus = min(zip(faces, sides))[1]
    signs = {minus: "-", not minus: "+"}
    n, v1, v2 = len(pos), pair.v1, pair.v2
    vertex_sides = {w: signs[(i - i1) % n < span] for w, i in pos.items() if w != v1 and w != v2}
    roles = "1122"
    if host and not ahead:
        pair, roles = pair.swapped(), "2211"
    keys = {i + signs[s]: p for i, p, s in zip(roles, chain(*at), sides)}
    return (pair, vertex_sides, *_segments(keys, walks))


def _segments(keys: dict[str, tuple[int, int]], walks) -> tuple[dict, dict[str, str]]:
    """Each key -> its segment, the passes that walks.arc finds strictly
    between its pass and the next pair pass of its zigzag in position order,
    cyclically (its own pass when it is the zigzag's only one); and each key
    -> that next pass's key, its segment's end."""
    runs: dict[int, list[str]] = {}  # zigzag index -> its keys in position order
    for key in sorted(keys, key=keys.__getitem__):
        runs.setdefault(keys[key][0], []).append(key)
    ends = {key: end for run in runs.values() for key, end in zip(run, run[1:] + run[:1])}
    segments = {key: walks.arc(zi, r, keys[ends[key]][1]) for key, (zi, r) in keys.items()}
    return segments, ends


def _resolve(cls: Classification, pair: SpecialPair) -> GluingSite:
    """The site of a checked pair: its cut (_labeling) on the classification's
    vertex link, pass positions and chosen walks, in the role order its
    labeling reads: for a host pair that may be the swapped order, for a
    piece pair it is the order given.  Each segment runs from a pair pass to
    the next pair pass in the same chosen zigzag, whose key is its end: the
    host's four arcs, a two-zigzag piece's halves of each zigzag, a
    four-zigzag piece's whole zigzags less one pass.
    """
    pos, at = _positions(cls.triangulation.vertex_link(pair.shared_vertex)), cls.pass_positions
    at_pair, walks = (at[pair.e1], at[pair.e2]), _Chosen(cls.orientation.chosen)
    return GluingSite(cls, *_labeling(pair, pos, at_pair, walks, _kind(cls) == HOST))


def resolve_site(cls: Classification, pair: SpecialPair) -> GluingSite:
    """Label the pair's faces, split the link into sides, and cut segments.

    The site kind is inferred from the zigzag census: one zigzag makes a
    host, two or four make a piece.  Raises SurgeryError when the pair does
    not show the occurrence pattern its kind requires, or, for a host, when
    its role order fails the side condition.
    """
    site = _resolve(cls, _checked_on(cls, _require_site(cls, _ANY_ROLE), pair))
    if site.pair is not pair:
        raise SurgeryError(_NO_LABELING)
    return site


def _piece_site(piece: Classification, wanted: tuple[bool, ...], piece_pairs) -> GluingSite:
    """The piece half of plan_gluing: the first candidate resolved in the
    role order whose pair-edge heads are wanted."""
    kind = _require_site(piece, _PIECE_ROLE)
    given = 0
    for given, cand in enumerate(piece_pairs, 1):
        for pair in (_checked_on(piece, kind, cand), cand.swapped()):
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
    host_site = _resolve(host, _checked_on(host, _require_site(host, _HOST_ROLE), host_pair))
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


def _namer(v: str, sides: dict[str, str], split: dict[str, str]):
    """The renaming of a host's faces, edges and passes at v, split.

    rename(cells, make) renames the vertices of each cell and rebuilds it as
    make(*entries); a pass's edge entry, being no vertex, reaches make
    unchanged.  The split vertex v takes the name split[side] for the _side
    of the face or edge it lies on: every face at v has one, and so does
    every edge at v but e1 and e2.  Any other vertex keeps its name.
    """

    def renamed(cell, make):
        at = split[_side(cell, sides)] if v in cell else v
        return make(*(at if u == v else u for u in cell))

    return lambda cells, make: [renamed(c, make) for c in cells]


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
    """Move the lost faces out of index (cell -> its faces as an unsorted
    list) and the gained faces in, where cells(face) lists the cells of a
    face: each touched cell's list loses and gains just those faces, in
    place, and a cell left with none leaves the index.  Returns each cell
    touched -> (its lost faces, its gained faces), and the cells new to the
    index."""
    change: dict = {}
    for i, faces in enumerate((lost, gained)):
        for f in faces:
            for cell in cells(f):
                change.setdefault(cell, ([], []))[i].append(f)
    born = []
    for cell, (out, into) in change.items():
        kept = index.get(cell)
        if kept is None:
            born.append(cell)
            # a copy: the change hands into to the glue's checks
            index[cell] = into[:]
            continue
        for f in out:
            kept.remove(f)
        kept += into
        if not kept:
            del index[cell]
    return change, born


def _relinked(x: str, lost, gained, born_edges: set, edge_faces: dict) -> bool:
    """Whether the link of x, one cycle before x's lost faces were swapped
    for its gained ones, is one cycle after: the lost faces' link edges make
    a path, and the gained faces' a path between the same ends whose inner
    vertices were no neighbours of x, while the lost path's are no more.
    It costs what changed, never x's whole link: the lost link edges lie on
    one cycle, so they make one path exactly when two of their link
    vertices occur once and they number len(lost) + 1; the gained path is
    walked across the edge index from one end, through the one gained face
    at that end and then across born edges only, and must reach the other
    end after len(gained) faces, each face at x it gained."""
    seen = Counter(y for f in lost for y in f if y != x)
    ends = [y for y, k in seen.items() if k == 1]
    if len(ends) != 2 or len(seen) != len(lost) + 1:
        return False
    if any(k > 1 and edge_key(x, y) in edge_faces for y, k in seen.items()):
        return False
    start, stop = ends
    first = set(gained).intersection(edge_faces[edge_key(x, start)])
    if len(first) != 1:
        return False
    (f,), y, walked = first, start, 1
    while True:
        a, b, c = f
        y = a if a != x and a != y else b if b != x and b != y else c
        if y == stop:
            return walked == len(gained)
        e = edge_key(x, y)
        if e not in born_edges or len(edge_faces[e]) != 2:
            return False
        g, h = edge_faces[e]
        f, walked = h if g == f else g, walked + 1


class _Cut(NamedTuple):
    """A host pair resolved on a _Surface by the cut every site is resolved
    by (_labeling): what a GluingSite holds but its classification, which a
    surface has none of.  The pair in its role order, whether e1 and whether
    e2 point into the shared vertex (_heads), the side of each interior link
    vertex, each key's segment, cut by the surface's arc, and each key's
    segment end."""

    pair: SpecialPair
    heads: tuple[bool, ...]
    vertex_sides: dict[str, str]
    segments: dict[str, list[Pass]]
    ends: dict[str, str]


class _Change(NamedTuple):
    """What one splice changed, for its checks: every cell it renamed,
    split or brought in from the piece."""

    sizes: tuple[int, int, int]  # the V, E, F the glued surface must have
    gained: list[Face]  # the renamed faces at v and the piece's faces
    edges: list[Edge]  # the edges of lost or gained faces, sorted
    vertices: dict[str, tuple[list, list]]  # each vertex of one -> its lost, gained faces
    born: list[Edge]  # the edges new to the surface
    fresh: set[str]  # the vertices new to the surface
    types: dict[Edge, str]  # each renamed, split or piece edge -> the type it must have
    junctions: list[int]  # the positions of the split edges' passes
    dirty: list[int]  # the positions of the split, renamed and piece passes
    type_i: set[str]  # the piece's type-I vertices


class _Surface:
    """A z-knotted homogeneous surface that gluings grow in place.

    It holds what its Triangulation and the Classification of its single
    zigzag would, kept current glue by glue: the face list and each face's
    slot in it, the edge and vertex indexes (cell -> its faces as a list,
    unsorted while the surface grows, sorted into the tuples Triangulation
    keeps once it is finished), the zigzag as a list of passes in its
    chosen direction at any rotation, the directions of the type-II
    edges (an edge is type II exactly when it has one), the type-I vertices,
    and how many type-II edges end at each vertex.  It is built in one walk
    over the host's classification, with prefix + u for each vertex u: a
    common prefix keeps every key sorted and the zigzag's rotation, so the
    surface of an unprefixed host under a prefix is the surface of the host
    built under it.

    The pass list is private to the methods that own the walk: _at finds
    the passes over an edge by list.index scans, toward and arc read the
    walk for the shared cut, arc by a list slice, splice rebuilds the list
    from the four host arcs and the piece's segments and renames the passes
    at v in place, check reads the positions the splice changed, and zigzag
    hands the walk out as a Zigzag.  A glue costs what it changes plus those
    scans and slices and list.remove scans of the cells it touches, which
    run in C; no Python loop runs over the host's faces, edges or passes,
    and the piece's cells are named from its site's plan, one list lookup
    per vertex, with no renaming rule run, then checked by the rule that
    checks the host's renamed cells.  Links are walked across the edge
    index: cut walks v's, whose faces the glue renames, and check each new
    vertex's (_link_walk), while an old vertex's link is tested only where
    it changed (_relinked), so no glue walks all of a star root's apex.
    """

    def __init__(self, host: Classification, prefix: str = "") -> None:
        _require_site(host, _HOST_ROLE)
        t = host.triangulation
        name = {u: prefix + u for u in t._vertex_faces}.__getitem__
        face = {f: tuple(map(name, f)) for f in t.faces}.__getitem__
        edge = {e: tuple(map(name, e)) for e in t._edge_faces}.__getitem__
        self.faces = list(map(face, t.faces))
        self.slots = dict(zip(self.faces, range(len(self.faces))))
        self.edge_faces = {edge(e): list(map(face, fs)) for e, fs in t._edge_faces.items()}
        self.vertex_faces = {name(v): list(map(face, fs)) for v, fs in t._vertex_faces.items()}
        walk = host.orientation.chosen[0].passes
        self._passes = [Pass(edge(e), name(u), name(w)) for e, u, w in walk]
        directions = host.edge_directions.items()
        self.edge_directions = {edge(e): (name(u), name(w)) for e, (u, w) in directions}
        self.type_i = set(map(name, host.type_i_vertices))
        # vertex -> the number of type-II edges ending at it
        self.ii_ends = Counter(chain.from_iterable(self.edge_directions))

    def _at(self, e: Edge) -> list[int]:
        """The positions of the two passes over e, ascending: a type-II edge
        is passed twice its one way, a type-I edge once each way."""
        ps = self._passes
        try:
            if e in self.edge_directions:
                p = Pass(e, *self.edge_directions[e])
                i = ps.index(p)
                return [i, ps.index(p, i + 1)]
            u, w = e
            return sorted((ps.index(Pass(e, u, w)), ps.index(Pass(e, w, u))))
        except ValueError:
            raise InvariantError(f"edge {e} is not passed twice as its type says") from None

    def toward(self, _zi: int, r: int) -> str:
        """The vertex the pass at position r turns toward, the next pass's
        end; the surface's one zigzag has index 0."""
        return self._passes[(r + 1) % len(self._passes)].dst

    def arc(self, _zi: int, start: int, stop: int) -> list[Pass]:
        """The passes strictly between positions start and stop (_arc)."""
        return _arc(self._passes, start, stop)

    def zigzag(self) -> Zigzag:
        """The surface's zigzag, walked in its chosen direction."""
        return Zigzag(tuple(self._passes))

    def cut(self, pair: SpecialPair) -> _Cut:
        """Resolve a host pair in the role order its labeling reads, by the
        one pair check (_checked) and the one cut (_labeling) that resolve
        every site.  Only what it hands them is the surface's own: v's link,
        each pair edge's pass positions, read by _at once, and the surface
        itself as the walk, read by toward and arc."""
        at: dict[Edge, list[tuple[int, int]]] = {}
        _checked(
            HOST, self.edge_faces, self.edge_directions, pair,
            lambda e: at.setdefault(e, [(0, r) for r in self._at(e)]),
        )
        v = pair.shared_vertex
        pos = _positions(_link_walk(v, self.vertex_faces[v], self.edge_faces))
        pair, *cut = _labeling(pair, pos, (at[pair.e1], at[pair.e2]), self, host=True)
        return _Cut(pair, _heads(self.edge_directions, pair), *cut)

    def splice(self, host: _Cut | GluingSite, piece_site: GluingSite, prefix: str = "") -> _Change:
        """Glue the piece in along the host site, in place, unchecked; the
        host site is a _Cut of this surface or a GluingSite resolved on the
        classification it was copied from.  The piece's cells are named
        from the piece site's plan: its vertices but v, v1 and v2 take the
        prefix.

        The faces at v take their renamed keys in their slots and the
        piece's renamed faces are appended.  The glued walk joins the split
        edges' passes, the host's four segments and the piece's renamed
        segments into the new pass list, and the host's passes at v are
        renamed where they lie in it.
        """
        tp, plan = piece_site.classification.triangulation, piece_site._plan
        pair, v = host.pair, host.pair.shared_vertex
        own = [prefix + u for u in plan.vertices]
        if any(u in self.vertex_faces for u in own):
            raise SurgeryError("host and piece vertex namespaces must be disjoint")
        # side "+"/"-" -> the name v+/v- of that half of the split vertex
        split = {side: v + side for side in "+-"}
        if any(x in self.vertex_faces or x in own for x in split.values()):
            raise SurgeryError(
                f"split vertex names {split['+']!r}/{split['-']!r} collide with existing vertices"
            )
        host_rename = _namer(v, host.vertex_sides, split)
        # each slot of the plan -> its name here
        names = [split["+"], split["-"], pair.v1, pair.v2, *own[3:]]
        sizes = (
            len(self.vertex_faces) + len(tp.vertices) - 2,
            len(self.edge_faces) + len(tp.edges),
            len(self.faces) + len(tp.faces),
        )

        # each new edge and the type of the edge it came from: the renamed
        # edges at v, the pair edges' split copies type II, and the piece's
        # other edges
        # sorted, so that the renamed faces take the slots and the order they
        # took when the index kept each cell sorted
        lost = sorted(self.vertex_faces[v])
        at_v = sorted({e for f in lost for e in _face_edges(f) if v in e} - pair.edges())
        kinds = ("II" if e in self.edge_directions else "I" for e in at_v)
        types = dict(zip(host_rename(at_v, edge_key), kinds))
        halves = split.values()
        types.update((edge_key(half, w), "II") for w in (pair.v1, pair.v2) for half in halves)
        types.update((edge_key(names[a], names[b]), kind) for a, b, kind in plan.edges)

        gained = host_rename(lost, face_key)
        gained += [face_key(names[a], names[b], names[c]) for a, b, c in plan.faces]
        edges, vertices, born, fresh = self._swap(lost, gained)

        # the glued walk: each key's split-edge pass, then its host segment
        # or its renamed piece segment
        heads = {"1": self.edge_directions[pair.e1], "2": self.edge_directions[pair.e2]}
        new: list[Pass] = []
        junctions: list[int] = []  # where the split edges' passes lie in new
        dirty: list[int] = []  # where the piece's passes lie in new
        for site, key in _glued_walk(host.ends, piece_site.ends):
            junctions.append(len(new))
            new.append(make_pass(*(split[key[1]] if x == v else x for x in heads[key[0]])))
            if site == 0:
                new += host.segments[key]
            else:
                passes = plan.segments[key]
                dirty += range(len(new), len(new) + len(passes))
                new += [make_pass(names[a], names[b]) for a, b in passes]
        # the host's passes at v take their renamed edges where they lie
        self._passes = new
        moved = [r for e in at_v for r in self._at(e)]
        for r, p in zip(moved, host_rename([new[r] for r in moved], _renamed_pass)):
            new[r] = p
        # a piece's type-I vertices are off its pair, so they take the prefix
        type_i = {names[x] for x in plan.type_i}
        return _Change(
            sizes, gained, edges, vertices, born, fresh, types, junctions,
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

    def check(self, change: _Change) -> tuple[int, int, int]:
        """The checks of one splice, each at the cost of what it changed, one
        rule for every new cell, the piece's included (see the module
        docstring); they bring the type-II directions and ends and the
        type-I vertices up to date.  Returns the V, E, F they proved, the
        zigzag having 2E passes.  Raises InvariantError."""
        ef, vf, born = self.edge_faces, self.vertex_faces, set(change.born)
        violations = _edge_violations(ef, [e for e in change.edges if e in ef])
        # a new vertex's whole link is walked, an old one's where it changed
        violations += _link_violations(
            sorted(x for x in change.vertices if x in vf),
            lambda x: (
                _link_walk(x, vf[x], ef) is not None
                if x in change.fresh
                else _relinked(x, *change.vertices[x], born, ef)
            ),
        )
        if violations:
            raise InvariantError("glued face list is no closed surface: " + "\n".join(violations))
        if (len(vf), len(ef), len(self.faces)) != change.sizes:
            raise InvariantError("glued V, E, F are not the sums V-2, E, F of host and piece")
        ps, n = self._passes, len(self._passes)
        if n != 2 * len(ef):
            raise InvariantError(f"zigzag has {n} passes, not 2E = {2 * len(ef)}")
        strays = born ^ change.types.keys()
        if strays:
            raise InvariantError(f"edge {min(strays)} is not both new and renamed from an edge")

        # the walk where a pass is new or renamed: its passes chain and turn
        # in faces, a different face after each pass at a tested position.
        # The turns of the sorted window are found once and screened at once;
        # only a walk the screen fails is walked again by _turn_fault, which
        # states the same rules a position at a time, to name the first fault
        # in dirty order.  Elsewhere two host passes turn as they did in the
        # host, in a face that kept its key
        tested = {i % n for d in change.dirty for i in (d - 1, d, d + 1)}
        window = sorted(tested.union([(i - 1) % n for i in tested]))
        turns = [_turn(ps, i) for i in window]
        if not (
            all(ps[i].dst == ps[(i + 1) % n].src for i in window)
            and self.slots.keys() >= set(turns)
            # a tested position's turn and the one before it, its window neighbour
            and not any(i in tested and f == g for i, g, f in zip(window, turns[-1:] + turns, turns))
        ):
            self._turn_fault(change.dirty)

        # each new edge passed twice, with the type it must have, and a
        # type-II one's direction read off its passes
        passed: dict[Edge, list[tuple[str, str]]] = {}
        for d in change.dirty:
            e, src, dst = ps[d]
            passed.setdefault(e, []).append((src, dst))
        directions, ends = self.edge_directions, self.ii_ends
        born_directions: dict[Edge, tuple[str, str]] = {}
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

        # the II,I,I phase across each junction j: the types of passes j-3
        # to j+3 read the same three on; elsewhere every window of four
        # passes reads as it did in host or piece
        for j in change.junctions:
            ii = [ps[i % n].edge in directions for i in range(j - 3, j + 4)]
            if ii[3:] != ii[:4]:
                k = next(k for k in range(4) if ii[k] != ii[k + 3])
                raise InvariantError(f"zigzag breaks its II,I,I phase at position {(j - 3 + k) % n}")

        # each touched vertex is type I, ending no type-II edge, exactly when
        # host or piece had it so
        self.type_i |= change.type_i
        for x in change.vertices:
            if x not in vf:
                self.type_i.discard(x)
                del ends[x]
            elif (ends[x] == 0) != (x in self.type_i):
                raise InvariantError(f"vertex {x} changed its type")
        return change.sizes

    def _turn_fault(self, dirty: list[int]) -> None:
        """Raise InvariantError naming the first fault of the walk's turns at
        the tested positions, taken in dirty order: for each, the turn before
        it and its own turn chain and lie in a face, then differ."""
        ps, n = self._passes, len(self._passes)
        for i in dict.fromkeys(i % n for d in dirty for i in (d - 1, d, d + 1)):
            for j in ((i - 1) % n, i):
                if ps[j].dst != ps[(j + 1) % n].src:
                    raise InvariantError(f"passes {j} and {(j + 1) % n} do not chain")
                if _turn(ps, j) not in self.slots:
                    raise InvariantError(f"passes {j} and {(j + 1) % n} turn in no face")
            if _turn(ps, i - 1) == _turn(ps, i):
                raise InvariantError(f"zigzag turns twice in face {_turn(ps, i)} at position {i}")

    def glue(
        self, host: _Cut | GluingSite, piece_site: GluingSite, what: str, prefix: str = ""
    ) -> tuple[int, int, int]:
        """Splice the piece in under the prefix and check it; returns the V,
        E, F the check proved.  A failed check raises InvariantError whose
        message starts with what, naming the glue."""
        try:
            return self.check(self.splice(host, piece_site, prefix))
        except InvariantError as exc:
            raise InvariantError(f"{what}: {exc}") from None

    def finish(self) -> Classification:
        """The surface's Triangulation and the classification of its zigzag,
        after the full audit, which keeps that zigzag as t's enumeration; the
        surface is spent."""
        edge_faces = {e: tuple(sorted(fs)) for e, fs in self.edge_faces.items()}
        vertex_faces = {x: tuple(sorted(fs)) for x, fs in self.vertex_faces.items()}
        t = Triangulation._indexed(self.faces, edge_faces, vertex_faces)
        if not t.validate().ok:
            raise InvariantError(f"glued face list is no closed surface: {t.validate()}")
        walked = self.zigzag()
        zs = _audit_sole_zigzag(t, walked)
        cls = classify(t, _oriented(zs, (0,) if zs[0] == walked else (1,)))
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
    return surface.zigzag()


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

