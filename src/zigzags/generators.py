"""Generators: bipyramids, platonic solids, and tree-driven gluing.

The n-gonal bipyramid BP(n) is the double cone over an n-cycle: apexes a
and b joined to base vertices 1..n.  Its zigzag census depends on n mod 4
(one zigzag of length 6n for odd n, two of length 3n for n = 2 mod 4, four
of length 3n/2 for n = 0 mod 4), and each census admits a homogeneous
z-orientation in which every spoke is type I and the base cycle is
directed 1 -> 2 -> ... -> n -> 1: BP(n) is the coning of that directed
cycle, so each zigzag's direction is read off the base edges it passes.

A tree whose root carries an odd label 2k+1 >= 3 with k at least the root
degree, and whose other nodes carry even labels 2k >= 4 with k at least
the node degree, drives an iterated gluing: each node contributes the
bipyramid over its label, glued into its parent along reserved base pairs.
The result is z-knotted with exactly two type-I vertices per node.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cache, partial

from .engine import Classification, ZOrientation, _orient_along, classify, enumerate_zigzags
from .surgery import GluingSite, InvariantError, SpecialPair, _heads, _piece_site, _Surface
from .triangulation import (
    ParseError,
    Triangulation,
    ValidationReport,
    _check_token,
    _integer,
    _reachable,
    _records,
)

__all__ = [
    "bipyramid",
    "bipyramid_canonical_zorientation",
    "platonic",
    "TreeError",
    "TreeSpec",
    "parse_tree",
    "validate_tree",
    "GluingRecord",
    "BuildLog",
    "tree_build",
]


class TreeError(ValueError):
    """A tree specification cannot drive a gluing build."""


# ----------------------------------------------------------------------
# bipyramids


def _base(n: int, prefix: str, i: int) -> str:
    return f"{prefix}{(i - 1) % n + 1}"


def bipyramid(n: int, prefix: str = "") -> Triangulation:
    """The n-gonal bipyramid with apexes <prefix>a, <prefix>b and base
    vertices <prefix>1 .. <prefix>n."""
    if n < 3:
        raise ValueError(f"bipyramid needs n >= 3, got {n}")
    if prefix:
        _check_token(prefix)
    a, b = f"{prefix}a", f"{prefix}b"
    faces = []
    for i in range(1, n + 1):
        u, w = _base(n, prefix, i), _base(n, prefix, i + 1)
        faces.append((a, u, w))
        faces.append((b, u, w))
    return Triangulation(faces)


def bipyramid_canonical_zorientation(n: int, prefix: str = "") -> ZOrientation:
    """The homogeneous z-orientation directing the base cycle 1 -> 2 -> ... -> n.

    Each zigzag is taken in the direction passing its base edges from i to
    i+1.  Every spoke comes out type I and both apexes are type-I vertices.
    """
    return _bipyramid_analysis(n, prefix).orientation


def _bipyramid_analysis(n: int, prefix: str) -> Classification:
    """BP(n) classified under its canonical z-orientation, built once."""
    t = bipyramid(n, prefix)
    base_cycle = [(_base(n, prefix, i), _base(n, prefix, i + 1)) for i in range(1, n + 1)]
    cls = classify(t, _orient_along(enumerate_zigzags(t), base_cycle))
    if not cls.homogeneous:
        raise InvariantError(f"the canonical z-orientation of BP({n}) is not homogeneous")
    return cls


def platonic(name: str) -> Triangulation:
    """The boundary triangulation of a platonic deltahedron.

    Supported names: tetrahedron, octahedron, icosahedron.
    """
    if name == "tetrahedron":
        return Triangulation([("1", "2", "3"), ("1", "2", "4"), ("1", "3", "4"), ("2", "3", "4")])
    if name == "octahedron":
        return bipyramid(4)
    if name == "icosahedron":
        u = [f"u{i}" for i in range(5)]
        l = [f"l{i}" for i in range(5)]
        faces = []
        for i in range(5):
            j = (i + 1) % 5
            faces.append(("t", u[i], u[j]))
            faces.append((u[i], u[j], l[i]))
            faces.append((l[i], l[(i + 1) % 5], u[j]))
            faces.append(("b", l[i], l[(i + 1) % 5]))
        return Triangulation(faces)
    raise ValueError(f"unknown platonic solid {name!r}")


# ----------------------------------------------------------------------
# tree specifications


@dataclass(frozen=True)
class TreeSpec:
    """A finite tree with integer node labels.

    nodes are (id, label) pairs; edges join node ids.  Stored sorted so two
    specs with the same content compare equal.
    """

    nodes: tuple[tuple[str, int], ...]
    edges: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        for node in self.nodes:
            if not (
                isinstance(node, (tuple, list)) and len(node) == 2
                and type(node[0]) is str and type(node[1]) is int
            ):
                raise TreeError(f"node {node!r} is not an (id string, integer label) pair")
            # an id goes into vertex tokens, which '#' and whitespace would break
            if node[0] and (node[0].split() != [node[0]] or "#" in node[0]):
                raise TreeError(f"node id {node[0]!r} contains whitespace or '#'")
        known = set()
        for i, _ in self.nodes:
            if i in known:
                raise TreeError(f"node id {i!r} is declared more than once")
            known.add(i)
        seen = set()
        for e in self.edges:
            if not (isinstance(e, (tuple, list)) and len(e) == 2):
                raise TreeError(f"edge {e!r} does not join two nodes")
            u, w = e
            if u == w:
                raise TreeError(f"edge {e} joins a node to itself")
            if not (type(u) is str and type(w) is str and u in known and w in known):
                raise TreeError(f"edge {e} references an unknown node")
            key = (u, w) if u < w else (w, u)
            if key in seen:
                raise TreeError(f"duplicate edge {e}")
            seen.add(key)
        object.__setattr__(self, "nodes", tuple(sorted(self.nodes)))
        object.__setattr__(self, "edges", tuple(sorted(seen)))

    @property
    def labels(self) -> dict[str, int]:
        return dict(self.nodes)

    def adjacency(self) -> dict[str, tuple[str, ...]]:
        adj: dict[str, list[str]] = {i: [] for i, _ in self.nodes}
        for u, w in self.edges:
            adj[u].append(w)
            adj[w].append(u)
        return {i: tuple(sorted(ns)) for i, ns in adj.items()}

    @property
    def root(self) -> str | None:
        odd = [i for i, lab in self.nodes if lab % 2 == 1]
        return odd[0] if len(odd) == 1 else None


def parse_tree(text: str) -> TreeSpec:
    """Parse the line format: 'n <id> <label>' and 'a <id1> <id2>'."""
    labels: dict[str, int] = {}
    arcs: list[tuple[int, str, str]] = []
    for lineno, parts, raw in _records(text):
        if parts[0] == "n":
            if len(parts) != 3:
                raise ParseError(f"line {lineno}: expected 'n <id> <label>', got {raw.strip()!r}")
            label = _integer(parts[2])
            if label is None:
                raise ParseError(f"line {lineno}: label {parts[2]!r} is not an integer")
            if parts[1] in labels:
                raise ParseError(f"line {lineno}: node id {parts[1]!r} is declared more than once")
            labels[parts[1]] = label
        elif parts[0] == "a":
            if len(parts) != 3:
                raise ParseError(f"line {lineno}: expected 'a <id1> <id2>', got {raw.strip()!r}")
            arcs.append((lineno, parts[1], parts[2]))
        else:
            raise ParseError(f"line {lineno}: unknown record {parts[0]!r}")
    for lineno, u, w in arcs:
        for x in (u, w):
            if x not in labels:
                raise ParseError(f"line {lineno}: edge references unknown node {x!r}")
    try:
        return TreeSpec(tuple(labels.items()), tuple((u, w) for _, u, w in arcs))
    except TreeError as exc:
        raise ParseError(str(exc)) from None


def validate_tree(spec: TreeSpec) -> ValidationReport:
    """Check the labeling rules that make a tree buildable.

    The node set must form one tree; exactly one node (the root) carries an
    odd label 2k+1 >= 3 with k >= its degree; every other node carries an
    even label 2k >= 4 with k >= its degree.
    """
    violations: list[str] = []
    if not spec.nodes:
        return ValidationReport(("tree has no nodes",))
    adj = spec.adjacency()
    seen = _reachable(spec.nodes[0][0], adj.__getitem__)
    if len(seen) != len(spec.nodes):
        violations.append(f"tree disconnected: reached {len(seen)} of {len(spec.nodes)} nodes")
    if len(spec.edges) != len(spec.nodes) - 1:
        violations.append(
            f"{len(spec.edges)} edges on {len(spec.nodes)} nodes cannot form a tree"
        )
    odd = [i for i, lab in spec.nodes if lab % 2 == 1]
    if len(odd) != 1:
        violations.append(f"expected exactly one odd-labeled node (the root), found {len(odd)}")
    else:
        root = odd[0]
        lab = spec.labels[root]
        if lab < 3:
            violations.append(f"root {root!r} label must be an odd number >= 3")
        elif (lab - 1) // 2 < len(adj[root]):
            violations.append(
                f"root {root!r} label 2k+1={lab} needs k >= degree {len(adj[root])}"
            )
        for i, l in spec.nodes:
            if i == root:
                continue
            if l < 4:
                violations.append(f"node {i!r} label must be an even number >= 4")
            elif l // 2 < len(adj[i]):
                violations.append(f"node {i!r} label 2k={l} needs k >= degree {len(adj[i])}")
    return ValidationReport(tuple(violations))


# ----------------------------------------------------------------------
# tree-driven builds


@dataclass(frozen=True)
class GluingRecord:
    """One gluing step of a tree build."""

    parent: str
    child: str
    host_pair: SpecialPair
    piece_pair: SpecialPair
    piece_kind: str
    vertices: int
    edges: int
    faces: int
    zigzag_length: int

    def __str__(self) -> str:
        return (
            f"glued node {self.child} into {self.parent} at {self.host_pair.e1}/"
            f"{self.host_pair.e2} ({self.piece_kind}): V={self.vertices} "
            f"E={self.edges} F={self.faces} zigzag={self.zigzag_length}"
        )


@dataclass(frozen=True)
class BuildLog:
    records: tuple[GluingRecord, ...]

    def __str__(self) -> str:
        if not self.records:
            return "no gluings (single-node tree)"
        return "\n".join(str(r) for r in self.records)


def _node_prefix(node_id: str) -> str:
    return f"node{node_id}."


def _base_pair(name, i: int) -> SpecialPair:
    """The pair on the base triple i, i+1, i+2 of a bipyramid, where name(j)
    is the name of base vertex j."""
    return SpecialPair((name(i), name(i + 1)), (name(i + 1), name(i + 2)), name(i + 1))


def tree_build(spec: TreeSpec) -> tuple[Triangulation, ZOrientation, BuildLog]:
    """Build the z-knotted triangulation a labeled tree describes.

    Breadth-first from the root, children in id order.  Each node's base
    cycle reserves the vertex triples (1,2,3), (3,4,5), ... left to right
    for its children's gluings; a child is glued along its own lowest
    available base pair.  The result is z-knotted and homogeneous with
    exactly two type-I vertices (the two apexes) per tree node.

    Every glue runs in place on one growing surface (surgery._Surface): the
    host pair is resolved on it by the rule resolve_site follows, and the
    piece is spliced in under the node's prefix.  The piece bipyramid is
    built and classified once per label, unprefixed, and its piece site
    resolved once per label and wanted head directions.  Each glue is
    checked at the cost of what it changed, and the finished sphere audited
    once in full, as glue audits its result, and for Euler characteristic 2
    and two type-I vertices per node.  Raises InvariantError, naming the
    glue, when a glue fails its checks or the finished build its audit.
    """
    report = validate_tree(spec)
    if not report.ok:
        raise TreeError(str(report))
    labels = spec.labels
    adj = spec.adjacency()
    root = spec.root  # a valid tree has exactly one odd-labeled node, its root

    surface = _Surface(_bipyramid_analysis(labels[root], _node_prefix(root)))
    # base vertex i of a node may have been renamed when the node was glued
    names: dict[str, dict[int, str]] = {root: {}}
    cursor: dict[str, int] = {root: 1}
    records: list[GluingRecord] = []
    piece = cache(partial(_bipyramid_analysis, prefix=""))

    @cache
    def piece_site(n: int, wanted: tuple[bool, ...]) -> GluingSite:
        # a node's candidate pairs differ from another's of its label only
        # by the prefix, so the first to fit does too
        pairs = (_base_pair(partial(_base, n, ""), j) for j in range(1, n + 1))
        return _piece_site(piece(n), wanted, pairs)

    def token(node: str, i: int) -> str:
        i = (i - 1) % labels[node] + 1
        return names[node].get(i, f"{_node_prefix(node)}{i}")

    parent_of: dict[str, str | None] = {root: None}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for c in sorted(w for w in adj[u] if w != parent_of[u]):
            parent_of[c] = u
            cut = surface.cut(_base_pair(partial(token, u), cursor[u]))
            cursor[u] += 2
            site = piece_site(labels[c], _heads(surface.edge_directions, cut.pair))
            prefix = _node_prefix(c)
            surface.glue(cut, site, f"glued node {c} into {u}", prefix)
            names[c] = {int(site.pair.v1): cut.pair.v1, int(site.pair.v2): cut.pair.v2}
            # the next base triple starts where the glued one ends
            cursor[c] = int(site.pair.shared_vertex) + 1
            prefixed = [(prefix + x, prefix + y) for x, y in (site.pair.e1, site.pair.e2)]
            piece_pair = SpecialPair(*prefixed, prefix + site.pair.shared_vertex)
            records.append(
                GluingRecord(
                    u, c, cut.pair, piece_pair, site.kind,
                    len(surface.vertex_faces), len(surface.edge_faces),
                    len(surface.faces), len(surface.passes),
                )
            )
            queue.append(c)

    built = surface.finish()
    t = built.triangulation
    chi = t.euler_characteristic()
    if chi != 2:
        raise InvariantError(f"tree build has Euler characteristic {chi}, not 2")
    if len(built.type_i_vertices) != 2 * len(spec.nodes):
        raise InvariantError(
            f"tree build has {len(built.type_i_vertices)} type-I vertices, "
            f"not 2 per node ({2 * len(spec.nodes)})"
        )
    return t, built.orientation, BuildLog(tuple(records))
