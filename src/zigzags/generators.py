"""Generators: bipyramids, platonic solids, and tree-driven gluing.

The n-gonal bipyramid BP(n) is the double cone over an n-cycle: apexes a
and b joined to base vertices 1..n.  Its zigzag census depends on n mod 4
(one zigzag of length 6n for odd n, two of length 3n for n = 2 mod 4, four
of length 3n/2 for n = 0 mod 4), and each census admits a homogeneous
z-orientation in which every spoke is type I and the base cycle is
directed 1 -> 2 -> ... -> n -> 1.

A tree whose root carries an odd label 2k+1 >= 3 with k at least the root
degree, and whose other nodes carry even labels 2k >= 4 with k at least
the node degree, drives an iterated gluing: each node contributes the
bipyramid over its label, glued into its parent along reserved base pairs.
The result is z-knotted with exactly two type-I vertices per node.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import (
    ZOrientation,
    Zigzag,
    _homogeneous,
    classify,
    enumerate_zigzags,
    is_homogeneous,
    make_pass,
)
from .surgery import SpecialPair, glue, plan_gluing
from .triangulation import ParseError, Triangulation, ValidationReport, _check_token, edge_key

__all__ = [
    "bipyramid",
    "bipyramid_oracle_zigzags",
    "bipyramid_canonical_zorientation",
    "platonic",
    "TreeError",
    "TreeSpec",
    "parse_tree",
    "serialize_tree",
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


def _walk_zigzag(vertices: list[str]) -> Zigzag:
    assert vertices[0] == vertices[-1], "walk must close up"
    cycle = vertices[:-1]
    return Zigzag(tuple(make_pass(cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))))


def _example_zigzag_walks(n: int, prefix: str) -> tuple[Zigzag, ...]:
    """Directed zigzags of BP(n), written down as closed vertex walks.

    Odd-base blocks read apex, 2j+1, 2j+2 and even-base blocks apex, 2j+2,
    2j+3 with apexes alternating; the three census shapes stitch these rows
    differently.
    """
    a, b = f"{prefix}a", f"{prefix}b"
    apex = {0: a, 1: b}
    other = {a: b, b: a}
    base = lambda i: _base(n, prefix, i)
    k = n // 2

    def odd_blocks(start: str) -> list[str]:
        out = []
        cur = start
        for j in range(k):
            out += [cur, base(2 * j + 1), base(2 * j + 2)]
            cur = other[cur]
        return out

    def even_blocks(start: str) -> list[str]:
        out = []
        cur = start
        for j in range(k):
            out += [cur, base(2 * j + 2), base(2 * j + 3)]
            cur = other[cur]
        return out

    def apex_after(start: str) -> str:
        # the apex following k alternating blocks started at start
        return start if k % 2 == 0 else other[start]

    if n % 2 == 1:
        def row1(start: str) -> list[str]:
            return odd_blocks(start) + [apex_after(start), base(n), base(1)]

        def row2(start: str) -> list[str]:
            return [base(1)] + even_blocks(start) + [apex_after(start)]

        second = a if apex_after(a) == b else b  # row2 must start where row1's apex run resumes
        walk = row1(a)
        for row in (row2(second), row1(b), row2(other[second])):
            assert walk[-1] == row[0]
            walk += row[1:]
        assert walk[-1] == walk[0]
        return (_walk_zigzag(walk),)

    if k % 2 == 1:
        def stitched(blocks) -> Zigzag:
            walk = blocks(a) + [apex_after(a)]
            row = blocks(b) + [apex_after(b)]
            assert walk[-1] == row[0]
            walk += row[1:]
            assert walk[-1] == walk[0]
            return _walk_zigzag(walk)

        return (stitched(odd_blocks), stitched(even_blocks))

    def single(blocks, start: str) -> Zigzag:
        walk = blocks(start)
        return _walk_zigzag(walk + [walk[0]])

    return (
        single(odd_blocks, a),
        single(odd_blocks, b),
        single(even_blocks, a),
        single(even_blocks, b),
    )


def bipyramid_oracle_zigzags(n: int, prefix: str = "") -> tuple[Zigzag, ...]:
    """Canonical forms of the hand-constructed BP(n) zigzags, sorted."""
    return tuple(sorted((z.canonical() for z in _example_zigzag_walks(n, prefix)),
                        key=lambda z: z.passes))


def bipyramid_canonical_zorientation(n: int, prefix: str = "") -> ZOrientation:
    """The homogeneous z-orientation directing the base cycle 1 -> 2 -> ... -> n.

    Every spoke comes out type I and both apexes are type-I vertices.
    """
    t = bipyramid(n, prefix)
    zs = enumerate_zigzags(t)
    directed = {z.passes: i for i, z in enumerate(_example_zigzag_walks(n, prefix))}
    used = set()
    bits = []
    for z in zs:
        if z.passes in directed:
            bits.append(0)
            used.add(directed[z.passes])
        elif z.reverse().passes in directed:
            bits.append(1)
            used.add(directed[z.reverse().passes])
        else:
            raise AssertionError(f"BP({n}) zigzag not matched by the hand construction")
    assert used == set(range(len(zs))), "hand-built zigzags exhaust the census"
    tau = ZOrientation(tuple(zs), tuple(bits))
    assert is_homogeneous(t, tau)
    return tau


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
        ids = [i for i, _ in self.nodes]
        if len(set(ids)) != len(ids):
            raise TreeError("duplicate node ids")
        known = set(ids)
        seen = set()
        for e in self.edges:
            if e[0] == e[1]:
                raise TreeError(f"edge {e} joins a node to itself")
            if not set(e) <= known:
                raise TreeError(f"edge {e} references an unknown node")
            key = tuple(sorted(e))
            if key in seen:
                raise TreeError(f"duplicate edge {e}")
            seen.add(key)
        object.__setattr__(self, "nodes", tuple(sorted(self.nodes)))
        object.__setattr__(self, "edges", tuple(sorted(tuple(sorted(e)) for e in self.edges)))

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
    nodes: list[tuple[str, int]] = []
    arcs: list[tuple[int, str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "n":
            if len(parts) != 3:
                raise ParseError(f"line {lineno}: expected 'n <id> <label>', got {raw.strip()!r}")
            try:
                label = int(parts[2])
            except ValueError:
                raise ParseError(f"line {lineno}: label {parts[2]!r} is not an integer") from None
            nodes.append((parts[1], label))
        elif parts[0] == "a":
            if len(parts) != 3:
                raise ParseError(f"line {lineno}: expected 'a <id1> <id2>', got {raw.strip()!r}")
            arcs.append((lineno, parts[1], parts[2]))
        else:
            raise ParseError(f"line {lineno}: unknown record {parts[0]!r}")
    known = {i for i, _ in nodes}
    for lineno, u, w in arcs:
        for x in (u, w):
            if x not in known:
                raise ParseError(f"line {lineno}: edge references unknown node {x!r}")
    try:
        return TreeSpec(tuple(nodes), tuple((u, w) for _, u, w in arcs))
    except TreeError as exc:
        raise ParseError(str(exc)) from None


def serialize_tree(spec: TreeSpec) -> str:
    lines = [f"n {i} {lab}" for i, lab in spec.nodes]
    lines += [f"a {u} {w}" for u, w in spec.edges]
    return "\n".join(lines) + "\n"


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
    start = spec.nodes[0][0]
    seen = {start}
    stack = [start]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
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


def tree_build(spec: TreeSpec) -> tuple[Triangulation, ZOrientation, BuildLog]:
    """Build the z-knotted triangulation a labeled tree describes.

    Breadth-first from the root, children in id order.  Each node's base
    cycle reserves the vertex triples (1,2,3), (3,4,5), ... left to right
    for its children's gluings; a child is glued along its own lowest
    available base pair.  The result is z-knotted and homogeneous with
    exactly two type-I vertices (the two apexes) per tree node.
    """
    report = validate_tree(spec)
    if not report.ok:
        raise TreeError(str(report))
    labels = spec.labels
    adj = spec.adjacency()
    root = spec.root
    assert root is not None

    t = bipyramid(labels[root], _node_prefix(root))
    tau = bipyramid_canonical_zorientation(labels[root], _node_prefix(root))
    # base vertex i of a node may have been renamed when the node was glued
    names: dict[str, dict[int, str]] = {}
    cursor: dict[str, int] = {root: 1}
    records: list[GluingRecord] = []

    def token(node: str, i: int) -> str:
        i = (i - 1) % labels[node] + 1
        return names.get(node, {}).get(i, f"{_node_prefix(node)}{i}")

    def base_pair(node: str, i: int) -> SpecialPair:
        """The pair on the base triple i, i+1, i+2 of a node."""
        return SpecialPair(
            edge_key(token(node, i), token(node, i + 1)),
            edge_key(token(node, i + 1), token(node, i + 2)),
            token(node, i + 1),
        )

    parent_of: dict[str, str | None] = {root: None}
    queue = [root]
    while queue:
        u = queue.pop(0)
        for c in sorted(w for w in adj[u] if w != parent_of[u]):
            parent_of[c] = u
            host_pair = base_pair(u, cursor[u])
            cursor[u] += 2

            n_c = labels[c]
            piece = bipyramid(n_c, _node_prefix(c))
            piece_tau = bipyramid_canonical_zorientation(n_c, _node_prefix(c))
            host_site, piece_site = plan_gluing(
                t, tau, host_pair, piece, piece_tau,
                (base_pair(c, j) for j in range(1, n_c + 1)),
            )

            t, tau = glue((t, tau), host_site, (piece, piece_tau), piece_site)
            prefix_len = len(_node_prefix(c))
            names[c] = {
                int(piece_site.v1[prefix_len:]): host_site.v1,
                int(piece_site.v2[prefix_len:]): host_site.v2,
            }
            # the next base triple starts where the glued one ends
            cursor[c] = int(piece_site.v[prefix_len:]) + 1
            records.append(
                GluingRecord(
                    u, c, host_site.pair, piece_site.pair, piece_site.kind,
                    len(t.vertices), len(t.edges), len(t.faces), len(tau.chosen[0]),
                )
            )
            queue.append(c)

    assert t.euler_characteristic() == 2
    assert len(tau.zigzags) == 1
    cls = classify(t, tau)
    assert _homogeneous(cls, tau)
    assert len(cls.type_i_vertices) == 2 * len(spec.nodes)
    return t, tau, BuildLog(tuple(records))
