"""Seeded input generators and independent facts about triangulations.

Nothing here imports the library under test.  The generators produce plain
data (tree specs as node/edge tuples, face lists as sorted vertex triples);
the fact functions recompute, from faces and passes alone, what the
benchmark checks each job's output against.

Every pool item is generated from its own string-seeded random.Random, so
an item depends only on its pool coordinates, never on which other items a
run draws.  The run seed only chooses pool items and their order; this is
what lets golden output digests cover every input a seed can produce.
"""

from __future__ import annotations

import random
from collections import defaultdict

# ----------------------------------------------------------------------
# labeled trees


TREE_SHAPES = ("path", "star", "recursive")


def random_tree(key: str, n_nodes: int, shape: str) -> tuple[tuple, tuple]:
    """A buildable labeled tree: (nodes, edges) as TreeSpec takes them.

    The root carries an odd label 2k+1 with k >= max(1, degree), every other
    node an even label 2k with k >= max(2, degree); each k sits at its
    minimum or one above it, so pieces mix four-zigzag BP(4k) and two-zigzag
    BP(4k+2).  Paths are deep (rooted at one end), stars bushy (rooted at
    the hub), recursive trees attach node i to a uniformly chosen earlier
    node and are rooted at node 0.  Exactly half the nodes (rounded down)
    sit one above their minimum; with the fixed root this gives paths and
    stars of one size the same face count, so seeds vary the cost little.
    """
    rng = random.Random(f"tree:{key}:{shape}:{n_nodes}")
    ids = [f"n{i}" for i in range(n_nodes)]
    if shape == "path":
        edges = [(ids[i - 1], ids[i]) for i in range(1, n_nodes)]
    elif shape == "star":
        edges = [(ids[0], ids[i]) for i in range(1, n_nodes)]
    elif shape == "recursive":
        edges = [(ids[rng.randrange(i)], ids[i]) for i in range(1, n_nodes)]
    else:
        raise ValueError(f"unknown tree shape {shape!r}")
    root = ids[0]
    deg = dict.fromkeys(ids, 0)
    for u, w in edges:
        deg[u] += 1
        deg[w] += 1
    extras = [1] * (n_nodes // 2) + [0] * (n_nodes - n_nodes // 2)
    rng.shuffle(extras)
    nodes = []
    for i, extra in zip(ids, extras):
        if i == root:
            nodes.append((i, 2 * (max(1, deg[i]) + extra) + 1))
        else:
            nodes.append((i, 2 * (max(2, deg[i]) + extra)))
    return tuple(nodes), tuple(edges)


def tree_text(nodes, edges) -> str:
    """The tree in the library's .tree line format (for digests and logs)."""
    lines = [f"n {i} {lab}" for i, lab in nodes] + [f"a {u} {w}" for u, w in edges]
    return "\n".join(lines) + "\n"


def tree_totals(nodes) -> tuple[int, int, int]:
    """(V, E, F) of a tree build: bipyramid sums, two vertices merged per glue."""
    labels = [lab for _, lab in nodes]
    return (
        sum(n + 2 for n in labels) - 2 * (len(labels) - 1),
        sum(3 * n for n in labels),
        sum(2 * n for n in labels),
    )


# ----------------------------------------------------------------------
# faces


def bipyramid_faces(n: int) -> list[tuple[str, str, str]]:
    """BP(n) with apexes a, b and base 1..n, as sorted triples."""
    faces = []
    for i in range(1, n + 1):
        u, w = str(i), str(i % n + 1)
        faces.append(tuple(sorted(("a", u, w))))
        faces.append(tuple(sorted(("b", u, w))))
    return faces


PLATONIC = ("tetrahedron", "octahedron", "icosahedron")


def flip_sphere(key: str, n: int, flips: int, zigzags: int) -> list[tuple[str, str, str]]:
    """BP(n) after `flips` random 2-2 edge flips, with exactly `zigzags` zigzags.

    A flip replaces faces (u,v,x), (u,v,y) by (x,y,u), (x,y,v); it is taken
    only when x-y is not yet an edge and u, v keep degree >= 3, so the result
    stays a simplicial sphere.  Spheres with another zigzag count are redrawn
    from the same stream: the count k fixes the orientation search at up to
    2^k tries, so fixing it fixes the cost of the input.
    """
    rng = random.Random(f"flip:{key}:{n}:{flips}:{zigzags}")
    for _ in range(1000):
        faces = set(bipyramid_faces(n))
        edge_faces: dict[tuple[str, str], set] = defaultdict(set)
        deg: dict[str, int] = defaultdict(int)
        for f in faces:
            for v in f:
                deg[v] += 1
            for e in _face_edges(f):
                edge_faces[e].add(f)
        done = 0
        for _ in range(50 * flips):
            if done == flips:
                break
            u, v = e = rng.choice(sorted(edge_faces))
            f1, f2 = sorted(edge_faces[e])
            x = next(w for w in f1 if w not in e)
            y = next(w for w in f2 if w not in e)
            if _edge(x, y) in edge_faces or deg[u] <= 3 or deg[v] <= 3:
                continue
            for f in (f1, f2):
                faces.discard(f)
                for fe in _face_edges(f):
                    edge_faces[fe].discard(f)
            del edge_faces[e]
            for f in (tuple(sorted((x, y, u))), tuple(sorted((x, y, v)))):
                faces.add(f)
                for fe in _face_edges(f):
                    edge_faces[fe].add(f)
            deg[u] -= 1
            deg[v] -= 1
            deg[x] += 1
            deg[y] += 1
            done += 1
        out = sorted(faces)
        if len(zigzag_lengths(out)) == zigzags:
            return out
    raise ValueError(f"no flip sphere from BP({n}) with {zigzags} zigzags")


def faces_text(faces, prefix: str = "") -> str:
    """The library's .tri text format, every token carrying the prefix.

    A prefix common to all tokens keeps their lexicographic order, so every
    derived ordering, and therefore the output up to the prefix, is unchanged.
    """
    return "".join(f"f {prefix}{a} {prefix}{b} {prefix}{c}\n" for a, b, c in faces)


def parse_faces(text: str) -> list[tuple[str, str, str]]:
    """Sorted triples from 'f a b c' lines (the benchmark's own reader)."""
    out = []
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] == "f":
            out.append(tuple(sorted(parts[1:4])))
    return out


# ----------------------------------------------------------------------
# independent facts


def _edge(u: str, v: str) -> tuple[str, str]:
    return (u, v) if u < v else (v, u)


def _face_edges(f) -> tuple:
    a, b, c = f
    return (_edge(a, b), _edge(a, c), _edge(b, c))


def edges_of(faces) -> set[tuple[str, str]]:
    return {e for f in faces for e in _face_edges(f)}


def zigzag_lengths(faces) -> list[int]:
    """Sorted lengths of the zigzags, one per reversal pair.

    Walks the successor map directly: from (prev, cur) in a common face, the
    next edge is the edge of cur's other face that avoids prev's vertices.
    """
    edge_faces: dict[tuple[str, str], list] = defaultdict(list)
    for f in faces:
        for e in _face_edges(f):
            edge_faces[e].append(f)
    seen: set = set()
    lengths = []
    for f in faces:
        es = _face_edges(f)
        for a in es:
            for b in es:
                if a == b or (a, b) in seen:
                    continue
                state, n = (a, b), 0
                while True:
                    seen.add(state)
                    seen.add((state[1], state[0]))
                    n += 1
                    prev, cur = state
                    g, h = edge_faces[cur]
                    here = set(prev) | set(cur)
                    far = h if set(g) == here else g
                    nxt = next(e for e in _face_edges(far) if not set(e) & set(prev))
                    state = (cur, nxt)
                    if state == (a, b):
                        break
                lengths.append(n)
    return sorted(lengths)


def pass_census(zigzags, edges) -> list[str]:
    """Problems with the double cover: each edge passed exactly twice in
    total, passes chaining head to tail, lengths summing to 2E."""
    problems = []
    count: dict[tuple[str, str], int] = defaultdict(int)
    for zi, z in enumerate(zigzags):
        for i, (src, dst) in enumerate(z):
            count[_edge(src, dst)] += 1
            if dst != z[(i + 1) % len(z)][0]:
                problems.append(f"zigzag {zi} breaks after pass {i}")
                break
    if set(count) != set(edges):
        problems.append("passes do not cover exactly the edge set")
    bad = [e for e, k in count.items() if k != 2]
    if bad:
        problems.append(f"{len(bad)} edge(s) not passed exactly twice, e.g. {bad[0]}")
    if sum(len(z) for z in zigzags) != 2 * len(edges):
        problems.append("zigzag lengths do not sum to 2E")
    return problems


def edge_types(zigzags) -> tuple[dict, dict]:
    """Types from directed passes: ({edge: 'I'|'II'}, {type-II edge: (src, dst)})."""
    seen: dict[tuple[str, str], tuple[str, str]] = {}
    types, directions = {}, {}
    for z in zigzags:
        for src, dst in z:
            e = _edge(src, dst)
            if e not in seen:
                seen[e] = (src, dst)
            elif seen[e] == (src, dst):
                types[e] = "II"
                directions[e] = (src, dst)
            else:
                types[e] = "I"
    return types, directions


def type_i_vertices(types) -> set[str]:
    vertices = {v for e in types for v in e}
    return vertices - {v for e, k in types.items() if k == "II" for v in e}


def homogeneity_problems(zigzags, faces, types) -> list[str]:
    """Every face type I and every zigzag reading II,I,I repeatedly."""
    problems = []
    for f in faces:
        kinds = sorted(types[e] for e in _face_edges(f))
        if kinds != ["I", "I", "II"]:
            problems.append(f"face {f} is not type I")
            break
    for zi, z in enumerate(zigzags):
        twos = [i for i, (s, d) in enumerate(z) if types[_edge(s, d)] == "II"]
        if len(z) % 3 or len(twos) != len(z) // 3 or len({i % 3 for i in twos}) != 1:
            problems.append(f"zigzag {zi} does not read II,I,I")
    return problems
