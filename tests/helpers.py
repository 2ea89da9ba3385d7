"""Shared builders for the test suite."""

from __future__ import annotations

import dataclasses
import random
from bisect import insort
from collections import Counter
from itertools import chain, combinations

from zigzags import (
    BuildLog,
    Classification,
    DirectedEmbedding,
    EmbeddingError,
    GluingRecord,
    SpecialPair,
    Triangulation,
    TriangulationError,
    TreeSpec,
    ZOrientation,
    all_z_orientations,
    bipyramid,
    bipyramid_canonical_zorientation,
    classify,
    edge_key,
    enumerate_zigzags,
    extract_directed_embedding,
    face_key,
    find_piece_pairs,
    find_special_pairs,
    glue,
    is_homogeneous,
    make_pass,
    make_z_orientation,
    plan_gluing,
    validate_embedding,
)
from zigzags.engine import _orient_along
from zigzags.generators import _templates


def random_tree_spec(rng: random.Random, max_nodes: int = 8) -> TreeSpec:
    """A random valid tree spec: <= max_nodes nodes, labels <= 14 where the
    node degrees allow it."""
    n_nodes = rng.randint(1, max_nodes)
    ids = [f"n{i}" for i in range(n_nodes)]
    edges = [(ids[rng.randrange(i)], ids[i]) for i in range(1, n_nodes)]
    deg = {i: 0 for i in ids}
    for u, w in edges:
        deg[u] += 1
        deg[w] += 1
    nodes = []
    for j, i in enumerate(ids):
        if j == 0:
            # root label 2k+1 <= 13 unless the degree needs more
            k = rng.randint(max(1, deg[i]), max(6, deg[i]))
            nodes.append((i, 2 * k + 1))
        else:
            # label 2k <= 14 unless the degree needs more
            k = rng.randint(max(2, deg[i]), max(7, deg[i]))
            nodes.append((i, 2 * k))
    return TreeSpec(tuple(nodes), tuple(edges))


def glued_example(piece_n: int):
    """G(BP_3, BP_piece_n) glued at the first host pair, canonical orientations.

    Returns (glued_t, glued_tau, host_site, piece_site).
    """
    host = classify(bipyramid(3, "L."), bipyramid_canonical_zorientation(3, "L."))
    piece = classify(bipyramid(piece_n, "R."), bipyramid_canonical_zorientation(piece_n, "R."))
    host_site, piece_site = plan_gluing(
        host, find_special_pairs(host)[0], piece, find_piece_pairs(piece)
    )
    glued = glue(host_site, piece_site)
    return glued.triangulation, glued.orientation, host_site, piece_site


def sampled_orientations(t, rng: random.Random, cap: int = 16) -> list[ZOrientation]:
    """Every z-orientation when there are at most 4 zigzags, else a sample."""
    taus = list(all_z_orientations(t))
    k = len(taus[0].bits)
    if k <= 4:
        return taus
    out = []
    for _ in range(cap):
        bits = tuple(rng.randint(0, 1) for _ in range(k))
        out.append(make_z_orientation(t, bits))
    return out


def torus7() -> Triangulation:
    """The 7-vertex torus: faces {i, i+1, i+3} and {i, i+2, i+3} mod 7."""
    faces = []
    for i in range(7):
        faces.append((str(i), str((i + 1) % 7), str((i + 3) % 7)))
        faces.append((str(i), str((i + 2) % 7), str((i + 3) % 7)))
    return Triangulation(faces)


def torus_grid(m: int) -> Triangulation:
    """The m x m grid torus, m >= 3: vertices i.j mod m, each square
    (i, j), (i+1, j), (i+1, j+1), (i, j+1) cut along its diagonal."""
    def v(i, j):
        return f"{i % m}.{j % m}"

    faces = []
    for i in range(m):
        for j in range(m):
            faces.append((v(i, j), v(i + 1, j), v(i + 1, j + 1)))
            faces.append((v(i, j), v(i, j + 1), v(i + 1, j + 1)))
    return Triangulation(faces)


def flip_edge(faces: list, edge_faces: dict, degree: Counter, edge):
    """The 2-2 flip of edge {u, v}, in place: the two faces {u, v, a} and
    {u, v, b} leave faces and {a, b, u} and {a, b, v} are appended.  Returns
    the new edge (a, b), or None, changing nothing, when the flip would
    repeat an edge or leave u or v with degree below 3.

    edge_faces (each edge key -> its faces, in face-list order) and degree
    (each vertex -> its number of faces) index faces and are kept current,
    so a flip costs O(1) lookups and two list.remove scans, which run in C.
    """
    u, v = edge
    f, g = edge_faces[edge]
    (a,) = set(f) - {u, v}
    (b,) = set(g) - {u, v}
    if edge_key(a, b) in edge_faces or min(degree[u], degree[v]) <= 3:
        return None
    for h in (f, g):
        faces.remove(h)
        for e in combinations(h, 2):
            edge_faces[edge_key(*e)].remove(h)
    del edge_faces[edge]
    for h in ((a, b, u), (a, b, v)):
        faces.append(h)
        for e in combinations(h, 2):
            edge_faces.setdefault(edge_key(*e), []).append(h)
    degree.update({u: -1, v: -1, a: 1, b: 1})
    return edge_key(a, b)


def random_flips(t: Triangulation, rng: random.Random, flips: int) -> Triangulation:
    """t after `flips` random 2-2 edge flips (edges that cannot flip are
    skipped), each drawn from the sorted edge list by rng.choice."""
    faces = list(t.faces)
    edge_faces: dict = {}
    for f in faces:
        for e in combinations(f, 2):
            edge_faces.setdefault(edge_key(*e), []).append(f)
    degree = Counter(chain.from_iterable(faces))
    edges = sorted(edge_faces)
    done = 0
    for _ in range(100 * flips):
        if done == flips:
            break
        edge = rng.choice(edges)
        new = flip_edge(faces, edge_faces, degree, edge)
        if new is not None:
            edges.remove(edge)
            insort(edges, new)
            done += 1
    assert done == flips, "too few flippable edges"
    return Triangulation(faces)


def flipped_sites(seed: int, tries: int, census: tuple[int, ...]) -> list:
    """Sites that are no bipyramid: random 2-2 flips of BP(4..12) under the
    prefix R., 1 to 2n flips each, kept when their zigzag census is in census,
    their degree sequence unlike any bipyramid's, and they have a
    homogeneous z-orientation with a special pair (one zigzag) or a piece
    pair (two or four); each classified under the first such orientation."""
    rng = random.Random(seed)
    bases = {n: bipyramid(n, "R.") for n in range(4, 13)}
    found = []
    for _ in range(tries):
        n = rng.randint(4, 12)
        t = random_flips(bases[n], rng, rng.randint(1, 2 * n))
        k = len(enumerate_zigzags(t))
        if k not in census:
            continue
        m = len(t.vertices) - 2
        if sorted(len(t.vertex_link(u)) for u in t.vertices) == sorted([4] * m + [m, m]):
            continue
        pairs = find_special_pairs if k == 1 else find_piece_pairs
        for tau in all_z_orientations(t):
            cls = classify(t, tau)
            if cls.homogeneous and pairs(cls):
                found.append(cls)
                break
    return found


def clear_templates() -> None:
    """Empty the bipyramid templates every tree build of a process shares,
    as a new process starts."""
    _templates.clear()


def renaming_namer(v: str, sides: dict, split: dict, renames: dict):
    """The renaming rule of a gluing, run cell by cell: rename(cells, make)
    rebuilds each cell as make(*entries), with v taking split[side] for the
    side, in sides, of the first interior link vertex of the cell, a vertex
    in renames its new name, and any other its own."""

    def renamed(cell, make):
        at = split[sides[next(w for w in cell if w in sides)]] if v in cell else v
        return make(*(at if u == v else renames.get(u, u) for u in cell))

    return lambda cells, make: [renamed(c, make) for c in cells]


def renamed_piece(piece_site, prefix: str, v1: str, v2: str, split: dict) -> dict:
    """What a glue makes of the piece site's cells, each renamed by
    renaming_namer, with the piece's v1, v2 taking the names v1, v2, its
    split vertex split["+"] or split["-"], and its other vertices the
    prefix: the reference for the slot plan the site compiles.  Holds the
    piece's faces, each edge but e1, e2 with its type (in the piece's edge
    order), each key's segment passes, and the type-I vertices."""
    piece, pair = piece_site.classification, piece_site.pair
    tp = piece.triangulation
    named = {u: prefix + u for u in tp.vertices}
    rename = renaming_namer(
        pair.shared_vertex, piece_site.vertex_sides, split, {**named, pair.v1: v1, pair.v2: v2}
    )
    at_piece = [e for e in tp.edges if e != pair.e1 and e != pair.e2]
    return {
        "faces": rename(tp.faces, face_key),
        "types": list(zip(rename(at_piece, edge_key), map(piece.edge_types.get, at_piece))),
        "segments": {
            key: rename(segment, lambda _edge, src, dst: make_pass(src, dst))
            for key, segment in piece_site.segments.items()
        },
        "type_i": {named[x] for x in piece.type_i_vertices},
    }


def with_plan(site, corrupt):
    """A copy of a piece site whose slot plan is corrupt(the site's plan);
    the site and its own plan are left as they were."""
    copy = dataclasses.replace(site)
    vars(copy)["_plan"] = corrupt(site._plan)
    return copy


def public_gluing_build(spec: TreeSpec, sites=None):
    """tree_build's loop folded through the public bipyramid,
    bipyramid_canonical_zorientation, classify, plan_gluing and glue, each
    step classifying its host afresh: the reference for a build that grows
    one surface in place.  Each glue's (host_site, piece_site) is appended to
    sites when a list is given."""
    labels, adj, root = spec.labels, spec.adjacency(), spec.root
    prefix = {i: f"node{i}." for i in labels}
    t = bipyramid(labels[root], prefix[root])
    tau = bipyramid_canonical_zorientation(labels[root], prefix[root])
    names, cursor, records = {}, {root: 1}, []

    def token(node, i):
        i = (i - 1) % labels[node] + 1
        return names.get(node, {}).get(i, f"{prefix[node]}{i}")

    def base_pair(node, i):
        return SpecialPair(
            edge_key(token(node, i), token(node, i + 1)),
            edge_key(token(node, i + 1), token(node, i + 2)),
            token(node, i + 1),
        )

    parent_of, queue = {root: None}, [root]
    while queue:
        u = queue.pop(0)
        for c in sorted(w for w in adj[u] if w != parent_of[u]):
            parent_of[c] = u
            host_pair = base_pair(u, cursor[u])
            cursor[u] += 2
            piece = bipyramid(labels[c], prefix[c])
            piece_tau = bipyramid_canonical_zorientation(labels[c], prefix[c])
            host_site, piece_site = plan_gluing(
                classify(t, tau), host_pair, classify(piece, piece_tau),
                [base_pair(c, j) for j in range(1, labels[c] + 1)],
            )
            if sites is not None:
                sites.append((host_site, piece_site))
            glued = glue(host_site, piece_site)
            t, tau = glued.triangulation, glued.orientation
            cut = len(prefix[c])
            names[c] = {
                int(piece_site.pair.v1[cut:]): host_site.pair.v1,
                int(piece_site.pair.v2[cut:]): host_site.pair.v2,
            }
            cursor[c] = int(piece_site.pair.shared_vertex[cut:]) + 1
            records.append(GluingRecord(
                u, c, host_site.pair, piece_site.pair, piece_site.kind,
                len(t.vertices), len(t.edges), len(t.faces), len(tau.chosen[0]),
            ))
            queue.append(c)
    return t, tau, BuildLog(tuple(records))


def are_concordant(cls: Classification, p: SpecialPair, q: SpecialPair) -> bool:
    """Whether two edge-disjoint special pairs of a z-knotted triangulation
    alternate p, q, p, q, ... along its zigzag: the paper's condition for
    the pair q to survive a gluing along p."""
    label = {e: name for name, pair in (("p", p), ("q", q)) for e in (pair.e1, pair.e2)}
    marks = [label[e] for e, _, _ in cls.orientation.chosen[0].passes if e in label]
    assert len(marks) == 8, "each pair edge is passed twice"
    return all(a != b for a, b in zip(marks, marks[1:] + marks[:1]))


def embedding_from_directed_faces(t: Triangulation, tau: ZOrientation) -> DirectedEmbedding:
    """The double embedding of an all-type-II orientation.

    When every edge is type II the directed edges form the arcs on all of
    T's vertices and every face is a directed 3-cycle; the face cycles are
    the faces themselves.  This is the embedding whose coning triangulates
    to a larger complex, one new vertex per face: a seed generator for
    embeddings and triangulations beyond the bipyramids.
    """
    cls = classify(t, tau)
    if cls.type_i_vertices or any(ty != "II" for ty in cls.edge_types.values()):
        raise EmbeddingError("requires an orientation with every edge type II")
    arcs = tuple(sorted(cls.edge_directions.values()))
    arcset = set(arcs)
    cycles = []
    for i, (x, y, z) in enumerate(t.faces):
        # classify checked that every face is a directed 3-cycle, so the
        # direction of x-y fixes the other two
        tri = ((x, y), (y, z), (z, x)) if (x, y) in arcset else ((y, x), (x, z), (z, y))
        cycles.append((f"F{i}", tri))
    emb = DirectedEmbedding(tuple(t.vertices), arcs, tuple(cycles))
    report = validate_embedding(emb)
    if not report.ok:
        raise EmbeddingError(str(report))
    return emb


def coned_round_trip(t: Triangulation, tau: ZOrientation) -> bool:
    """The round trip through a second surface: cone the extracted
    embedding into a new Triangulation, validate and enumerate it, orient
    its zigzags along the arcs and check that they are homogeneous, then
    compare faces and chosen zigzags with t and tau.  The reference for
    round_trip_check, which compares the coned faces with t's instead."""
    emb = extract_directed_embedding(t, tau)
    t2 = Triangulation([face_key(name, u, w) for name, cyc in emb.face_cycles for u, w in cyc])
    t2.require_valid()
    tau2 = _orient_along(enumerate_zigzags(t2), emb.arcs)
    if not is_homogeneous(t2, tau2):
        raise EmbeddingError("coned triangulation is not homogeneous")
    if set(t.faces) != set(t2.faces):
        return False
    return {z.passes for z in tau.chosen} == {z.passes for z in tau2.chosen}


def reads_ii_i_i(cls) -> bool:
    """The definition, read literally: every face is type I and each chosen
    zigzag's length is a multiple of 3 with type II exactly at the
    positions of one residue class mod 3."""
    if set(cls.face_types.values()) != {"I"}:
        return False
    for z in cls.orientation.chosen:
        types = [cls.edge_types[p.edge] for p in z.passes]
        if len(z) % 3 or not any(
            all((ty == "II") == (i % 3 == r) for i, ty in enumerate(types)) for r in range(3)
        ):
            return False
    return True


def classify_by_passes(t: Triangulation, tau: ZOrientation):
    """classify's rule read off the chosen zigzags: each edge's two passes
    are collected from tau.chosen, and homogeneity checks the II,I,I period
    on the chosen zigzags.  The reference for classify, which reads the
    types off tau's bits.  Returns (edge_types, edge_directions,
    vertex_types, face_types, homogeneous)."""
    t.require_valid()
    passes = {e: [] for e in t.edges}
    for z in tau.chosen:
        for e, src, dst in z.passes:
            passes[e].append((src, dst))
    if any(len(v) != 2 for v in passes.values()):
        raise TriangulationError("each edge is passed exactly twice")
    edge_types = {e: "II" if d1 == d2 else "I" for e, (d1, d2) in passes.items()}
    edge_directions = {e: d1 for e, (d1, d2) in passes.items() if d1 == d2}
    vertex_types = dict.fromkeys(t.vertices, "I")
    for u, v in edge_directions:
        vertex_types[u] = vertex_types[v] = "II"
    face_types = {}
    for f in t.faces:
        a, b, c = f
        es = ((a, b), (a, c), (b, c))
        twos = [e for e in es if e in edge_directions]
        if len(twos) == 1:
            face_types[f] = "I"
        elif len(twos) != 3:
            raise TriangulationError(f"face {f!r} violates the type dichotomy")
        elif not {edge_directions[e][0] for e in es} == {edge_directions[e][1] for e in es} == set(f):
            raise TriangulationError(f"type-II face {f!r} is not a directed cycle")
        else:
            face_types[f] = "II"
    homogeneous = set(face_types.values()) <= {"I"} and all(
        ii[3:] + ii[:3] == ii
        for ii in ([edge_types[p.edge] == "II" for p in z.passes] for z in tau.chosen)
    )
    return edge_types, edge_directions, vertex_types, face_types, homogeneous
