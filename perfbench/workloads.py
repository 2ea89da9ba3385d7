"""The three workloads: pools, set-up, timed calls, outputs and checks.

A workload draws its corpus from a fixed pool (`pool`, `select`), prepares
library inputs in set-up (`prepare`), and then runs jobs in rounds.  Each
job's timed part (`run`) is exactly the library work of one CLI path; the
untimed part turns the result into plain data (`output`) and checks it
against facts the benchmark works out itself (`problems`).

Library functions are always reached through module attributes at call
time (`zz.tree_build`, `zz.cli.analyze_report`), so the tracer's wrappers
see every call.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import defaultdict
from typing import Any, NamedTuple

from inputs import (
    PLATONIC,
    TREE_SHAPES,
    bipyramid_faces,
    edge_types,
    edges_of,
    faces_text,
    flip_sphere,
    homogeneity_problems,
    parse_faces,
    pass_census,
    random_tree,
    tree_text,
    tree_totals,
    type_i_vertices,
    zigzag_lengths,
)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def output_digest(out: dict, prefix: str = "") -> str:
    text = json.dumps(out, sort_keys=True, separators=(",", ":"))
    return digest(text.replace(prefix, "") if prefix else text)


class Job(NamedTuple):
    key: str  # golden key: digest of the un-prefixed input
    faces: int  # size used for the log-log slope
    data: Any  # workload-specific input
    prefix: str = ""  # token prefix to strip before digesting the output


def _passes(zigzags) -> list[list[tuple[str, str]]]:
    return [[(p.src, p.dst) for p in z.passes] for z in zigzags]


def _drop_pass(out: dict) -> dict:
    """Tamper: the first zigzag loses its last pass."""
    zs = [list(z) for z in out["zigzags"]]
    zs[0] = zs[0][:-1]
    return {**out, "zigzags": zs}


# ----------------------------------------------------------------------


class TreeBuild:
    """tree_build(spec) then serialize_triangulation: the CLI build-tree path."""

    name = "tree-build"
    # Job cost varies up to 3x between trees of one shape and size, so a
    # seed draws several per (shape, size) stratum, and sizes are evenly
    # spaced so no quantile sits in a cost gap between two sizes.
    SIZES = (2, 4, 6, 8, 10, 12, 14, 16, 18, 20)
    VARIANTS = 16
    PER_STRATUM = 4

    def pool(self):
        return [(s, n, v) for s in TREE_SHAPES for n in self.SIZES for v in range(self.VARIANTS)]

    def select(self, seed: int):
        # PER_STRATUM trees per (shape, size) stratum keep the cost mix equal across seeds
        rng = random.Random(f"{self.name}:{seed}")
        items = [
            (s, n, v)
            for s in TREE_SHAPES for n in self.SIZES
            for v in rng.sample(range(self.VARIANTS), self.PER_STRATUM)
        ]
        rng.shuffle(items)
        return items

    def prepare(self, zz, items):
        jobs = []
        for shape, n, v in items:
            nodes, edges = random_tree(str(v), n, shape)
            spec = zz.TreeSpec(nodes, edges)
            jobs.append(Job(digest(tree_text(nodes, edges)), tree_totals(nodes)[2], (spec, nodes)))
        return jobs

    def rounds(self, jobs, r):
        return jobs

    def run(self, zz, job):
        t, tau, log = zz.tree_build(job.data[0])
        return zz.serialize_triangulation(t), tau, log

    def output(self, job, raw) -> dict:
        text, tau, log = raw
        return {
            "text": text,
            "log": str(log),
            "bits": "".join(map(str, tau.bits)),
            "zigzags": _passes(tau.chosen),
        }

    def problems(self, job, out) -> list[str]:
        faces = parse_faces(out["text"])
        edges = edges_of(faces)
        vertices = {v for f in faces for v in f}
        nodes = job.data[1]
        problems = []
        if (len(vertices), len(edges), len(faces)) != tree_totals(nodes):
            problems.append("V, E, F differ from the bipyramid sums")
        if len(vertices) - len(edges) + len(faces) != 2:
            problems.append("Euler characteristic is not 2")
        zs = out["zigzags"]
        if len(zs) != 1 or len(zs[0]) != 2 * len(edges):
            problems.append("not one zigzag of length 2E")
        problems += pass_census(zs, edges)
        if not problems:
            types, _ = edge_types(zs)
            if len(type_i_vertices(types)) != 2 * len(nodes):
                problems.append("type-I vertex count is not 2N")
            problems += homogeneity_problems(zs, faces, types)
        return problems

    def tampers(self, out):
        first = out["text"].split("\n", 1)
        return [
            ("zigzag length", _drop_pass(out)),
            ("face list", {**out, "text": first[1]}),
        ]


# ----------------------------------------------------------------------


class PairScan:
    """parse, require_valid, make_z_orientation, analyze_report(tsv):
    the CLI `analyze --zorient <bits> --format tsv` path."""

    name = "pair-scan"
    ODD = (3, 5, 7, 9, 11, 13, 15, 17)
    EVEN = (4, 6, 8, 10, 12, 14, 16, 20)
    # Bipyramids are the smallest hosts; then every tree size from 4 to 8
    # nodes, so no quantile sits in a cost gap between two sizes.  Job cost
    # varies up to 3x between hosts of one shape and size, so a seed draws
    # PER_STRATUM of them per (shape, size) to keep its cost mix steady.
    TREE_SIZES = (4, 5, 6, 7, 8)
    VARIANTS = 12
    PER_STRATUM = 4

    def pool(self):
        items = [("bp", n, 0, r) for n in self.ODD + self.EVEN for r in (0, 1)]
        items += [
            ("tree", (s, n), v, r)
            for s in TREE_SHAPES for n in self.TREE_SIZES
            for v in range(self.VARIANTS) for r in (0, 1)
        ]
        return items

    def select(self, seed: int):
        # every host in both directions: the reversed orientation makes the
        # first role order fail for other pairs, so the direction sets the cost
        rng = random.Random(f"{self.name}:{seed}")
        items = [("bp", n, 0, r) for n in self.ODD + self.EVEN for r in (0, 1)]
        items += [
            ("tree", (s, n), v, r)
            for s in TREE_SHAPES for n in self.TREE_SIZES
            for v in rng.sample(range(self.VARIANTS), self.PER_STRATUM) for r in (0, 1)
        ]
        rng.shuffle(items)
        return items

    def prepare(self, zz, items):
        hosts = {}
        jobs = []
        for kind, size, v, reverse in items:
            if (kind, size, v) not in hosts:
                if kind == "bp":
                    host = zz.bipyramid(size), zz.bipyramid_canonical_zorientation(size)
                else:
                    host = zz.tree_build(zz.TreeSpec(*random_tree(str(v), size[1], size[0])))[:2]
                hosts[kind, size, v] = host
            t, tau = hosts[kind, size, v]
            if reverse:
                tau = tau.reversed()
            text = zz.serialize_triangulation(t)
            bits = "".join(map(str, tau.bits))
            faces = parse_faces(text)
            jobs.append(Job(digest(text + bits), len(faces), (text, bits, faces)))
        return jobs

    def rounds(self, jobs, r):
        return jobs

    def run(self, zz, job):
        text, bits, _ = job.data
        t = zz.parse_triangulation(text)
        t.require_valid()
        tau = zz.make_z_orientation(t, tuple(int(b) for b in bits))
        return zz.cli.analyze_report(t, tau, "tsv"), tau

    def output(self, job, raw) -> dict:
        report, tau = raw
        return {"report": report, "zigzags": _passes(tau.chosen)}

    def problems(self, job, out) -> list[str]:
        faces = job.data[2]
        edges = edges_of(faces)
        zs = out["zigzags"]
        problems = pass_census(zs, edges)
        if problems:
            return problems
        types, directions = edge_types(zs)
        rows = defaultdict(list)
        for line in out["report"].splitlines():
            kind, *rest = line.split("\t")
            rows[kind].append(rest)
        if [int(r[1]) for r in rows["zigzag"]] != [len(z) for z in zs]:
            problems.append("zigzag lengths differ from the orientation")
        reported = {}
        for r in rows["edge"]:
            reported[(r[0], r[1])] = (r[2], tuple(r[3:5]) if r[2] == "II" else None)
        mine = {e: (k, directions.get(e)) for e, k in types.items()}
        if reported != mine:
            problems.append("edge types or directions differ")
        type_i = type_i_vertices(types)
        if {r[0] for r in rows["vertex"] if r[1] == "I"} != type_i:
            problems.append("type-I vertices differ")
        if homogeneity_problems(zs, faces, types) or rows["homogeneous"] != [["true"]]:
            problems.append("orientation is not homogeneous")
        balance = defaultdict(lambda: [0, 0])
        for s, d in directions.values():
            balance[d][0] += 1
            balance[s][1] += 1
        for v, inn, outn in rows["balance"]:
            if [int(inn), int(outn)] != balance[v]:
                problems.append(f"balance of {v} differs")
                break
        problems += self._pair_problems(rows["pair"], zs, types)
        return problems

    @staticmethod
    def _pair_problems(rows, zs, types) -> list[str]:
        """Recheck each reported pair and compare the count with our own."""
        where = defaultdict(list)  # edge -> [(zigzag, position)]
        for zi, z in enumerate(zs):
            for i, (s, d) in enumerate(z):
                where[(s, d) if s < d else (d, s)].append((zi, i))

        def special(e1, e2) -> str | None:
            w1, w2 = where[e1], where[e2]
            if len(zs) == 1:
                (_, a), (_, b) = sorted(w1)
                inside = sum(1 for _, x in w2 if a < x < b)
                return "special" if inside == 1 else None
            h1, h2 = {z for z, _ in w1}, {z for z, _ in w2}
            if len(zs) == 2 and len(h1) == len(h2) == 1 and h1 != h2:
                return "two_zigzag_piece"
            if len(zs) == 4 and len(h1) == len(h2) == 2 and not h1 & h2:
                return "four_zigzag_piece"
            return None

        problems = []
        seen = set()
        for u1, v1, u2, v2, shared, kind in rows:
            e1, e2 = (u1, v1), (u2, v2)
            if types.get(e1) != "II" or types.get(e2) != "II":
                problems.append(f"pair {e1}/{e2} has an edge that is not type II")
            elif set(e1) & set(e2) != {shared}:
                problems.append(f"pair {e1}/{e2} does not share exactly {shared}")
            elif special(e1, e2) != kind:
                problems.append(f"pair {e1}/{e2} does not show the {kind} pattern")
            seen.add(frozenset((e1, e2)))
        if len(seen) != len(rows):
            problems.append("a pair is reported twice")
        at = defaultdict(list)
        for e in sorted(e for e, k in types.items() if k == "II"):
            for v in e:
                at[v].append(e)
        expected = sum(
            1
            for es in at.values()
            for i, e1 in enumerate(es)
            for e2 in es[i + 1:]
            if special(e1, e2)
        )
        if expected != len(rows):
            problems.append(f"{len(rows)} pairs reported, {expected} expected")
        return problems

    def tampers(self, out):
        lines = out["report"].split("\n")
        pairs = [i for i, line in enumerate(lines) if line.startswith("pair\t")]
        tampered = [("zigzag length", _drop_pass(out))]
        if pairs:
            del lines[pairs[0]]
            tampered.append(("pair list", {**out, "report": "\n".join(lines)}))
        return tampered


# ----------------------------------------------------------------------


class Census:
    """parse, require_valid, enumerate, first homogeneous orientation,
    classify and, when homogeneous, the Eulerian round trip: the CLI
    generate / analyze / convert paths on inputs seen once each."""

    name = "census"
    # BP(4m + r) for every residue r, `count` distinct m from lo .. lo + 2.
    # The largest class fills more than the top tenth of the corpus, so p90
    # falls inside one cluster of similar jobs rather than in a cost gap; the
    # m = 10 .. 12 class is drawn twice per residue so that p50 falls inside it.
    BP_CLASSES = ((1, 1), (10, 2), (30, 1), (70, 2))
    # flip spheres grown from BP(n), stratified by zigzag count k
    FLIP_STRATA = {12: (1, 2, 3), 24: (1, 2, 3, 4), 40: (2, 3, 4, 5, 6)}
    FLIP_VARIANTS = 8
    TREE_NODES = 24
    TREE_VARIANTS = 8

    def pool(self):
        items = [("bp", 4 * m + r) for lo, _ in self.BP_CLASSES for m in range(lo, lo + 3) for r in range(4)]
        items += [("platonic", name) for name in PLATONIC]
        items += [
            ("flip", (n, k), v)
            for n, ks in self.FLIP_STRATA.items() for k in ks
            for v in range(self.FLIP_VARIANTS)
        ]
        items += [("tree", s, v) for s in TREE_SHAPES for v in range(self.TREE_VARIANTS)]
        return items

    def select(self, seed: int):
        # fixed strata, seeded members: every seed gets the same cost mix
        rng = random.Random(f"{self.name}:{seed}")
        items = [
            ("bp", 4 * m + r)
            for lo, count in self.BP_CLASSES for r in range(4)
            for m in rng.sample(range(lo, lo + 3), count)
        ]
        items += [("platonic", name) for name in PLATONIC]
        items += [
            ("flip", (n, k), rng.randrange(self.FLIP_VARIANTS))
            for n, ks in self.FLIP_STRATA.items() for k in ks
        ]
        items += [("tree", s, rng.randrange(self.TREE_VARIANTS)) for s in TREE_SHAPES]
        rng.shuffle(items)
        return items

    def prepare(self, zz, items):
        jobs = []
        for item in items:
            if item[0] == "bp":
                faces = bipyramid_faces(item[1])
            elif item[0] == "platonic":
                faces = [tuple(f) for f in zz.platonic(item[1]).faces]
            elif item[0] == "flip":
                (n, k), v = item[1], item[2]
                faces = flip_sphere(str(v), n, n, k)
            else:
                spec = zz.TreeSpec(*random_tree(str(item[2]), self.TREE_NODES, item[1]))
                faces = [tuple(f) for f in zz.tree_build(spec)[0].faces]
            jobs.append(Job(digest(faces_text(faces)), len(faces), (item, faces)))
        return jobs

    def rounds(self, jobs, r):
        # every round renames all tokens, so no input text is ever seen twice
        prefix = f"r{r}@"
        return [
            job._replace(
                prefix=prefix,
                data=(job.data[0], faces_text(job.data[1], prefix)),
            )
            for job in jobs
        ]

    def run(self, zz, job):
        t = zz.parse_triangulation(job.data[1])
        t.require_valid()
        zs = zz.enumerate_zigzags(t)
        found = None
        for tau in zz.all_z_orientations(t):
            if zz.is_homogeneous(t, tau):
                found = tau
                break
        tau = found if found is not None else zz.ZOrientation(zs, (0,) * len(zs))
        cls = zz.classify(t, tau)
        if found is None:
            return tau, False, cls, None, None, None
        text = zz.serialize_embedding(zz.extract_directed_embedding(t, tau))
        t2, _ = zz.triangulate_embedding(zz.parse_embedding(text))
        return tau, True, cls, text, t2, zz.round_trip_check(t, tau)

    def output(self, job, raw) -> dict:
        tau, homogeneous, cls, text, t2, round_trip = raw
        return {
            "bits": "".join(map(str, tau.bits)),
            "homogeneous": homogeneous,
            "zigzags": _passes(tau.chosen),
            "edge_types": sorted(cls.edge_types.items()),
            "vertex_types": sorted(cls.vertex_types.items()),
            "face_types": sorted(cls.face_types.items()),
            "embedding": text,
            "faces2": sorted(t2.faces) if t2 is not None else None,
            "round_trip": round_trip,
        }

    def problems(self, job, out) -> list[str]:
        item = job.data[0]
        faces = parse_faces(job.data[1])
        edges = edges_of(faces)
        zs = out["zigzags"]
        problems = pass_census(zs, edges)
        lengths = sorted(len(z) for z in zs)
        if lengths != zigzag_lengths(faces):
            problems.append("zigzag lengths differ from an independent walk")
        if item[0] == "bp":
            n = item[1]
            expected = {1: [6 * n], 3: [6 * n], 2: [3 * n] * 2, 0: [3 * n // 2] * 4}[n % 4]
            if lengths != expected:
                problems.append(f"BP({n}) census is not the one for n = {n % 4} mod 4")
        known = item[0] in ("bp", "tree") or item == ("platonic", "octahedron")
        if item[0] != "flip" and out["homogeneous"] != known:
            problems.append("homogeneous orientation found where none exists, or missed")
        if problems or not out["homogeneous"]:
            return problems
        types, _ = edge_types(zs)
        if dict(map(tuple, out["edge_types"])) != types:
            problems.append("edge types differ from the passes")
        problems += homogeneity_problems(zs, faces, types)
        if sorted(map(tuple, out["faces2"])) != sorted(faces):
            problems.append("re-triangulated faces differ from the input")
        if out["round_trip"] is not True:
            problems.append("round trip check failed")
        return problems

    def tampers(self, out):
        if not out["homogeneous"]:
            return [("zigzag length", _drop_pass(out))]
        return [
            ("zigzag length", _drop_pass(out)),
            ("re-triangulated faces", {**out, "faces2": out["faces2"][1:]}),
        ]


WORKLOADS = {w.name: w for w in (TreeBuild(), PairScan(), Census())}
