"""Measure how the library's costs grow with input size, into BENCH_scaling.json.

Usage: python scripts/scaling.py --label NAME [--src DIR] [--out FILE]
           [--smallest] [--merge]

Each series times one operation on inputs of doubling size:

- "tree_build path": tree_build on a path tree of N nodes, a root labelled
  3 then a chain of N - 1 nodes labelled 4, for N = 62 ... 1000;
- "tree_build star": tree_build on a star tree of N nodes, a root labelled
  2(N - 1) + 1 with N - 1 leaves labelled 4, for the same N;
- "bipyramid enumerate": Triangulation(faces) then enumerate_zigzags on the
  face list of BP(n), for n = 1001 ... 16001.

A point's time is the least wall time of up to REPEATS runs; runs stop
early once the point has used BUDGET_S seconds, and a series skips its
larger points once one run of a point alone took BUDGET_S seconds.  After
the timed runs one more run is traced by tracemalloc, whose peak is the
point's memory.  Each series records the log-log slope of time, and of
memory, against its face count, fitted by least squares over the points
measured.

The results go in FILE (BENCH_scaling.json at the repository root by
default) under the label NAME, next to the runs of other labels already in
it, so one file holds a series before a change and after it.  With --merge
a run under a label already in FILE keeps, point by point, the least times
of both, and the slopes are fitted again: so runs of two checkouts made
alternately, each merged into its label, share the machine's drift in
speed.  The library is imported from DIR (src/ of this checkout by
default), so a second checkout can be measured by the same script.
--smallest measures only the first point of each series, with one run: a
quick check that every series runs.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import platform
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = "zigzags-scaling/1"
# timed runs per point, and the seconds a point may use
REPEATS = 2
BUDGET_S = 20.0
TREE_SIZES = (62, 125, 250, 500, 1000)
BIPYRAMID_SIZES = (1001, 2001, 4001, 8001, 16001)


def path_tree(zz, n: int):
    ids = [f"{i:04d}" for i in range(n)]
    nodes = tuple((i, 3 if k == 0 else 4) for k, i in enumerate(ids))
    return zz.TreeSpec(nodes, tuple(zip(ids, ids[1:])))


def star_tree(zz, n: int):
    root, *leaves = [f"{i:04d}" for i in range(n)]
    nodes = ((root, 2 * (n - 1) + 1), *((i, 4) for i in leaves))
    return zz.TreeSpec(nodes, tuple((root, i) for i in leaves))


def series(zz) -> dict:
    """Each series name -> (its sizes, size -> (the call to time, its face
    count)); an input is made outside the timed call."""

    def tree(make):
        def point(n: int):
            spec = make(zz, n)
            return (lambda: zz.tree_build(spec)), 2 * sum(label for _, label in spec.nodes)
        return point

    def bipyramid(n: int):
        faces = zz.bipyramid(n).faces
        return (lambda: zz.enumerate_zigzags(zz.Triangulation(faces))), len(faces)

    return {
        "tree_build path": (TREE_SIZES, tree(path_tree)),
        "tree_build star": (TREE_SIZES, tree(star_tree)),
        "bipyramid enumerate": (BIPYRAMID_SIZES, bipyramid),
    }


def slope(xs, ys) -> float | None:
    """The least-squares slope of log y against log x; None under two points."""
    if len(xs) < 2:
        return None
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return round(
        sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx), 3
    )


def measure(call, repeats: int, budget: float) -> dict:
    """A point's least seconds, runs made and tracemalloc peak in KiB."""
    times: list[float] = []
    while len(times) < repeats and sum(times) < budget:
        gc.collect()
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    gc.collect()
    tracemalloc.start()
    call()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {
        "seconds": round(min(times), 5),
        "runs": len(times),
        "peak_kib": math.ceil(peak / 1024),
    }


def fitted(points: list[dict], skipped: list[int]) -> dict:
    """A series' record: its points, the sizes it skipped and both slopes."""
    faces = [p["faces"] for p in points]
    return {
        "points": points,
        "skipped": skipped,
        "time_slope": slope(faces, [p["seconds"] for p in points]),
        "memory_slope": slope(faces, [p["peak_kib"] for p in points]),
    }


def run_series(make_point, sizes, repeats: int, budget: float) -> dict:
    points, skipped = [], []
    for n in sizes:
        if skipped or points and points[-1]["seconds"] >= budget:
            skipped.append(n)
            continue
        call, faces = make_point(n)
        points.append({"size": n, "faces": faces, **measure(call, repeats, budget)})
    return fitted(points, skipped)


def merged(old: dict, new: dict) -> dict:
    """The series new with each point also measured in old taking the least
    time of both and the runs of both."""
    before = {p["size"]: p for p in old["points"]}
    points = []
    for p in new["points"]:
        q = before.get(p["size"], {"seconds": math.inf, "runs": 0})
        least = min(p["seconds"], q["seconds"])
        points.append({**p, "seconds": least, "runs": p["runs"] + q["runs"]})
    return fitted(points, new["skipped"])


def import_library(src: Path):
    """Import zigzags from src, never from elsewhere."""
    sys.path.insert(0, str(src))
    zz = importlib.import_module("zigzags")
    if Path(zz.__file__).resolve().parent != (src / "zigzags").resolve():
        raise SystemExit(f"error: imported zigzags from {zz.__file__}, not from {src}")
    return zz


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_scaling.json")
    parser.add_argument("--smallest", action="store_true")
    parser.add_argument("--merge", action="store_true")
    args = parser.parse_args(argv)
    zz = import_library(args.src.resolve())
    repeats = 1 if args.smallest else REPEATS
    run = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "repeats": repeats,
        "budget_s": BUDGET_S,
        "series": {},
    }
    data = json.loads(args.out.read_text()) if args.out.is_file() else {}
    if data.get("schema") != SCHEMA:
        data = {"schema": SCHEMA, "runs": {}}
    earlier = data["runs"].get(args.label) if args.merge else None
    for name, (sizes, make_point) in series(zz).items():
        sizes = sizes[:1] if args.smallest else sizes
        result = run_series(make_point, sizes, repeats, BUDGET_S)
        if earlier and name in earlier["series"]:
            result = merged(earlier["series"][name], result)
            run["repeats"] = earlier["repeats"] + repeats
        run["series"][name] = result
        for p in result["points"]:
            print(
                f"{name}\t{p['size']}\t{p['faces']} faces"
                f"\t{p['seconds']:.4f} s\t{p['peak_kib']} KiB"
            )
        print(f"{name}\tslope {result['time_slope']}\tskipped {result['skipped']}")
    data["runs"][args.label] = run
    args.out.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
