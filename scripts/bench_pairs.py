"""Compare the benchmark at a base commit with the working tree, in pairs.

Usage: python scripts/bench_pairs.py --base REF --workload W --pairs N
           --seconds S --seed K

W is a workload of BENCHMARK.json, or all to run the pairs of each
workload in turn and print one table per workload.

REF is extracted with git archive into a temporary directory, removed on
exit.  Each pair runs perfbench/run.py of the base and of the working tree
once, the base first in odd pairs and second in even ones, so that a drift
in machine speed falls on both sides alike.  A run's result is the JSON
on its last stdout line.  For every end-to-end metric of BENCHMARK.json
the summary prints the median of each side, the relative change of the
medians, in how many pairs the change was better (reading the direction
from the metric's `better`), and the distance between the quartiles of
the base's runs, the spread a gain in the medians must exceed.  Exits 1
when any run, of any workload, is not correct.  Of either tree it runs only
perfbench/run.py, which imports the library from that tree's src/;
BENCHMARK.json is read from the working tree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def last_json(stdout: str) -> dict:
    """The JSON result on the last non-blank line of a run's stdout."""
    return json.loads(stdout.strip().splitlines()[-1])


def summarize(pairs: list[tuple[dict, dict]], end_to_end: list[dict]) -> list[str]:
    """One line per metric over (base, change) results: both medians, the
    relative change, the pairs the change won (ties count for neither
    side), and the distance between the quartiles of the base's runs."""
    lines = [
        f"{'metric':<12} {'unit':<5} {'base':>10} {'change':>10} {'delta':>8} {'won':>6} {'base IQR':>10}"
    ]
    for spec in end_to_end:
        name = spec["name"]
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        new = [c["metrics"][name]["value"] for _, c in pairs]
        lower = spec["better"] == "lower"
        won = sum(c < b if lower else c > b for b, c in zip(base, new))
        mb, mc = statistics.median(base), statistics.median(new)
        delta = f"{(mc - mb) / mb:+.1%}" if mb else "n/a"
        q1, _, q3 = statistics.quantiles(base, n=4) if len(base) > 1 else (mb, mb, mb)
        lines.append(
            f"{name:<12} {spec['unit']:<5} {mb:>10.4g} {mc:>10.4g} {delta:>8}"
            f" {won:>3}/{len(pairs):<2} {q3 - q1:>10.4g}"
        )
    return lines


def run(checkout: Path, args) -> dict:
    """One perfbench/run.py run of a checkout; its JSON result."""
    out = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds)],
        capture_output=True, text=True,
    )
    try:
        return last_json(out.stdout)
    except (IndexError, ValueError):
        sys.stderr.write(out.stderr)
        return {"correct": False, "metrics": {}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]] if args.workload == "all" else [args.workload]
    status = 0
    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        archive = subprocess.run(
            ["git", "archive", "--format=tar", args.base], cwd=ROOT, capture_output=True, check=True
        ).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        for name in names:
            one = argparse.Namespace(**{**vars(args), "workload": name})
            pairs = []
            for i in range(1, args.pairs + 1):
                order = (Path(tmp), ROOT) if i % 2 else (ROOT, Path(tmp))
                res = {checkout: run(checkout, one) for checkout in order}
                pairs.append((res[Path(tmp)], res[ROOT]))
                print(f"{name} pair {i}: {'base' if i % 2 else 'change'} first", flush=True)
            bad = [i for i, pair in enumerate(pairs, 1) for res in pair if not res["correct"]]
            if bad:
                print(f"{name}: runs not correct in pairs {sorted(set(bad))}", file=sys.stderr)
                status = 1
            else:
                print(f"workload: {name}")
                print("\n".join(summarize(pairs, bench["end_to_end"])), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
