"""Benchmark of the zigzags library: three workloads, checked outputs.

    python3 perfbench/run.py --workload <tree-build|pair-scan|census|all>
        --seed <n> --seconds <s> --trace <0|1>

One process, one thread, closed loop: each job starts when the previous
one has finished and been checked.  The library is imported from src/ of
the checkout this file sits in, and sees only the generated inputs.

--trace 0 measures the end-to-end metrics.  Set-up (import the library and
build the corpus) runs at least SETUP_REPS times and for at least
SETUP_SECONDS, and reports the median.  Jobs then run in whole rounds over
the corpus while the next round should end within --seconds, and until at
least MIN_JOBS jobs ran; only the library calls of a job are timed.  Every
job's output is checked against facts the benchmark works out itself and
against the golden digest recorded for its input; a job that raises or
fails a check counts in `failed`.  After the run, tampered copies of some
outputs must fail the checks, or the run is not `correct`.

Every time reported is scaled to a fixed nominal machine speed.  On a
shared 2-core VM a fixed pure-Python loop took anywhere from 28 to 49 ms
within 40 s, in wall time and in thread CPU time alike, while steal time
stayed near zero: the host core itself changes speed, and raw times of one
program spread past any useful bound.  So a reference task that never
calls the library (an independent zigzag walk of a fixed sphere,
inputs.zigzag_lengths) is timed before every job and around every set-up,
and a measured time t is reported as t * REF_MS / r, where r is the median
reference time around it.  A faster library lowers t and leaves r alone.

--trace 1 makes the separate traced run: rounds for half of --seconds
untraced, then rounds for the other half with every traced library function
wrapped from outside (tracing.py).  It reports per-layer call counts and self
times per round, and the tracing overhead as traced over untraced jobs per
second.  Spans go to perfbench/out/.

--workload all runs the three workloads, each in its own fresh process,
and prints one table.  The last stdout line of a single-workload run is
the JSON result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from inputs import flip_sphere, zigzag_lengths  # noqa: E402
from layers import per_layer_units  # noqa: E402
from workloads import WORKLOADS, output_digest  # noqa: E402

SETUP_REPS = 3  # set up at least this often, and for at least SETUP_SECONDS
SETUP_SECONDS = 2.0
MIN_JOBS = 100  # p90 then has at least ten samples beyond it
GOLDEN = HERE / "golden.json"
REF_FACES = flip_sphere("reference", 24, 24, 3)
REF_MS = 1.0  # nominal reference time; about the fastest seen on a quiet core
REF_WINDOW = 2  # a job's speed: median of the 2 references on each side of it


def reference_ms() -> float:
    """Time the reference task once, in ms."""
    t0 = time.perf_counter_ns()
    zigzag_lengths(REF_FACES)
    zigzag_lengths(REF_FACES)
    return (time.perf_counter_ns() - t0) / 1e6


def import_library():
    """Import zigzags afresh from the checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "zigzags" / "__init__.py").is_file():
        raise SystemExit(f"error: library source not found under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for key in [k for k in sys.modules if k == "zigzags" or k.startswith("zigzags.")]:
        del sys.modules[key]
    zz = importlib.import_module("zigzags")
    importlib.import_module("zigzags.cli")
    if Path(zz.__file__).resolve().parent != (src / "zigzags").resolve():
        raise SystemExit(f"error: imported zigzags from {zz.__file__}, not from {src}")
    return zz


def setup(workload, seed: int):
    """Import the library and build the corpus; the time is scaled."""
    refs = [reference_ms() for _ in range(3)]
    t0 = time.perf_counter()
    zz = import_library()
    jobs = workload.prepare(zz, workload.select(seed))
    took = time.perf_counter() - t0
    refs += [reference_ms() for _ in range(3)]
    return zz, jobs, took * REF_MS / statistics.median(refs)


class Checker:
    """Checks outputs, counts failures, keeps first outputs for the self-check."""

    def __init__(self, workload, golden: dict, tracer=None):
        self.workload = workload
        self.golden = golden
        self.tracer = tracer  # when set, the timed call runs inside a job span
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.kept: list[tuple] = []

    def run(self, zz, job) -> float:
        """Run one job; return its time in ms (the only timed part)."""
        self.attempted += 1
        span = self.tracer.begin_job(self.attempted) if self.tracer else None
        t0 = time.perf_counter_ns()
        try:
            raw = self.workload.run(zz, job)
        except Exception as exc:  # a job that raises is a failed job, not a crash
            raw, error = None, f"raised {type(exc).__name__}: {exc}"
        else:
            error = None
        ms = (time.perf_counter_ns() - t0) / 1e6
        if span is not None:
            self.tracer.end_job(span)
        if error:
            self._fail(job, error)
            return ms
        out = self.workload.output(job, raw)
        problems = self.workload.problems(job, out)
        want = self.golden.get(job.key)
        if want is None:
            problems.append("no golden digest for this input")
        elif output_digest(out, job.prefix) != want:
            problems.append("output differs from the golden digest")
        if problems:
            self._fail(job, "; ".join(problems))
        elif len(self.kept) < 64:
            self.kept.append((job, out))
        return ms

    def _fail(self, job, why: str) -> None:
        self.failed += 1
        if len(self.notes) < 5:
            self.notes.append(f"job {job.key}: {why}")

    def verdict(self) -> tuple[str, bool]:
        """Self-check, then (report line, whether the run is correct).

        One kept output per tamper kind is corrupted; the benchmark's own
        checks must reject every one, or they prove nothing.
        """
        tampered = rejected = 0
        done = set()
        for job, out in self.kept:
            for kind, bad in self.workload.tampers(out):
                if kind in done:
                    continue
                done.add(kind)
                tampered += 1
                rejected += bool(self.workload.problems(job, bad))
        line = f"self-check: {rejected} of {tampered} tampered outputs rejected"
        return line, self.failed == 0 and tampered > 0 and rejected == tampered


def loglog_slope(samples) -> float:
    """Least-squares slope of log(job ms) against log(faces)."""
    xs = [math.log(f) for f, _ in samples]
    ys = [math.log(ms) for _, ms in samples]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx if sxx else 0.0


def run_rounds(checker, zz, jobs, seconds: float, first: int = 0, min_jobs: int = 0):
    """Whole rounds over the corpus while the next round should end within
    `seconds` (and at least one round and `min_jobs` jobs); returns per-job
    (faces, scaled ms) and the scaled jobs per second of each round."""
    workload = checker.workload
    raw, refs = [], []  # (round, faces, ms) per job; a reference before each
    start = last = time.perf_counter()
    r = first
    # (now - start) + (now - last): time so far plus the last round's length
    while r == first or len(raw) < min_jobs or 2 * time.perf_counter() - last - start < seconds:
        last = time.perf_counter()
        for job in workload.rounds(jobs, r):
            refs.append(reference_ms())
            raw.append((r, job.faces, checker.run(zz, job)))
        r += 1
    refs.append(reference_ms())
    samples, busy = [], {}
    for i, (r, faces, ms) in enumerate(raw):
        ms *= REF_MS / statistics.median(refs[max(0, i - REF_WINDOW + 1): i + REF_WINDOW + 1])
        samples.append((faces, ms))
        busy[r] = busy.get(r, 0.0) + ms
    rates = [len(jobs) / (ms / 1e3) for ms in busy.values()]
    return samples, rates


def timed_run(workload, seed: int, seconds: float, golden: dict):
    setup_s = []
    start = time.perf_counter()
    while len(setup_s) < SETUP_REPS or time.perf_counter() - start < SETUP_SECONDS:
        zz = jobs = None  # let the previous set-up go before the next one
        zz, jobs, took = setup(workload, seed)
        setup_s.append(took)
    checker = Checker(workload, golden)
    start = time.perf_counter()
    samples, rates = run_rounds(checker, zz, jobs, seconds, min_jobs=MIN_JOBS)
    elapsed = time.perf_counter() - start
    verdict, correct = checker.verdict()
    job_ms = [ms for _, ms in samples]
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "jobs_per_s": (statistics.median(rates), "1/s"),
        "job_ms_p50": (statistics.median(job_ms), "ms"),
        "job_ms_p90": (statistics.quantiles(job_ms, n=10)[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = [
        f"corpus: {len(jobs)} jobs, {sum(j.faces for j in jobs)} faces; set up {len(setup_s)} times",
        f"run: {len(rates)} rounds, {checker.attempted} jobs, {elapsed:.1f} s wall",
        f"error_rate: {checker.failed / checker.attempted:.6f} ({checker.failed} of {checker.attempted})",
        f"faces_slope: {loglog_slope(samples):.3f} (log job ms against log faces)",
        verdict,
    ]
    return metrics, checker, info, correct


def traced_run(workload, seed: int, seconds: float, golden: dict):
    """Half the time untraced, half traced, over the same rounds of jobs."""
    from tracing import Tracer, install

    zz, jobs, _ = setup(workload, seed)
    checker = Checker(workload, golden)
    samples, plain_rates = run_rounds(checker, zz, jobs, seconds / 2)
    tracer = Tracer()
    install(tracer)
    checker.tracer = tracer
    _, traced_rates = run_rounds(checker, zz, jobs, seconds / 2, first=len(plain_rates))
    verdict, correct = checker.verdict()
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_file = out_dir / f"trace-{workload.name}.spans"
    tracer.write(spans_file)

    # every round runs the same jobs, so per-round counts repeat exactly
    values = tracer.metrics(rounds=len(traced_rates))
    values["trace.overhead"] = statistics.median(traced_rates) / statistics.median(plain_rates)
    values["fit.faces_slope"] = loglog_slope(samples)
    metrics = {name: (values[name], unit) for name, unit in per_layer_units().items()}
    info = [
        f"corpus: {len(jobs)} jobs, {sum(j.faces for j in jobs)} faces",
        f"run: {len(plain_rates)} untraced and {len(traced_rates)} traced rounds; "
        "counts and self times are per round",
        f"traced: {len(tracer.start)} spans written to {spans_file.relative_to(ROOT)}",
        verdict,
    ]
    return metrics, checker, info, correct


def run_all(args) -> int:
    """Each workload in its own fresh process, so peak RSS is its own."""
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        rows.append((name, json.loads(proc.stdout.strip().splitlines()[-1])))
    units = rows[0][1]["metrics"]
    names = list(units)
    print(f"{'workload':<12}" + "".join(f"{n + ' (' + units[n]['unit'] + ')':>18}" for n in names)
          + f"{'error_rate':>12}")
    for name, res in rows:
        error_rate = res["failed"] / res["attempted"]
        print(f"{name:<12}" + "".join(f"{res['metrics'][n]['value']:>18.4f}" for n in names)
              + f"{error_rate:>12.4f}")
    return 0 if all(res["correct"] for _, res in rows) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    workload = WORKLOADS[args.workload]
    golden = json.loads(GOLDEN.read_text())[workload.name]
    if args.trace:
        metrics, checker, info, correct = traced_run(workload, args.seed, args.seconds, golden)
    else:
        metrics, checker, info, correct = timed_run(workload, args.seed, args.seconds, golden)
    print(f"workload: {workload.name}  seed: {args.seed}  trace: {args.trace}")
    for line in info:
        print(line)
    for note in checker.notes:
        print(f"failed {note}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
