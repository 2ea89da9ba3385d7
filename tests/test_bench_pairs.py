"""scripts/bench_pairs.py summarizes alternating base/change benchmark runs;
checked here on canned result lines, without running the benchmark."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "jobs_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "job_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
]


def _line(jobs: float, p50: float, correct: bool = True) -> str:
    metrics = {"jobs_per_s": {"value": jobs, "unit": "1/s"}, "job_ms_p50": {"value": p50, "unit": "ms"}}
    return json.dumps({"correct": correct, "attempted": 9, "failed": 0, "metrics": metrics})


def _stdout(*lines: str) -> str:
    return "workload: census  seed: 1  trace: 0\njobs_per_s: 1 1/s\n" + "\n".join(lines) + "\n\n"


def test_the_result_is_the_last_line():
    assert bench_pairs.last_json(_stdout(_line(180.0, 2.5)))["metrics"]["jobs_per_s"]["value"] == 180.0


def test_summary_reads_medians_changes_wins_and_the_base_spread():
    runs = [((180.0, 2.4), (196.0, 2.1)), ((179.0, 2.3), (190.0, 2.4)), ((181.0, 2.2), (178.0, 2.0))]
    pairs = [
        tuple(bench_pairs.last_json(_stdout(_line(*side))) for side in pair) for pair in runs
    ]
    assert bench_pairs.summarize(pairs, END_TO_END) == [
        "metric       unit        base     change    delta    won   base IQR",
        "jobs_per_s   1/s          180        190    +5.6%   2/3           2",
        "job_ms_p50   ms           2.3        2.1    -8.7%   2/3         0.2",
    ]


def test_a_run_not_correct_exits_1(monkeypatch, capsys):
    results = iter([_line(180.0, 2.4), _line(190.0, 2.1, correct=False)])
    monkeypatch.setattr(bench_pairs, "run", lambda checkout, args: json.loads(next(results)))
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *a, **k: type("Done", (), {"stdout": b""}))
    argv = ["--base", "HEAD", "--workload", "census", "--pairs", "1", "--seconds", "1", "--seed", "1"]
    assert bench_pairs.main(argv) == 1
    assert "runs not correct in pairs [1]" in capsys.readouterr().err


def _every_metric(jobs: float, correct: bool = True) -> str:
    """A result line holding every end-to-end metric BENCHMARK.json names."""
    bench = json.loads((SCRIPT.parent.parent / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": jobs, "unit": m["unit"]} for m in bench["end_to_end"]}
    return json.dumps({"correct": correct, "attempted": 9, "failed": 0, "metrics": metrics})


def _fake_runs(monkeypatch, lines):
    """Each run takes the next of lines and records its workload."""
    asked = []
    results = iter(lines)

    def fake(checkout, args):
        asked.append(args.workload)
        return json.loads(next(results))

    monkeypatch.setattr(bench_pairs, "run", fake)
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *a, **k: type("Done", (), {"stdout": b""}))
    return asked


ALL = ["--base", "HEAD", "--workload", "all", "--pairs", "2", "--seconds", "1", "--seed", "1"]


def test_workload_all_prints_one_table_per_workload(monkeypatch, capsys):
    # two pairs of each of the three workloads, the base first in pair 1
    asked = _fake_runs(monkeypatch, [_every_metric(180.0 + i) for i in range(12)])
    assert bench_pairs.main(ALL) == 0
    names = ["tree-build", "pair-scan", "census"]
    assert asked == [name for name in names for _ in range(4)]
    out = capsys.readouterr().out
    tables = [line for line in out.splitlines() if line.startswith("workload: ")]
    assert tables == [f"workload: {name}" for name in names]
    assert out.count("metric       unit") == 3


def test_workload_all_exits_1_when_one_workload_has_a_run_not_correct(monkeypatch, capsys):
    lines = [_every_metric(180.0)] * 12
    lines[5] = _every_metric(180.0, correct=False)  # pair-scan, pair 1, the change
    _fake_runs(monkeypatch, lines)
    assert bench_pairs.main(ALL) == 1
    captured = capsys.readouterr()
    assert "pair-scan: runs not correct in pairs [1]" in captured.err
    # the other workloads still print their tables
    assert [line for line in captured.out.splitlines() if line.startswith("workload: ")] == [
        "workload: tree-build", "workload: census",
    ]
