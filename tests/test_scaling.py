"""scripts/scaling.py measures the smallest point of each series quickly and
writes the schema BENCH_scaling.json is read by; the committed file keeps
that schema."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("scaling", ROOT / "scripts" / "scaling.py")
scaling = importlib.util.module_from_spec(spec)
spec.loader.exec_module(scaling)

SERIES = {"tree_build path", "tree_build star", "bipyramid enumerate"}
POINT = {"size", "faces", "seconds", "runs", "peak_kib"}


def _check_run(run: dict, smallest: bool) -> None:
    assert run.keys() == {"python", "machine", "repeats", "budget_s", "series"}
    assert run["series"].keys() == SERIES
    for name, result in run["series"].items():
        assert result.keys() == {"points", "skipped", "time_slope", "memory_slope"}
        sizes, _ = scaling.series(None)[name]
        measured = [p["size"] for p in result["points"]]
        assert measured + result["skipped"] == list(sizes[:1] if smallest else sizes)
        for p in result["points"]:
            assert p.keys() == POINT
            assert min(p["seconds"], p["runs"], p["peak_kib"]) > 0
        if len(measured) > 1:
            assert isinstance(result["time_slope"], float)
            assert isinstance(result["memory_slope"], float)


def test_the_smallest_point_of_each_series_runs_in_under_a_second(tmp_path):
    out = tmp_path / "scaling.json"
    assert scaling.main(["--label", "smoke", "--smallest", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["schema"] == scaling.SCHEMA and list(data["runs"]) == ["smoke"]
    _check_run(data["runs"]["smoke"], smallest=True)
    # the timed runs; the collections between them grow with the test
    # session's heap, not with the library
    series = data["runs"]["smoke"]["series"].values()
    assert sum(p["seconds"] for result in series for p in result["points"]) < 1.0
    # a merged run keeps each point's least time and counts the runs of both
    first = data["runs"]["smoke"]["series"]["tree_build path"]["points"][0]
    scaling.main(["--label", "smoke", "--smallest", "--merge", "--out", str(out)])
    run = json.loads(out.read_text())["runs"]["smoke"]
    again = run["series"]["tree_build path"]["points"][0]
    assert run["repeats"] == 2 and again["runs"] == 2
    assert again["seconds"] <= first["seconds"]


def test_the_committed_series_keep_the_schema():
    data = json.loads((ROOT / "BENCH_scaling.json").read_text())
    assert data["schema"] == scaling.SCHEMA and data["runs"]
    for run in data["runs"].values():
        _check_run(run, smallest=False)
