"""Every demo prints exactly its recorded output.

tests/demo_output/<demo>.txt holds each script's expected stdout; a change
that alters a demo's output must update the file on purpose.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import zigzags

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_recorded_output():
    recorded = sorted(p.stem for p in (ROOT / "tests" / "demo_output").glob("*.txt"))
    assert recorded == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output(demo):
    src = str(Path(zigzags.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=60
    )
    assert run.returncode == 0, run.stderr
    expected = (ROOT / "tests" / "demo_output" / f"{demo.stem}.txt").read_text()
    assert run.stdout == expected
