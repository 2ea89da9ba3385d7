"""scripts/source_lines.py counts the lines that are neither blank nor a
comment alone, and marks every line of a docstring by the ast."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "source_lines.py"

SAMPLE = '''"""A module docstring
over two lines."""

# a comment alone
X = 1  # a comment after code


class C:
    """One line."""

    def f(self):
        """Three
        lines
        """
        return "not a docstring"
'''


def test_source_lines_counts_code_and_docstrings(tmp_path):
    (tmp_path / "sample.py").write_text(SAMPLE, encoding="utf-8")
    out = subprocess.run(
        [sys.executable, str(SCRIPT), str(tmp_path)],
        capture_output=True, text=True, check=True,
    ).stdout
    # 10 lines of code, 6 of them in docstrings
    assert out.splitlines() == [
        "module\twith docstrings\twithout docstrings",
        "sample.py\t10\t4",
        "total\t10\t4",
    ]
