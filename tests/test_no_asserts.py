"""The library's checks are explicit raises, so python -O keeps them all."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import zigzags

SOURCES = sorted(Path(zigzags.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_library_has_no_assert_statement(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} asserts at lines {lines}, which python -O strips"
