"""The examples in README.md run against the current API and CLI."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from zigzags.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 3


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


def test_readme_command_line_block_runs(tmp_path, monkeypatch, capsys):
    # the block of zigzags commands, run in order in one directory, with the
    # .tree example of the file formats section saved as its plan.tree
    (block,) = re.findall(r"^```sh\n(zigzags .*?)^```", TEXT, re.M | re.S)
    (tree,) = re.findall(r"^\*\*`\.tree`\*\*.*?^```\n(.*?)^```", TEXT, re.M | re.S)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "plan.tree").write_text(tree, encoding="utf-8")
    commands = block.replace("\\\n", " ").splitlines()
    assert len(commands) == 9
    for command in commands:
        verb, *argv = shlex.split(command)
        assert verb == "zigzags"
        capsys.readouterr()
        assert main(argv) == 0, command
    assert capsys.readouterr().out == "OK\n"  # verify big.tri
