"""Count the source lines of the zigzags package.

Prints, per module of src/zigzags/ and in total, the lines that are
neither blank nor a comment alone, with and without docstrings.  A
docstring is the string a module, class or function body opens with, as
the ast module finds it; every line it spans counts as docstring.

Usage: python scripts/source_lines.py [package directory]
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "zigzags"
DEFINITIONS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers, from 1, that a docstring of the tree spans."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, DEFINITIONS) or not node.body:
            continue
        first = node.body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(lines with docstrings, lines without them) of one source file."""
    text = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(text))
    code = [
        i for i, line in enumerate(text.splitlines(), 1)
        if line.strip() and not line.lstrip().startswith("#")
    ]
    return len(code), sum(i not in docs for i in code)


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else PACKAGE
    total_with = total_without = 0
    print("module\twith docstrings\twithout docstrings")
    for path in sorted(package.glob("*.py")):
        with_docs, without_docs = count(path)
        total_with += with_docs
        total_without += without_docs
        print(f"{path.name}\t{with_docs}\t{without_docs}")
    print(f"total\t{total_with}\t{total_without}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
