"""Export lists: every exported name exists, and the package re-exports
every public module's names, so a deleted name cannot linger in one."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import zigzags

PUBLIC_MODULES = sorted(
    m.name for m in pkgutil.iter_modules(zigzags.__path__) if not m.name.startswith("_")
)


def test_package_exports_resolve():
    assert len(set(zigzags.__all__)) == len(zigzags.__all__)
    missing = [name for name in zigzags.__all__ if not hasattr(zigzags, name)]
    assert missing == []


@pytest.mark.parametrize("name", PUBLIC_MODULES)
def test_module_exports_resolve_and_are_reexported(name):
    module = importlib.import_module(f"zigzags.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    if name == "cli":  # the command line's helpers stay in its own namespace
        return
    for n in module.__all__:
        assert n in zigzags.__all__, f"zigzags does not re-export {name}.{n}"
        assert getattr(zigzags, n) is getattr(module, n)


def test_public_modules_are_covered():
    assert PUBLIC_MODULES == [
        "cli", "engine", "eulerian", "generators", "surgery", "triangulation",
    ]
