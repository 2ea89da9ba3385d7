"""The benchmark's traced run names library functions; they must all exist."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_name_resolves():
    traced = _traced()
    assert traced
    for name, mod, attr in traced:
        module = importlib.import_module(f"zigzags.{mod}")
        if "." in attr:
            # the traced run wraps a method in its own class __dict__
            cls_name, method = attr.split(".")
            assert callable(vars(getattr(module, cls_name)).get(method)), name
        else:
            assert callable(getattr(module, attr, None)), name
