"""Outside-in tracing: wrap the library's public functions from outside.

`install` replaces each traced function in every zigzags.* namespace that
binds it (modules import functions by name, and tree_build imports from
surgery when it runs) and each traced method on its class, so no internal
call escapes.  A wrapped call records a span (name, start, end, parent span,
job id) into flat arrays kept in memory; `write` saves them when the run
ends.  Self time, a span's duration minus the time its child spans cover,
is accumulated per name as spans close.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

from layers import TRACED

JOB = "job"  # the harness span around one job; parent of top-level calls


class Tracer:
    def __init__(self) -> None:
        self.names = [JOB] + [name for name, _, _ in TRACED]
        self.ids = {name: i for i, name in enumerate(self.names)}
        self.calls = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self.counts = {
            "engine.all_z_orientations.yielded": 0,
            "engine.orientation_hits": 0,
            "surgery.resolve_site.failed": 0,
            "surgery.check_compatibility.rejected": 0,
        }
        self.start = array("q")
        self.end = array("q")
        self.name = array("H")
        self.parent = array("i")
        self.job = array("i")
        self.stack: list[list[int]] = []  # [span index, child ns] of open spans
        self.job_id = -1
        self.active = False
        self.last_yielded = None

    def enter(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1][0] if self.stack else -1)
        self.job.append(self.job_id)
        self.end.append(0)
        self.stack.append([idx, 0])
        self.start.append(time.perf_counter_ns())
        return idx

    def leave(self, idx: int) -> None:
        now = time.perf_counter_ns()
        self.end[idx] = now
        dur = now - self.start[idx]
        _, child = self.stack.pop()
        nid = self.name[idx]
        self.calls[nid] += 1
        self.self_ns[nid] += dur - child
        if self.stack:
            self.stack[-1][1] += dur

    def begin_job(self, job_id: int) -> int:
        self.job_id = job_id
        self.active = True
        return self.enter(0)

    def end_job(self, idx: int) -> None:
        self.leave(idx)
        self.active = False

    def metrics(self, rounds: int) -> dict[str, float]:
        """Counts and self times per round; ratios over the whole run."""
        out = {}
        for nid, name in enumerate(self.names[1:], start=1):
            out[f"{name}.calls"] = self.calls[nid] / rounds
            out[f"{name}.self_s"] = self.self_ns[nid] / 1e9 / rounds
        c = self.counts
        tried = c["engine.all_z_orientations.yielded"]
        out["engine.all_z_orientations.yielded"] = tried / rounds
        out["engine.orientation_hit_ratio"] = c["engine.orientation_hits"] / tried if tried else 0.0
        attempts = self.calls[self.ids["surgery.resolve_site"]]
        failed = c["surgery.resolve_site.failed"]
        rejected = c["surgery.check_compatibility.rejected"]
        out["surgery.resolve_site.failed"] = failed / rounds
        # kept: resolved sites not thrown away by a failed compatibility check
        out["surgery.resolve_site.useful_ratio"] = (
            (attempts - failed - rejected) / attempts if attempts else 0.0
        )
        out["surgery.check_compatibility.rejected"] = rejected / rounds
        return out

    def write(self, path) -> None:
        """Header line (JSON) then the raw span arrays, in header order."""
        arrays = (("name", self.name), ("start", self.start), ("end", self.end),
                  ("parent", self.parent), ("job", self.job))
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": [[key, arr.typecode, arr.itemsize] for key, arr in arrays],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as f:
            f.write((json.dumps(header) + "\n").encode())
            for _, arr in arrays:
                arr.tofile(f)


def _wrap(tracer: Tracer, name: str, fn, surgery_error):
    nid = tracer.ids[name]

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        idx = tracer.enter(nid)
        try:
            result = fn(*args, **kwargs)
        except surgery_error:
            if name == "surgery.resolve_site":
                tracer.counts["surgery.resolve_site.failed"] += 1
            raise
        finally:
            tracer.leave(idx)
        if name == "surgery.check_compatibility" and result is False:
            tracer.counts["surgery.check_compatibility.rejected"] += 1
        elif name == "engine.is_homogeneous" and result and args[1] is tracer.last_yielded:
            tracer.counts["engine.orientation_hits"] += 1
        return result

    return traced


def _wrap_orientations(tracer: Tracer, fn):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        for tau in fn(*args, **kwargs):
            if tracer.active:
                tracer.counts["engine.all_z_orientations.yielded"] += 1
                tracer.last_yielded = tau
            yield tau

    return counted


def install(tracer: Tracer) -> None:
    """Wrap every traced function of the imported zigzags package."""
    modules = [m for key, m in sys.modules.items() if key == "zigzags" or key.startswith("zigzags.")]
    surgery_error = sys.modules["zigzags.surgery"].SurgeryError
    targets = [(name, mod, attr) for name, mod, attr in TRACED]
    targets.append((None, "engine", "all_z_orientations"))
    for name, mod, attr in targets:
        module = sys.modules[f"zigzags.{mod}"]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, method, _wrap(tracer, name, cls.__dict__[method], surgery_error))
            continue
        fn = getattr(module, attr)
        wrapped = (
            _wrap_orientations(tracer, fn) if name is None
            else _wrap(tracer, name, fn, surgery_error)
        )
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is fn:
                    setattr(m, key, wrapped)
