"""Span recording for the traced pass; imported only by ``child_traced.py``.

``Tracer.install`` wraps each target function and rebinds its name in the
namespace of every loaded ``mha_nw_lab`` module that holds it, so a call
through ``decomposition.attend_many`` or ``cli.mc_decompose`` is recorded
as well as one through the defining module.  Nothing in ``src/`` changes.

A span records its name, start, end, parent, thread id and run id.  Spans
opened on a pool worker take the innermost span open on the main thread
as their parent, which is the driver that handed out the replicate.
Counts are recorded on the span of the call that did the work (``attrs``).
Spans stay in memory until ``dump`` writes them out.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import itertools
import json
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy as np

from workloads import rebind

PACKAGE = "mha_nw_lab"

#: module -> functions wrapped there.  ``tensor_core`` and ``mha`` helpers
#: are too fine-grained to wrap; their time lands in the caller's self time.
TARGETS = {
    "cli": ("main", "load_config"),
    "synthetic": ("make_task", "sample_dataset", "sample_queries"),
    "nw_attention": ("attend_many",),
    "diversity": ("make_projection_family", "hdi", "make_diversity_report",
                  "optimize_projections", "load_weight_file"),
    "decomposition": ("mc_decompose", "hdi_sweep", "weighting_compare", "_head_tensor"),
    "arch_search": ("sweep_architectures", "scaling_trend"),
}
#: RunDirectory methods that write report files, recorded as ``cli.io.<method>``
IO_METHODS = ("write_text", "write_csv", "finish_manifest")
#: layers whose spans also record the process CPU time they consumed
DRIVER_LAYERS = ("decomposition", "arch_search")
#: spans that carry counts (see ``Tracer._attrs``)
COUNTED = {"synthetic.sample_dataset", "nw_attention.attend_many",
           "diversity.optimize_projections", "decomposition._head_tensor"}


def _digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=8)
    for a in arrays:
        h.update(np.ascontiguousarray(getattr(a, "a", a), dtype=np.float64).tobytes())
    return h.hexdigest()


class Tracer:
    """In-memory span store for one CLI invocation (one run id)."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._data_keys: dict[int, str] = {}
        self._head_keys: dict[int, tuple] = {}   # id -> (head, digest); the ref pins the id

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _attrs(self, name: str, bound, result) -> dict:
        """Counts recorded at the boundary of ``name``."""
        args = bound.arguments
        if name == "synthetic.sample_dataset":
            key = f"{id(args['task'])}/{args['n']}/{args['seed']}"
            self._data_keys[id(result)] = key
            weakref.finalize(result, self._data_keys.pop, id(result), None)
            return {"data": key}
        if name == "nw_attention.attend_many":
            head, data = args["head"], args["data"]
            queries = np.atleast_2d(np.asarray(args["queries"]))
            data_key = self._data_keys.get(id(data), f"unsampled/{id(data)}")
            cached = self._head_keys.get(id(head))
            if cached is None:
                cached = self._head_keys[id(head)] = (head, _digest(head.wq, head.wk, head.wv))
            return {"logits": int(queries.shape[0]) * int(data.n),
                    "head": f"{cached[1]}/{data_key}"}
        if name == "diversity.optimize_projections":
            return {"steps": len(result[1]) - 1}
        if name == "decomposition._head_tensor":
            return {"replicates": int(args["R"])}
        if name.startswith("cli.io."):
            return {"bytes": Path(result).stat().st_size}
        raise KeyError(name)

    def wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        driver = name.split(".")[0] in DRIVER_LAYERS
        counted = name in COUNTED or name.startswith("cli.io.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            span_id = next(self._ids)
            stack.append(span_id)
            cpu0 = time.process_time() if driver else None
            start = time.perf_counter()
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                span = {"id": span_id, "name": name, "start": start, "end": end,
                        "parent": parent, "thread": threading.get_ident(),
                        "run": self.run_id}
                if error is not None:
                    span["error"] = error
                elif counted:
                    span.update(self._attrs(name, signature.bind(*args, **kwargs), result))
                if driver:
                    span["cpu"] = time.process_time() - cpu0
                self.spans.append(span)

        return traced

    def install(self) -> None:
        for layer, names in TARGETS.items():
            home = sys.modules.get(f"{PACKAGE}.{layer}")
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:
                    self.missing.append(f"{layer}.{fname}")
                    continue
                rebind(original, self.wrap(f"{layer}.{fname}", original))
        rundir = getattr(sys.modules.get(f"{PACKAGE}.cli"), "RunDirectory", None)
        for method in IO_METHODS:
            original = getattr(rundir, method, None)
            if original is None:
                self.missing.append(f"cli.RunDirectory.{method}")
                continue
            setattr(rundir, method, self.wrap(f"cli.io.{method}", original))

    def dump(self, path: Path, spawn: float | None) -> None:
        Path(path).write_text(json.dumps({
            "run": self.run_id, "spawn": spawn, "exit": time.perf_counter(),
            "missing": self.missing, "spans": self.spans,
        }), encoding="utf-8")
