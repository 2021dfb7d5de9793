"""Spans around the program's public functions, recorded from outside.

``Tracer.install()`` replaces each traced function in every eigbounds
namespace that binds it (``cli``, ``blocks``, ``tridiag``, ``aed`` and
``multiplicity`` import ``eig_dense``/``eig_tridiag`` by name) and
``uninstall()`` puts the originals back, so untraced rounds run the program
untouched.  Spans are kept in memory and written out when the run ends.

A span's self time is its duration minus the durations of its direct
children; the round span is the root, so within a round the self times of
all spans add up to the round's wall time.  Hashing inputs to find repeated
calls is the tracer's own work and gets its own ``trace`` spans.
"""

from __future__ import annotations

import functools
import hashlib
import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

from eigbounds.types import DenseHermitian, SymTridiagonal


def _digest(*parts) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(f"{p.dtype}{p.shape}".encode())
            h.update(np.ascontiguousarray(p).tobytes())
        else:
            h.update(repr(p).encode())
    return h.digest()


def _matrix_parts(m) -> tuple:
    if isinstance(m, DenseHermitian):
        return ("dense", m.entries)
    if isinstance(m, SymTridiagonal):
        return ("tridiag", m.diag, m.offdiag)
    return ("array", np.asarray(m))


def _solver_attrs(args, kwargs) -> dict:
    vectors = bool(args[1] if len(args) > 1 else kwargs.get("want_vectors", False))
    return {"rows": args[0].n, "vectors": vectors,
            "key": _digest(*_matrix_parts(args[0]), vectors)}


# layer name -> (module path, attribute, attrs from the call, attrs from the
# result).  Names are the module-qualified public functions of the program.
LAYERS = {
    "solvers.eig_dense": ("eigbounds.solvers", "eig_dense", _solver_attrs, None),
    "solvers.eig_tridiag": ("eigbounds.solvers", "eig_tridiag", _solver_attrs, None),
    "solvers.spectral_norm": ("eigbounds.solvers", "spectral_norm",
                              lambda a, kw: {"key": _digest(*_matrix_parts(a[0]))}, None),
    "tridiag.aed_window_bounds": (
        "eigbounds.tridiag", "aed_window_bounds",
        lambda a, kw: {"scan": (a[2] if len(a) > 2 else kw.get("j")) is None}, None),
    "aed.aed_transform": ("eigbounds.aed", "aed_transform", None, None),
    "aed.qr_sweep": ("eigbounds.aed", "qr_sweep", None, None),
    "aed.run_qr_with_aed": ("eigbounds.aed", "run_qr_with_aed", None,
                            lambda out: {"sweeps": out[1].sweeps,
                                         "aed_deflations": out[1].total_aed}),
    "blocks.theorem1_bounds": ("eigbounds.blocks", "theorem1_bounds", None, None),
    "blocks.quadratic_residual_bounds": ("eigbounds.blocks",
                                         "quadratic_residual_bounds", None, None),
    "types.DenseHermitian.from_array": ("eigbounds.types", "DenseHermitian.from_array",
                                        None, None),
    "multiplicity.detect_multiple": ("eigbounds.multiplicity", "detect_multiple",
                                     None, None),
    "multiplicity.expansion_order": ("eigbounds.multiplicity", "expansion_order",
                                     None, None),
    "io.load_matrix": ("eigbounds.io", "load_matrix", None, None),
    "report.RunReport.render": ("eigbounds.report", "RunReport.render", None, None),
    "cli.main": ("eigbounds.cli", "main", None, None),
}

# per-layer counters besides calls and self_s, summed over a round
EXTRA = {
    "solvers.eig_dense": ("rows", "repeat_calls"),
    "solvers.eig_tridiag": ("rows", "vector_calls", "repeat_calls", "dense_fallbacks"),
    "solvers.spectral_norm": ("repeat_calls",),
    "tridiag.aed_window_bounds": ("scan_calls",),
    "aed.run_qr_with_aed": ("sweeps", "aed_deflations"),
}
OWN = {"bench.self_s": "s", "trace.self_s": "s", "trace.wall_s": "s",
       "trace.untraced_wall_s": "s", "trace.overhead_s": "s",
       "trace.overhead_share": "ratio"}


def metric_units() -> dict:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        for extra in EXTRA.get(layer, ()):
            units[f"{layer}.{extra}"] = "rows" if extra == "rows" else "count"
    units.update(OWN)
    return units


class Tracer:
    """Records spans while installed; computes per-round layer metrics."""

    def __init__(self):
        self.spans = []          # [id, parent, op, name, start, end, attrs]
        self.stack = []
        self.op = None
        self._patches = []

    # -- spans -------------------------------------------------------------
    def open(self, name: str, attrs=None) -> list:
        span = [len(self.spans), self.stack[-1] if self.stack else None,
                self.op, name, 0.0, 0.0, attrs]
        self.spans.append(span)
        self.stack.append(span[0])
        span[4] = perf_counter()
        return span

    def close(self, span: list) -> None:
        span[5] = perf_counter()
        self.stack.pop()

    def _wrap(self, name, fn, attrs_of, result_attrs):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = None
            if attrs_of is not None:
                own = tracer.open("trace")
                attrs = attrs_of(args, kwargs)
                tracer.close(own)
            span = tracer.open(name, attrs)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if result_attrs is not None:
                span[6] = result_attrs(out)
            return out
        return traced

    # -- patching ----------------------------------------------------------
    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if (n == "eigbounds" or n.startswith("eigbounds.")) and m is not None]
        for name, (modname, attr, attrs_of, result_attrs) in LAYERS.items():
            owner = sys.modules[modname]
            if "." in attr:                       # a method: patch the class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(name, original.__func__,
                                                     attrs_of, result_attrs))
                else:
                    wrapped = self._wrap(name, original, attrs_of, result_attrs)
                self._patches.append((cls, meth, original))
                setattr(cls, meth, wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, attrs_of, result_attrs)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- metrics -----------------------------------------------------------
    def round_metrics(self, root: list) -> dict:
        """Layer metrics of the round whose root span is `root`."""
        spans = self.spans[root[0]:]
        child_time = defaultdict(float)
        for s in spans[1:]:
            child_time[s[1]] += s[5] - s[4]
        by_id = {s[0]: s for s in spans}
        out = defaultdict(float)
        for name in metric_units():
            out[name] = 0.0
        seen = set()
        bench = trace = 0.0
        for s in spans:
            sid, parent, op, name, start, end, attrs = s
            self_s = (end - start) - child_time[sid]
            if name.startswith("bench."):
                bench += self_s
                continue
            if name == "trace":
                trace += self_s
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += self_s
            attrs = attrs or {}
            if "rows" in attrs:
                out[f"{name}.rows"] += attrs["rows"]
            if attrs.get("vectors") and name == "solvers.eig_tridiag":
                out[f"{name}.vector_calls"] += 1
            if "key" in attrs:
                if (op, name, attrs["key"]) in seen:
                    out[f"{name}.repeat_calls"] += 1
                seen.add((op, name, attrs["key"]))
            if attrs.get("scan"):
                out[f"{name}.scan_calls"] += 1
            for key in ("sweeps", "aed_deflations"):
                if key in attrs:
                    out[f"{name}.{key}"] += attrs[key]
            if name == "solvers.eig_dense" and parent is not None \
                    and by_id[parent][3] == "solvers.eig_tridiag":
                out["solvers.eig_tridiag.dense_fallbacks"] += 1
        layer_self = sum(v for k, v in out.items() if k.endswith(".self_s"))
        out["bench.self_s"] = bench
        out["trace.self_s"] = trace
        out["trace.wall_s"] = root[5] - root[4]
        out["accounted_s"] = layer_self + bench + trace
        return dict(out)

    def dump(self, path: str) -> None:
        """Write the recorded spans as JSON lines, times relative to the first."""
        t0 = self.spans[0][4] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op, name, start, end, attrs in self.spans:
                rec = {"id": sid, "parent": parent, "op": op, "name": name,
                       "start": start - t0, "end": end - t0}
                for k, v in (attrs or {}).items():
                    rec[k] = v.hex() if isinstance(v, bytes) else v
                fh.write(json.dumps(rec) + "\n")


def summarize(rounds: list[dict], untraced_walls: list[float]) -> tuple[dict, list[str]]:
    """Median per-round value of every per-layer metric, the tracing
    overhead, and the problems found in the time accounting."""
    problems = []
    for i, r in enumerate(rounds):
        if abs(r["accounted_s"] - r["trace.wall_s"]) > 1e-6 * r["trace.wall_s"]:
            problems.append(f"traced round {i}: self times add up to "
                            f"{r['accounted_s']:.6f} s of {r['trace.wall_s']:.6f} s")
    units = metric_units()
    out = {name: statistics.median(r[name] for r in rounds)
           for name in units if name in rounds[0]}
    untraced = statistics.median(untraced_walls)
    out["trace.untraced_wall_s"] = untraced
    out["trace.overhead_s"] = out["trace.wall_s"] - untraced
    out["trace.overhead_share"] = out["trace.overhead_s"] / untraced
    return {name: (out[name], units[name]) for name in units}, problems

