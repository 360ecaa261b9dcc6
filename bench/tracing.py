"""Per-layer tracing from outside the package.

``Tracer.install`` replaces each public function of the thermalqfi layer
modules (every submodule but the ``cli`` and ``verify`` front ends) with a
timing wrapper at every module attribute that binds it.
``qfi``, ``bounds``, ``encoding`` and ``thermal`` import names such as
``commutator_i`` with ``from .operators import ...``, so patching
``operators`` alone would miss those calls. ``numpy.linalg.eigh`` and
``eigvalsh`` are wrapped too, for the time spent in LAPACK and for the
ratio of distinct inputs to calls (inputs are hashed within one pass).

A span carries a name, a start, an end, its parent and the id of the timed
unit that caused it. Spans are kept in memory for the current pass, folded
into per-name totals when the pass ends, and the spans of the first traced
pass are kept to be written out when the run ends. Worker threads (the
sweep thread pool) have no open span of their own, so their spans take the
innermost open span of the thread that installed the tracer as parent.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from typing import NamedTuple

import numpy as np

# thermalqfi modules that are not layers: the package namespace and the front ends
NOT_LAYERS = ("thermalqfi", "thermalqfi.cli", "thermalqfi.verify", "thermalqfi.__main__")
LAPACK = ("numpy.linalg.eigh", "numpy.linalg.eigvalsh")
HASHED = ("numpy.linalg.eigh", "numpy.linalg.eigvalsh", "operators.commutator_i")


class Span(NamedTuple):
    sid: int
    parent: int
    name: str
    start: float
    end: float
    unit: int
    key: bytes | None


def input_digest(*arrays) -> bytes:
    """Hash of the arrays' shapes, dtypes and bytes."""
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.digest()


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it covered by its child spans.

    Children of one parent may overlap when they run on worker threads, so
    the covered part is the length of their union.
    """
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    return {s.sid: (s.end - s.start) - union_length(children[s.sid], s.start, s.end) for s in spans}


class Totals:
    """Per-name sums over every traced pass."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)  # seconds, outermost span of each name only
        self.self = defaultdict(float)  # seconds
        self.distinct = defaultdict(int)  # distinct inputs, counted within each pass
        self.module = defaultdict(float)  # seconds in spans whose parent is outside their module
        self.units = defaultdict(list)  # unit name -> seconds of each traced call

    def add_pass(self, spans) -> None:
        by_id = {s.sid: s for s in spans}
        own = self_times(spans)
        keys = defaultdict(set)
        for s in spans:
            duration = s.end - s.start
            self.calls[s.name] += 1
            self.self[s.name] += own[s.sid]
            if s.key is not None:
                keys[s.name].add(s.key)
            if s.parent == 0:
                self.units[s.name].append(duration)
            if not _nested_in_same_name(s, by_id):
                self.inclusive[s.name] += duration
            module = s.name.rsplit(".", 1)[0]
            parent = by_id.get(s.parent)
            if parent is None or parent.name.rsplit(".", 1)[0] != module:
                self.module[module] += duration
        for name, seen in keys.items():
            self.distinct[name] += len(seen)


def _nested_in_same_name(span: Span, by_id: dict) -> bool:
    parent = by_id.get(span.parent)
    while parent is not None:
        if parent.name == span.name:
            return True
        parent = by_id.get(parent.parent)
    return False


class Tracer:
    def __init__(self):
        self._ids = itertools.count(1)
        self._owner = threading.get_ident()
        self._owner_stack: list[int] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._unit = 0
        self.spans: list[Span] = []
        self.first_pass: list[Span] | None = None
        self.totals = Totals()
        self.passes = 0

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, name: str, fn, key=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                owner = tracer._owner_stack
                parent = owner[-1] if owner else 0
            sid = next(tracer._ids)
            digest = key(*args) if key is not None else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(Span(sid, parent, name, start, end, tracer._unit, digest))

        return traced

    def unit(self, name: str, fn):
        """Run ``fn`` as the root span of a new timed unit."""
        self._unit += 1
        return self._span(name, fn)()

    def end_pass(self) -> None:
        self.totals.add_pass(self.spans)
        if self.first_pass is None:
            self.first_pass = self.spans
        self.spans = []
        self.passes += 1

    def install(self) -> None:
        """Wrap the layer functions and numpy's eigensolvers in place."""
        packages = {n: m for n, m in sys.modules.items() if n == "thermalqfi" or n.startswith("thermalqfi.")}
        wrappers = {}
        for name, module in packages.items():
            if name in NOT_LAYERS:
                continue
            layer = name.split(".", 1)[1]
            for attr, value in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(value) or value.__module__ != module.__name__:
                    continue
                key = input_digest if f"{layer}.{attr}" in HASHED else None
                wrappers[id(value)] = self._span(f"{layer}.{attr}", value, key)
        for module in packages.values():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patch(module, attr, wrapper)
        for attr in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, attr)
            self._patch(np.linalg, attr, self._span(f"numpy.linalg.{attr}", original, input_digest))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer_metrics(totals: Totals, ops: int, overhead_ratio: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics reported by every traced run, by name: (value, unit).

    Each ``*_per_op`` figure is a sum over the traced passes divided by the
    ops those passes completed.
    """
    t = totals
    ms = 1e3 / ops

    def calls(name):
        return t.calls[name] / ops, "call/op"

    def incl(name):
        return t.inclusive[name] * ms, "ms"

    def own(name):
        return t.self[name] * ms, "ms"

    def distinct(name):
        return _ratio(t.distinct[name], t.calls[name]), "1"

    lapack = sum(t.inclusive[name] for name in LAPACK)
    unit_time = sum(sum(v) for v in t.units.values())
    return {
        "operators.eigendecompose.calls_per_op": calls("operators.eigendecompose"),
        "operators.eigendecompose.ms_per_op": incl("operators.eigendecompose"),
        "operators.eigh.distinct_ratio": distinct("numpy.linalg.eigh"),
        "thermal.gibbs_state.calls_per_op": calls("thermal.gibbs_state"),
        "thermal.gibbs_state.ms_per_op": incl("thermal.gibbs_state"),
        "encoding.generator_integral.calls_per_op": calls("encoding.generator_integral"),
        "encoding.generator_integral.ms_per_op": incl("encoding.generator_integral"),
        "operators.commutator_i.calls_per_op": calls("operators.commutator_i"),
        "operators.commutator_i.ms_per_op": incl("operators.commutator_i"),
        "operators.commutator_i.distinct_ratio": distinct("operators.commutator_i"),
        "operators.seminorm.calls_per_op": calls("operators.seminorm"),
        "operators.seminorm.ms_per_op": incl("operators.seminorm"),
        "operators.eigvalsh.distinct_ratio": distinct("numpy.linalg.eigvalsh"),
        "qfi.qfi_thermal.ms_per_op": incl("qfi.qfi_thermal"),
        "bounds.bound_report.self_ms_per_op": own("bounds.bound_report"),
        "operators.lapack.ms_per_op": (lapack * ms, "ms"),
        "operators.lapack.share": (_ratio(lapack, unit_time), "1"),
        "operators.require_hermitian.calls_per_op": calls("operators.require_hermitian"),
        "qfi.qfi_general.ms_per_op": incl("qfi.qfi_general"),
        "qfi.qfi_sld.ms_per_op": incl("qfi.qfi_sld"),
        "models.build_scenario.self_ms_per_op": own("models.build_scenario"),
        "spin.spin_operators.ms_per_op": incl("spin.spin_operators"),
        "closed_forms.ms_per_op": (t.module["closed_forms"] * ms, "ms"),
        "encoding.generator_fd.calls_per_op": calls("encoding.generator_fd"),
        "operators.matrix_exp_scaled.calls_per_op": calls("operators.matrix_exp_scaled"),
        "trace.overhead_ratio": (overhead_ratio, "1"),
    }


def workload_layer_metrics(totals: Totals, ops: int, workload: str) -> dict[str, tuple[float, str]]:
    """Layer times that only some workloads exercise, and the mean traced
    time of each unit (``verify.c1.ms`` ... ``verify.c11.ms`` on verify),
    printed where nonzero.

    They stay out of the fixed per-layer set because a time that reads 0 on
    every run of a workload that never calls the layer says nothing.
    """
    t = totals
    ms = 1e3 / ops
    out = {
        "sweep.run_sweep.self_ms_per_op": (t.self["sweep.run_sweep"] * ms, "ms"),
        "sweep.render_csv.ms_per_op": (t.inclusive["sweep.render_csv"] * ms, "ms"),
        "encoding.generator_fd.ms_per_op": (t.inclusive["encoding.generator_fd"] * ms, "ms"),
    }
    for name, durations in t.units.items():
        out[f"{workload}.{name}.ms"] = (1e3 * sum(durations) / len(durations), "ms")
    return {k: v for k, v in out.items() if v[0] > 0.0}
