"""Span recorder for the traced run, installed from outside the package.

Nothing under ``src/`` is edited.  ``install`` replaces public functions of
the ``loclab`` modules by timing wrappers, rebinding every module attribute
that refers to the same function object (so package re-exports and internal
callers such as ``hopf_verify_report -> singular_value_sample`` are traced
too), and patches ``scipy.integrate.OdeSolution.__call__`` to count
dense-output interpolant calls.  ``uninstall`` restores the originals.

A span is ``(name, start_ns, end_ns, parent, op)``; spans stay in memory
until the run ends.  Counters are credited to the innermost open span, so a
``vector_field`` call inside ``integrate_orbit`` and one inside a barrier
certificate are told apart.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# layer -> public functions that get a span (name "<layer>.<function>")
SPANNED = {
    "params": ["validate_params", "spectra"],
    "geometry": ["geometry_report", "cone_density", "density_report"],
    "dynamics": ["seed_unstable", "integrate_orbit", "extract_profile",
                 "barrier_certificate_A3", "barrier_certificate_A4"],
    "dirichlet": ["dirichlet_multiplicity", "nonminimizing_verdict", "brentq"],
    "hopf": ["hopf_verify_report", "singular_value_sample", "los_angle_root",
             "harmonic_degree_check", "general_vs_lomse_deviation"],
    "serialize": ["to_jsonable", "dumps"],
    "cli": ["main", "run"],
}
# recursive functions: only the outermost call gets a span
REENTRANT = {"serialize.to_jsonable"}
ROOT = ""


class Recorder:
    """In-memory spans and per-span counters of one process."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.counters: Counter = Counter()
        self.op = -1
        self._stack: list[tuple[str, int, int]] = []  # (name, start, index)

    def innermost(self) -> str:
        return self._stack[-1][0] if self._stack else ROOT

    def count(self, counter: str, amount: int = 1) -> None:
        """Credit ``amount`` to the innermost open span; calls made outside
        an operation (the benchmark's own checks) are not counted."""
        if self.op >= 0:
            self.counters[(self.innermost(), counter)] += amount

    def open(self, name: str) -> None:
        self.spans.append(None)  # reserved so children get a later index
        self._stack.append((name, time.perf_counter_ns(), len(self.spans) - 1))

    def close(self) -> None:
        end = time.perf_counter_ns()
        name, start, index = self._stack.pop()
        parent = self._stack[-1][2] if self._stack else -1
        self.spans[index] = (name, start, end, parent, self.op)

    def absorb(self, spans, counters, op: int) -> None:
        """Add spans and counters recorded by another process for op ``op``."""
        base = len(self.spans)
        for name, start, end, parent, _ in spans:
            self.spans.append((name, start, end, parent + base if parent >= 0 else -1, op))
        for (span, counter), value in counters:
            self.counters[(span, counter)] += value


def self_times(spans) -> tuple[dict, dict]:
    """Per span name: summed self time in seconds, and call count.

    Self time is a span's duration minus the time its child spans cover
    (children of one span never overlap in a single thread).
    """
    child = defaultdict(int)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_ns: Counter = Counter()
    calls: Counter = Counter()
    for i, (name, start, end, parent, _) in enumerate(spans):
        self_ns[name] += end - start - child[i]
        calls[name] += 1
    return {k: v * 1e-9 for k, v in self_ns.items()}, dict(calls)


def _span_wrapper(rec: Recorder, name: str, fn):
    reentrant = name in REENTRANT

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if reentrant and rec.innermost() == name:
            return fn(*args, **kwargs)
        rec.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close()
        _after(rec, name, out)
        return out

    return traced


def _after(rec: Recorder, name: str, out) -> None:
    if name == "dynamics.integrate_orbit":
        rec.counters[(name, "steps")] += len(out.t) - 1
    elif name == "serialize.dumps":
        rec.counters[(name, "bytes")] += len(out.encode())


def _dirichlet_wrapper(rec: Recorder, name: str, fn):
    """Span plus the crossing-scan hit ratio: interpolant points evaluated
    directly under the span are scan points; crossings returned by a call
    that scanned are hits."""
    spanned = _span_wrapper(rec, name, fn)
    key = (name, "interp_points")

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        before = rec.counters[key]
        out = spanned(*args, **kwargs)
        scanned = rec.counters[key] - before
        if scanned:
            rec.counters[(name, "scan_points")] += scanned
            rec.counters[(name, "scan_hits")] += len(out.crossing_ts)
        return out

    return traced


def _counting_wrapper(rec: Recorder, counter: str, fn):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        rec.count(counter)
        return fn(*args, **kwargs)

    return counted


def _quad_wrapper(rec: Recorder, fn):
    @functools.wraps(fn)
    def counted(func, *args, **kwargs):
        rec.count("quad_calls")
        return fn(_counting_wrapper(rec, "integrand_evals", func), *args, **kwargs)

    return counted


class Installation:
    """The wrappers of one traced run; ``uninstall`` restores the originals."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def rebind(self, module, attr: str, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()


def install(rec: Recorder) -> Installation:
    """Wrap the public ``loclab`` functions and the dense-output interpolant."""
    import importlib

    import numpy as np
    from scipy.integrate import OdeSolution

    for layer in SPANNED:
        importlib.import_module(f"loclab.{layer}")
    inst = Installation()
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "loclab" or n.startswith("loclab."))]

    def wrap(layer: str, attr: str, make):
        home = sys.modules[f"loclab.{layer}"]
        original = getattr(home, attr)
        wrapped = make(original)
        if not getattr(original, "__module__", "").startswith("loclab"):
            # a foreign function (scipy) is traced only where this layer calls it
            inst.rebind(home, attr, wrapped)
            return
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    inst.rebind(module, key, wrapped)

    for layer, names in SPANNED.items():
        for attr in names:
            name = f"{layer}.{attr}"
            if name == "dirichlet.dirichlet_multiplicity":
                wrap(layer, attr, lambda fn, n=name: _dirichlet_wrapper(rec, n, fn))
            else:
                wrap(layer, attr, lambda fn, n=name: _span_wrapper(rec, n, fn))
    wrap("dynamics", "vector_field",
         lambda fn: _counting_wrapper(rec, "vector_field", fn))
    wrap("geometry", "quad", lambda fn: _quad_wrapper(rec, fn))

    original_call = OdeSolution.__call__

    def interp(self, t):
        rec.count("interp_calls")
        rec.count("interp_points", int(np.size(t)))
        return original_call(self, t)

    inst.rebind(OdeSolution, "__call__", interp)
    return inst
