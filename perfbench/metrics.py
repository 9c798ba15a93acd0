"""Metric names, units and how each is computed.

``END_TO_END`` and ``PER_LAYER`` are the lists ``BENCHMARK.json`` declares;
the self-tests keep the two in step.  Per-layer values are per traced
operation (``/op``) unless the unit says otherwise.
"""

from __future__ import annotations

import statistics

END_TO_END = {
    "setup_s": "s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "ops_per_s": "1/s",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
    "rel_err.default_tol": "ratio",
    "rel_err.tight_tol": "ratio",
}

LAYERS = ["params", "geometry", "dynamics", "dirichlet", "hopf", "serialize", "cli"]
# span name -> reported self time
SELF_TIMES = {
    "dynamics.integrate_orbit": ["dynamics.integrate_orbit"],
    "dynamics.extract_profile": ["dynamics.extract_profile"],
    "dynamics.barrier_certificate": ["dynamics.barrier_certificate_A3",
                                     "dynamics.barrier_certificate_A4"],
    "dirichlet.dirichlet_multiplicity": ["dirichlet.dirichlet_multiplicity"],
    "dirichlet.nonminimizing_verdict": ["dirichlet.nonminimizing_verdict"],
    "geometry.density_report": ["geometry.density_report"],
    "hopf.hopf_verify_report": ["hopf.hopf_verify_report"],
    "hopf.singular_value_sample": ["hopf.singular_value_sample"],
    "hopf.los_angle_root": ["hopf.los_angle_root"],
    "hopf.harmonic_degree_check": ["hopf.harmonic_degree_check"],
    "hopf.general_vs_lomse_deviation": ["hopf.general_vs_lomse_deviation"],
    "serialize.dumps": ["serialize.dumps"],
    "cli.run": ["cli.run"],
}

PER_LAYER = {
    "import.wall_s": "s",
    "import.modules": "count",
    "import.sympy_s": "s",
    "import.scipy_optimize_s": "s",
    **{f"{layer}.self_s": "s/op" for layer in LAYERS},
    **{f"{name}.self_s": "s/op" for name in SELF_TIMES},
    "dynamics.steps": "count/op",
    "dynamics.rhs_evals": "count/op",
    "dynamics.rhs_evals_per_step": "ratio",
    "dynamics.interp_calls": "count/op",
    "dynamics.interp_points": "count/op",
    "dynamics.barrier_field_evals": "count/op",
    "dirichlet.brentq_calls": "count/op",
    "dirichlet.scan_hit_ratio": "ratio",
    "geometry.quad_calls": "count/op",
    "geometry.integrand_evals": "count/op",
    "hopf.singular_value_sample.calls": "count/op",
    "serialize.bytes": "B/op",
    "cli.output_bytes": "B/op",
    "trace.spans": "count/op",
    "trace.overhead_s": "s",
}


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it (at least
    the median), and the time at it, interpolated between order statistics."""
    xs = sorted(times)
    q = max(0.5, 1.0 - 10.0 / len(xs))
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return 100.0 * q, xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(times, failed: int, setup: list[float], peak_rss_mb: float,
               rel_err: dict[str, float]) -> tuple[dict, dict]:
    """Metric values, and notes (sample counts, percentile, bases)."""
    pct, tail_s = tail(times)
    values = {
        "setup_s": statistics.median(setup),
        "op_s.p50": statistics.median(times),
        "op_s.tail": tail_s,
        "ops_per_s": len(times) / sum(times),
        "ok_frac": (len(times) - failed) / len(times),
        "peak_rss_mb": peak_rss_mb,
        "rel_err.default_tol": rel_err["default_tol"],
        "rel_err.tight_tol": rel_err["tight_tol"],
    }
    notes = {
        "setup_s": f"median of {len(setup)} set-ups",
        "op_s.p50": f"n={len(times)}",
        "op_s.tail": f"p{pct:.1f}, n={len(times)}",
        "ops_per_s": f"{len(times)} ops / {sum(times):.3f} s busy",
        "ok_frac": f"fail_frac = {failed}/{len(times)}",
        "peak_rss_mb": "max resident set",
        "rel_err.default_tol": "max over sweep triples",
        "rel_err.tight_tol": "max over sweep triples",
    }
    return values, notes


def per_layer(rec, n_ops: int, imports: dict, overhead_s: float,
              factor: float = 1.0) -> dict:
    """Per-layer values from a traced run's spans and counters; span times
    are multiplied by ``factor`` (reference seconds per raw second)."""
    from tracing import self_times

    self_s, calls = self_times(rec.spans)
    self_s = {k: v * factor for k, v in self_s.items()}
    c = rec.counters

    def per(x: float) -> float:
        return x / n_ops

    def counted(counter: str, spans=None) -> int:
        return sum(v for (span, name), v in c.items()
                   if name == counter and (spans is None or span in spans))

    out = dict(imports)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = per(sum(v for k, v in self_s.items()
                                         if k.startswith(layer + ".")))
    for name, spans in SELF_TIMES.items():
        out[f"{name}.self_s"] = per(sum(self_s.get(s, 0.0) for s in spans))
    steps = counted("steps", {"dynamics.integrate_orbit"})
    rhs = counted("vector_field", {"dynamics.integrate_orbit"})
    hits = counted("scan_hits")
    points = counted("scan_points")
    out.update({
        "dynamics.steps": per(steps),
        "dynamics.rhs_evals": per(rhs),
        "dynamics.rhs_evals_per_step": rhs / steps if steps else 0.0,
        "dynamics.interp_calls": per(counted("interp_calls")),
        "dynamics.interp_points": per(counted("interp_points")),
        "dynamics.barrier_field_evals": per(counted(
            "vector_field", set(SELF_TIMES["dynamics.barrier_certificate"]))),
        "dirichlet.brentq_calls": per(calls.get("dirichlet.brentq", 0)),
        "dirichlet.scan_hit_ratio": hits / points if points else 0.0,
        "geometry.quad_calls": per(counted("quad_calls")),
        "geometry.integrand_evals": per(counted("integrand_evals")),
        "hopf.singular_value_sample.calls": per(calls.get("hopf.singular_value_sample", 0)),
        "serialize.bytes": per(counted("bytes")),
        "cli.output_bytes": per(counted("output_bytes")),
        "trace.spans": per(len(rec.spans)),
        "trace.overhead_s": overhead_s,
    })
    return out
