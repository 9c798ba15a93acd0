"""Self-tests of the benchmark: every output check can fail, the metric
names agree with BENCHMARK.json, and the tracer counts and cleans up.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import metrics  # noqa: E402
import tracing  # noqa: E402
from checks import OK, REFUSED, WRONG  # noqa: E402

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _cli(argv: list[str], out: Path) -> tuple[int, str, dict[str, str]]:
    """Run one CLI command in-process; returns (status, stdout, files)."""
    import loclab.cli

    out.mkdir(parents=True, exist_ok=True)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = loclab.cli.main(argv + ["--no-timestamp", "--out", str(out)])
    return code, buf.getvalue(), {p.name: p.read_text() for p in out.iterdir()}


def _op(cmd, triple=None, level=None, fmt="json"):
    return {"cmd": cmd, "triple": triple, "level": level, "format": fmt}


def _triple_args(triple):
    n, p, k = triple
    return ["--n", str(n), "--p", str(p), "--k", str(k)]


# --------------------------------------------------------------------------
# metric names


def test_metric_names_match_benchmark_json():
    doc = json.loads(BENCHMARK.read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == metrics.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == ["cli-cold", "pipeline-warm",
                                                     "hopf-battery"]


def test_runner_computes_every_declared_metric():
    values, notes = metrics.end_to_end([0.1, 0.2, 0.3], 1, [1.0, 1.1, 0.9], 100.0,
                                       {"default_tol": 1e-10, "tight_tol": 1e-12})
    assert list(values) == list(metrics.END_TO_END)
    assert values["ok_frac"] == pytest.approx(2 / 3)
    assert notes["ok_frac"] == "fail_frac = 1/3"
    imports = {"import.wall_s": 1.0, "import.modules": 10,
               "import.sympy_s": 0.3, "import.scipy_optimize_s": 0.4}
    layer = metrics.per_layer(tracing.Recorder(), 1, imports, 0.0)
    assert set(layer) == set(metrics.PER_LAYER)


def test_tail_is_highest_percentile_with_ten_beyond():
    pct, value = metrics.tail([float(i) for i in range(100)])
    assert pct == pytest.approx(90.0) and value == pytest.approx(89.1)
    assert metrics.tail([1.0, 2.0, 3.0])[0] == 50.0  # too few samples: the median


# --------------------------------------------------------------------------
# every check can fail


def test_flipped_barrier_verdict_is_wrong(tmp_path):
    code, out, files = _cli(["barriers"] + _triple_args((5, 4, 6)), tmp_path)
    op = _op("barriers", (5, 4, 6))
    assert checks.check_cli(op, code, out, "", files).outcome == OK
    flipped = out.replace('"pass": true', '"pass": false', 1)
    files = {name: flipped for name in files}
    assert checks.check_cli(op, code, flipped, "", files).outcome == WRONG


def test_flipped_multiplicity_is_wrong(tmp_path):
    triple = (3, 2, 4)
    code, out, files = _cli(["dirichlet", "--phi-boundary", "at-phi0"]
                            + _triple_args(triple), tmp_path)
    op = _op("dirichlet", triple)
    assert checks.check_cli(op, code, out, "", files).outcome == OK
    flipped = out.replace("UnboundedSequence", "Finite")
    files = {name: flipped for name in files}
    assert checks.check_cli(op, code, flipped, "", files).outcome == WRONG


@pytest.mark.parametrize("cut", ["last_row", "mid_row"])
def test_truncated_csv_is_wrong(tmp_path, cut):
    triple = (3, 2, 2)
    code, out, files = _cli(["profile"] + _triple_args(triple), tmp_path)
    op = _op("profile", triple)
    assert checks.check_cli(op, code, out, "", files).outcome == OK
    text = files["profile.csv"]
    lines = text.splitlines(keepends=True)
    files["profile.csv"] = ("".join(lines[:-1]) if cut == "last_row"
                            else text[: len(text) - len(lines[-1]) // 2])
    assert checks.check_cli(op, code, out, "", files).outcome == WRONG


def test_exit_status_is_checked(tmp_path):
    code, out, files = _cli(["verify-hopf"], tmp_path)
    op = _op("verify-hopf")
    assert checks.check_cli(op, code, out, "", files).outcome == OK
    assert checks.check_cli(op, 2, out, "", files).outcome == WRONG
    refused = checks.check_cli(op, 1, "", "error: NotConverged: orbit terminal\n", {})
    assert refused.outcome == REFUSED


def test_hopf_failed_check_is_wrong():
    good = {"checks": [{"name": f"c{i}", "pass": True} for i in range(7)], "pass": True}
    v = checks.Verdict()
    checks.check_hopf(v, good)
    assert v.outcome == OK
    bad = {"checks": good["checks"][:6] + [{"name": "c6", "pass": False}], "pass": False}
    v = checks.Verdict()
    checks.check_hopf(v, bad)
    assert v.outcome == WRONG


def test_crossing_off_the_level_is_wrong():
    report = {"multiplicity": {"kind": "Finite", "count": 1}, "crossing_ts": [3.0],
              "phi1": 1.0}
    v = checks.Verdict()
    checks.check_multiplicity_below(v, report, 0.5, lambda t: 0.5)
    assert v.outcome == OK
    v = checks.Verdict()
    checks.check_multiplicity_below(v, report, 0.5, lambda t: 0.5 + 1e-6)
    assert v.outcome == WRONG


def test_inconclusive_density_is_refused_not_wrong():
    v = checks.Verdict()
    checks.check_nonminimizing(v, "Inconclusive")
    assert v.outcome == REFUSED
    v = checks.Verdict()
    checks.check_nonminimizing(v, "Minimizing")
    assert v.outcome == WRONG


# --------------------------------------------------------------------------
# tracing


def test_self_time_subtracts_children():
    spans = [("a", 0, 100, -1, 0), ("b", 10, 40, 0, 0), ("c", 50, 70, 0, 0),
             ("d", 15, 25, 1, 0)]
    self_s, calls = tracing.self_times(spans)
    assert self_s["a"] == pytest.approx(50e-9)
    assert self_s["b"] == pytest.approx(20e-9)
    assert calls == {"a": 1, "b": 1, "c": 1, "d": 1}


def test_tracer_credits_counters_and_uninstalls():
    import loclab
    from scipy.integrate import OdeSolution

    original = (loclab.integrate_orbit, loclab.dynamics.vector_field, OdeSolution.__call__)
    rec = tracing.Recorder()
    inst = tracing.install(rec)
    try:
        rec.op = 0
        p = loclab.validate_params(3, 2, 2)
        orbit = loclab.integrate_orbit(p, loclab.seed_unstable(p))
        loclab.dirichlet_multiplicity(orbit, p, 0.5)
        loclab.barrier_certificate_A3(p, grid_resolution=64)
        rec.op = -1
    finally:
        inst.uninstall()
    assert (loclab.integrate_orbit, loclab.dynamics.vector_field,
            OdeSolution.__call__) == original
    c = rec.counters
    assert c[("dynamics.integrate_orbit", "steps")] == len(orbit.t) - 1
    assert c[("dynamics.integrate_orbit", "vector_field")] > c[("dynamics.integrate_orbit", "steps")]
    assert c[("dynamics.barrier_certificate_A3", "vector_field")] == 2 * 64
    assert c[("dirichlet.dirichlet_multiplicity", "scan_hits")] == 1
    assert c[("dirichlet.brentq", "interp_calls")] > 0
    names = {s[0] for s in rec.spans}
    assert {"params.validate_params", "dynamics.integrate_orbit",
            "dirichlet.dirichlet_multiplicity", "dirichlet.brentq"} <= names
