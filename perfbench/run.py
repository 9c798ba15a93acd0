"""loclab benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload {cli-cold,pipeline-warm,hopf-battery}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is taken from ``src/`` (as the
tests do with ``PYTHONPATH=src``).  With ``--trace 0`` the last line of
stdout is the result with every end-to-end metric; with ``--trace 1`` the run
measures the same operations untraced and then traced, and the result holds
every per-layer metric plus the tracing overhead.  Lines before the result
give each metric with its unit and sample count, and a run record
(commit, seed, package versions, nproc).

Times are in reference seconds (see speed.py): the host's drifting CPU speed
is calibrated out; the raw median is printed next to ``op_s.p50``.  The run
and every process it starts are pinned to one CPU.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

# one BLAS thread, set before anything imports numpy
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import metrics  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from checks import OK, WRONG  # noqa: E402

HERE = workloads.HERE
ROOT = workloads.ROOT
SETUP_SAMPLES = 3
IMPORT_PROBES = 3


def _probe(args: list[str], env: dict, importtime: bool = False) -> tuple[dict, str]:
    """Run probe.py in a fresh process; returns its JSON line and stderr."""
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           str(HERE / "probe.py"), *args]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"probe {args} failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1]), proc.stderr


def _cumulative_import_s(importtime_log: str, module: str) -> float:
    """Cumulative import time of ``module`` from ``-X importtime`` output
    (0 when the module was not imported)."""
    for line in importtime_log.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == module:
            return int(parts[1]) * 1e-6
    return 0.0


def import_metrics(env: dict) -> dict:
    """import.* from fresh ``-X importtime`` processes, in reference seconds."""
    cal = speed.fresh_process(env)
    samples = []
    for _ in range(IMPORT_PROBES):
        out, log = _probe(["import"], env, importtime=True)
        cal.sample()
        samples.append((out["import_s"], out["modules"],
                        _cumulative_import_s(log, "sympy"),
                        _cumulative_import_s(log, "scipy.optimize")))
    samples = [(w * cal.factor(i), m, s * cal.factor(i), o * cal.factor(i))
               for i, (w, m, s, o) in enumerate(samples)]
    wall, modules, sympy_s, optimize_s = (statistics.median(col) for col in zip(*samples))
    return {"import.wall_s": wall, "import.modules": modules,
            "import.sympy_s": sympy_s, "import.scipy_optimize_s": optimize_s}


def op_calibration(workload: str, env: dict) -> speed.Calibration:
    """CLI operations are fresh processes; the others run in this one."""
    return speed.fresh_process(env) if workload == "cli-cold" else speed.in_process()


def measure(runner, seconds: float, cal: speed.Calibration) -> tuple[list, list[float]]:
    """Closed loop in whole passes, so every run sees the same mix: stop when
    the next pass would take the operations' time, in reference seconds,
    past ``seconds`` (at least one pass).  ``cal`` is read after every
    operation.  Returns the results and their times in reference seconds."""
    results = []
    passes = runner.passes()
    busy = 0.0
    while True:
        pass_s = 0.0
        for op in next(passes):
            result = runner.run(op)
            cal.sample()
            pass_s += result.seconds
            results.append(result)
        busy += pass_s
        if (busy + pass_s) * cal.factor() > seconds:
            return results, cal.rescaled([r.seconds for r in results])


def _failures(results) -> tuple[int, bool, list[str]]:
    failed = [r for r in results if r.verdict.outcome != OK]
    wrong = any(r.verdict.outcome == WRONG for r in results)
    seen: dict[str, int] = {}
    for r in failed:
        for kind, why in r.verdict.problems:
            key = f"{kind}: {why}"[:160]
            seen[key] = seen.get(key, 0) + 1
    return len(failed), not wrong, [f"{n}x {k}" for k, n in seen.items()]


def run_record(args) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, cwd=ROOT)
        commit = proc.stdout.strip() or None

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit,
        "python": platform.python_version(),
        **{pkg: version(pkg) for pkg in ("numpy", "scipy", "sympy")},
        "nproc": os.cpu_count(), "cpus_used": sorted(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def _setup_samples(name: str, seed: int, env: dict) -> list[float]:
    """Set-up times in reference seconds, each in a fresh process: ``import
    loclab`` for cli-cold; import, input generation and warm-up otherwise."""
    args, key = (["import"], "import_s") if name == "cli-cold" else \
        (["setup", name, str(seed)], "setup_s")
    cal = speed.fresh_process(env)
    raw = []
    for _ in range(SETUP_SAMPLES):
        raw.append(_probe(args, env)[0][key])
        cal.sample()
    return cal.rescaled(raw)


def run_untraced(args, env: dict, scratch: Path) -> tuple[list, dict, dict]:
    runner = workloads.WORKLOADS[args.workload](args.seed, scratch)
    setup = _setup_samples(args.workload, args.seed, env)
    if args.workload != "cli-cold":
        runner.setup()
    results, times = measure(runner, args.seconds, op_calibration(args.workload, env))
    if args.workload == "cli-cold":
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if args.workload == "pipeline-warm":
        # an operation that failed before its orbit was checked counts as 1
        rel = {tol: max((r.rel_err[1] for r in results if r.rel_err and r.rel_err[0] == tol),
                        default=1.0)
               for tol in workloads.TOLERANCES}
    else:
        import accuracy
        import loclab

        rel = workloads.accuracy_pass(loclab, accuracy.load_reference())
    failed = sum(r.verdict.outcome != OK for r in results)
    values, notes = metrics.end_to_end(times, failed, setup, peak_kb / 1024.0, rel)
    raw = statistics.median(r.seconds for r in results)
    notes["op_s.p50"] += f", raw {raw:.6f} s"
    return results, values, notes


def run_traced(args, env: dict, scratch: Path) -> tuple[list, dict, dict]:
    import tracing

    imports = import_metrics(env)
    rec = tracing.Recorder()
    runner = workloads.WORKLOADS[args.workload](args.seed, scratch)
    in_process = args.workload != "cli-cold"
    if in_process:
        runner.setup()
    # half the time untraced, half traced, on the same inputs
    plain, plain_s = measure(runner, args.seconds / 2, op_calibration(args.workload, env))
    # cli-cold operations install the wrappers in their own fresh process
    inst = tracing.install(rec) if in_process else None
    runner.recorder = rec
    try:
        traced, traced_s = measure(runner, args.seconds / 2,
                                   op_calibration(args.workload, env))
    finally:
        if inst is not None:
            inst.uninstall()
    p50_plain, p50_traced = statistics.median(plain_s), statistics.median(traced_s)
    # span times are raw; rescale them by the traced operations' median factor
    factor = statistics.median(ref / r.seconds for ref, r in zip(traced_s, traced))
    values = metrics.per_layer(rec, len(traced), imports, p50_traced - p50_plain, factor)
    notes = {k: f"per traced op, n={len(traced)}" for k in values}
    for k in imports:
        notes[k] = f"median of {IMPORT_PROBES} fresh imports"
    notes["trace.overhead_s"] = (f"traced p50 {p50_traced:.6f} s (n={len(traced)}) - "
                                 f"untraced p50 {p50_plain:.6f} s (n={len(plain)})")
    return plain + traced, values, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (workloads.SRC / "loclab" / "__init__.py").is_file():
        print(f"error: no loclab package under {workloads.SRC}; run from the root "
              "of a loclab checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(workloads.SRC))
    # one CPU for this process and every process it starts, so the speed
    # calibration runs where the operations run
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = workloads.subprocess_env()
    scratch = ROOT / ".perfbench_out" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            results, values, notes = run_traced(args, env, scratch)
            declared = metrics.PER_LAYER
        else:
            results, values, notes = run_untraced(args, env, scratch)
            declared = metrics.END_TO_END
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            scratch.parent.rmdir()

    failed, correct, problems = _failures(results)
    print(json.dumps({"record": run_record(args)}))
    for name, unit in declared.items():
        print(f"{name:40s} {values[name]:<24.10g} {unit:9s} {notes.get(name, '')}")
    print(f"operations: attempted {len(results)}, failed {failed} "
          f"(fail_frac {failed}/{len(results)}), correct {correct}")
    for line in problems:
        print(f"  failure: {line}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
