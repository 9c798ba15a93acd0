"""The three workloads: inputs drawn from the seed, one operation, its checks.

All are closed loops with one client.  The program receives only the
generated inputs; every check runs after the operation's timer stops.

- ``cli-cold``: one operation is one fresh ``python -m loclab.cli`` process.
- ``pipeline-warm``: one operation is the full in-process pipeline for one
  (triple, tolerance) pair.
- ``hopf-battery``: one operation is one ``hopf_verify_report`` call on the
  (3,2,2) profile built during set-up.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import accuracy
import checks
from checks import REFUSED, WRONG, Verdict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
COMMANDS = ["classify", "portrait", "profile", "dirichlet", "barriers",
            "verify-hopf", "sweep"]
# the test suite's TIGHT tolerances (tests/conftest.py)
TOLERANCES = {
    "default_tol": {},
    "tight_tol": {"abs_tol": 1e-13, "rel_tol": 1e-13, "conv_radius": 1e-11},
}
HOPF_SAMPLES = 1000


def subprocess_env() -> dict:
    """Environment of every process the benchmark starts: this one's (with
    its one-BLAS-thread settings) plus the package from this checkout's
    ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _level(rng: random.Random, triple) -> float:
    return round(rng.uniform(0.05, 0.95) * checks.phi0_of(triple), 12)


@dataclass
class OpResult:
    seconds: float  # raw wall time of the operation
    verdict: Verdict
    rel_err: tuple[str, float] | None = None


# --------------------------------------------------------------------------
# cli-cold


def cli_passes(seed: int):
    """Endless passes; each runs the seven subcommands once in shuffled
    order, on sweep triples dealt from a reshuffled deck (so every triple is
    used equally often), with a drawn --phi-boundary."""
    rng = random.Random(seed)
    deck: list = []
    while True:
        ops = []
        for cmd in rng.sample(COMMANDS, len(COMMANDS)):
            op = {"cmd": cmd, "triple": None, "level": None, "format": "json"}
            argv = [cmd]
            if cmd in ("classify", "portrait", "profile", "dirichlet", "barriers"):
                if not deck:
                    deck = rng.sample(checks.SWEEP, len(checks.SWEEP))
                op["triple"] = deck.pop()
                n, p, k = op["triple"]
                argv += ["--n", str(n), "--p", str(p), "--k", str(k)]
            if cmd == "dirichlet":
                if checks.is_type_ii(op["triple"]):
                    argv += ["--phi-boundary", "at-phi0"]
                else:
                    op["level"] = _level(rng, op["triple"])
                    argv += ["--phi-boundary", repr(op["level"])]
            if cmd == "sweep":
                op["format"] = rng.choice(["json", "csv"])
                argv += ["--format", op["format"]]
            op["argv"] = argv + ["--no-timestamp"]
            ops.append(op)
        yield ops


class CliCold:
    name = "cli-cold"

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.out = scratch / "cli"
        self.env = subprocess_env()
        self.recorder = None  # a tracing.Recorder in the traced run
        self.op_id = 0

    def passes(self):
        return cli_passes(self.seed)

    def run(self, op: dict) -> OpResult:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        argv = op["argv"] + ["--out", str(self.out)]
        result_file = self.out.parent / "traced_result.json"
        if self.recorder is None:
            cmd = [sys.executable, "-m", "loclab.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(result_file),
                   str(self.op_id), *argv]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env,
                              cwd=ROOT, timeout=120)
        seconds = time.perf_counter() - t0
        stdout, code = proc.stdout, proc.returncode
        if self.recorder is not None:
            try:
                res = json.loads(result_file.read_text())
                result_file.unlink()
            except (OSError, ValueError) as exc:
                verdict = Verdict()
                verdict.wrong(f"traced command left no result: {exc}; {proc.stderr[-300:]}")
                return OpResult(seconds, verdict)
            stdout, code = res["stdout"], res["exit"]
            self.recorder.absorb(res["spans"], res["counters"], self.op_id)
        self.op_id += 1
        files = {p.name: p.read_text() for p in self.out.iterdir() if p.is_file()}
        return OpResult(seconds, checks.check_cli(op, code, stdout, proc.stderr, files))


class InProcess:
    """A workload whose operations run in this (warmed) process."""

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.recorder = None  # a tracing.Recorder in the traced run
        self.op_id = 0

    def timed(self, fn):
        """Run ``fn`` under the operation timer; returns (seconds, result,
        error) where error is None or an (outcome, message) pair."""
        rec = self.recorder
        if rec is not None:
            rec.op = self.op_id
        self.op_id += 1
        out, error = None, None
        t0 = time.perf_counter()
        try:
            out = fn()
        except self.L.LoclabError as exc:
            error = (REFUSED, f"{type(exc).__name__}: {exc}")
        except Exception as exc:  # a crash is a wrong answer, not a stop
            error = (WRONG, f"{type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - t0
        if rec is not None:
            rec.op = -1
        return seconds, out, error


# --------------------------------------------------------------------------
# pipeline-warm


def pipeline_passes(seed: int):
    """Endless passes over all 8 sweep triples at both tolerances (16
    operations) in shuffled order, each with a drawn level in (0, phi0)."""
    rng = random.Random(seed)
    pairs = [(t, tol) for tol in TOLERANCES for t in checks.SWEEP]
    while True:
        yield [{"triple": t, "tol": tol, "level": _level(rng, t)}
               for t, tol in rng.sample(pairs, len(pairs))]


class PipelineWarm(InProcess):
    name = "pipeline-warm"
    # warm-up: one TypeII and one TypeI operation, so every code path has run
    WARMUP = [{"triple": (3, 2, 4), "tol": "default_tol", "level": 0.5},
              {"triple": (3, 2, 2), "tol": "tight_tol", "level": 0.5}]

    def setup(self) -> None:
        import loclab
        import loclab.serialize  # noqa: F401  (dumps is not re-exported)

        self.L = loclab
        self.tols = {k: loclab.Tolerances(**v) for k, v in TOLERANCES.items()}
        self.reference = accuracy.load_reference()
        for op in self.WARMUP:
            self.timed(lambda: self._pipeline(op))

    def passes(self):
        return pipeline_passes(self.seed)

    def _pipeline(self, op: dict):
        L = self.L
        p = L.validate_params(*op["triple"])
        reports = {"params": p, "spectra": L.spectra(p),
                   "geometry": L.geometry_report(p), "cone_density": L.cone_density(p)}
        orbit = L.integrate_orbit(p, L.seed_unstable(p), tolerances=self.tols[op["tol"]])
        profile = L.extract_profile(orbit, p)
        reports["dirichlet_level"] = L.dirichlet_multiplicity(orbit, p, op["level"])
        reports["dirichlet_phi0"] = L.dirichlet_multiplicity(orbit, p, p.phi0)
        refused = None
        if p.stability is L.Stability.TYPE_II:
            try:
                reports["density"] = L.nonminimizing_verdict(profile, orbit, p)
            except L.LoclabError as exc:
                refused = f"nonminimizing_verdict: {type(exc).__name__}: {exc}"
            reports["certificate"] = L.barrier_certificate_A4(p)
        else:
            reports["certificate"] = L.barrier_certificate_A3(p)
        return orbit, L.serialize.dumps(reports), refused

    def run(self, op: dict) -> OpResult:
        seconds, out, error = self.timed(lambda: self._pipeline(op))
        v = Verdict()
        if error is not None:
            v.problems.append(error)
            return OpResult(seconds, v)
        orbit, text, refused = out
        if refused:
            v.refuse(refused)
        self._check(v, op, orbit, text)
        rel = None
        if self.recorder is None:
            rel = (op["tol"], accuracy.max_rel_err(orbit, op["triple"],
                                                   checks.phi0_of(op["triple"]),
                                                   self.reference))
        return OpResult(seconds, v, rel)

    @staticmethod
    def _check(v: Verdict, op: dict, orbit, text: str) -> None:
        reports = checks.parse_json(v, text, "dumps output")
        if reports is None:
            return
        triple = op["triple"]

        def phi_at(t):
            return float(orbit.interpolant(t)[0])

        checks.check_multiplicity_below(v, reports["dirichlet_level"], op["level"], phi_at)
        checks.check_multiplicity_at_phi0(v, reports["dirichlet_phi0"], triple)
        if "density" in reports:
            checks.check_nonminimizing(v, reports["density"]["verdict"])
        checks.check_certificate(v, reports["certificate"], triple)


# --------------------------------------------------------------------------
# hopf-battery


def hopf_passes(seed: int):
    """Endless single-operation passes, each with a drawn sample seed."""
    rng = random.Random(seed)
    while True:
        yield [{"seed": rng.randrange(2**31)}]


class HopfBattery(InProcess):
    name = "hopf-battery"

    def setup(self) -> None:
        import loclab

        self.L = loclab
        self.params = loclab.validate_params(3, 2, 2)
        orbit = loclab.integrate_orbit(self.params, loclab.seed_unstable(self.params))
        self.profile = loclab.extract_profile(orbit, self.params)
        self.timed(lambda: self._report(0))  # warm-up, fills sympy's cache

    def _report(self, sample_seed: int) -> dict:
        return self.L.hopf_verify_report(self.profile, self.params,
                                         n_samples=HOPF_SAMPLES, seed=sample_seed)

    def passes(self):
        return hopf_passes(self.seed)

    def run(self, op: dict) -> OpResult:
        seconds, report, error = self.timed(lambda: self._report(op["seed"]))
        v = Verdict()
        if error is not None:
            v.problems.append(error)
        else:
            checks.check_hopf(v, report)
        return OpResult(seconds, v)


WORKLOADS = {w.name: w for w in (CliCold, PipelineWarm, HopfBattery)}


def accuracy_pass(loclab, reference: dict) -> dict[str, float]:
    """rel_err of every sweep orbit at both tolerances, for the workloads
    whose operations do not integrate those orbits themselves."""
    worst = {}
    for name, kwargs in TOLERANCES.items():
        tol = loclab.Tolerances(**kwargs)
        errs = []
        for triple in checks.SWEEP:
            p = loclab.validate_params(*triple)
            orbit = loclab.integrate_orbit(p, loclab.seed_unstable(p), tolerances=tol)
            errs.append(accuracy.max_rel_err(orbit, triple, p.phi0, reference))
        worst[name] = max(errs)
    return worst
