"""Command-line front end.

Subcommands: classify, portrait, profile, dirichlet, barriers, verify-hopf,
sweep.  Single-run commands write their files to --out when it is given,
then print their JSON report to stdout.  Exit codes: 0 success, 1 a
certificate or invariant failed, 2 invalid configuration.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import dirichlet as dirichlet_mod
from . import dynamics, geometry, hopf
from .errors import InvalidDegree, InvalidFamily, LoclabError, WrongCase
from .params import LomseParams, Stability, spectra, validate_params
from .serialize import dumps, to_jsonable

SWEEP_DEFAULT = [
    (3, 2, 2),
    (3, 2, 4),
    (3, 2, 6),
    (5, 4, 2),
    (5, 4, 4),
    (5, 4, 6),
    (7, 4, 2),
    (15, 8, 2),
]
FORMATS = ("json", "csv")


def _stamp(report: dict, cfg: argparse.Namespace) -> dict:
    if not cfg.no_timestamp:
        report["timestamp"] = datetime.now(timezone.utc).isoformat()
    return report


def _emit_json(report: dict, cfg: argparse.Namespace, name: str) -> None:
    text = dumps(_stamp(report, cfg))
    if cfg.output_dir:
        Path(cfg.output_dir).mkdir(parents=True, exist_ok=True)
        (Path(cfg.output_dir) / f"{name}.json").write_text(text + "\n")
    print(text)


def _write_csv(path: Path, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _integrated(cfg: argparse.Namespace):
    params = validate_params(cfg.n, cfg.p, cfg.k, relaxed=cfg.relaxed)
    seed = dynamics.seed_unstable(params, cfg.seed_epsilon)
    tol = dynamics.Tolerances(abs_tol=cfg.abs_tol, rel_tol=cfg.rel_tol)
    orbit = dynamics.integrate_orbit(params, seed, cfg.t_max, tol)
    return params, orbit


def _cmd_classify(cfg: argparse.Namespace) -> int:
    params = validate_params(cfg.n, cfg.p, cfg.k, relaxed=cfg.relaxed)
    report = {
        "params": to_jsonable(params),
        "family": str(params.family) if params.family else None,
        "spectra": to_jsonable(spectra(params)),
        "geometry": to_jsonable(geometry.geometry_report(params)),
        "cone_density": geometry.cone_density(params),
    }
    _emit_json(report, cfg, f"classify_n{cfg.n}p{cfg.p}k{cfg.k}")
    return 0


def _cmd_portrait(cfg: argparse.Namespace) -> int:
    params, orbit = _integrated(cfg)
    out = Path(cfg.output_dir or ".")
    _write_csv(
        out / "orbit.csv",
        ["t", "phi", "psi"],
        zip(orbit.t, orbit.phi, orbit.psi),
    )
    sidecar = {
        "terminal": orbit.terminal.value,
        "events": [
            {"kind": e.kind.value, "t": e.t, "phi": e.point.phi, "psi": e.point.psi}
            for e in orbit.events
        ],
        "params": to_jsonable(params),
    }
    _emit_json(sidecar, cfg, "orbit_events")
    return 0


def _cmd_profile(cfg: argparse.Namespace) -> int:
    params, orbit = _integrated(cfg)
    prof = dynamics.extract_profile(orbit, params)
    out = Path(cfg.output_dir or ".")
    _write_csv(
        out / "profile.csv",
        ["r", "rho", "rho_r", "residual"],
        zip(prof.r_samples, prof.rho, prof.rho_r, prof.residuals),
    )
    report = {
        "r_min": prof.r_min,
        "r_max": prof.r_max,
        "small_r_slope": prof.small_r_slope,
        "max_abs_residual": float(max(abs(v) for v in prof.residuals)),
        "params": to_jsonable(params),
    }
    _emit_json(report, cfg, "profile_summary")
    return 0


def _cmd_dirichlet(cfg: argparse.Namespace) -> int:
    if cfg.phi_boundary is None:
        print("dirichlet requires --phi-boundary (a number or 'at-phi0')",
              file=sys.stderr)
        return 2
    pb = None if cfg.phi_boundary == "at-phi0" else float(cfg.phi_boundary)
    if pb is not None and not (math.isfinite(pb) and pb >= 0):
        raise ValueError("phi_boundary must be finite and nonnegative, "
                         f"got {cfg.phi_boundary}")
    params, orbit = _integrated(cfg)
    report = dirichlet_mod.dirichlet_multiplicity(
        orbit, params, params.phi0 if pb is None else pb)
    _emit_json({"dirichlet": to_jsonable(report)}, cfg, "dirichlet")
    return 0


def _certificate(params: LomseParams) -> dynamics.BarrierCertificate:
    if params.stability is Stability.TYPE_I:
        return dynamics.barrier_certificate_A3(params)
    return dynamics.barrier_certificate_A4(params)


def _cmd_barriers(cfg: argparse.Namespace) -> int:
    cert = _certificate(validate_params(cfg.n, cfg.p, cfg.k, relaxed=cfg.relaxed))
    _emit_json({"certificate": to_jsonable(cert)}, cfg, "barriers")
    return 0 if cert.passed else 1


def _cmd_verify_hopf(cfg: argparse.Namespace) -> int:
    # the Hopf map is of (3,2,2)-type: refuse any other triple before integrating
    hopf.require_hopf_type(validate_params(cfg.n, cfg.p, cfg.k, relaxed=cfg.relaxed))
    params, orbit = _integrated(cfg)
    prof = dynamics.extract_profile(orbit, params)
    report = hopf.hopf_verify_report(prof)
    _emit_json(report, cfg, "hopf_verify")
    return 0 if report["pass"] else 1


def _sweep_row(n: int, p: int, k: int, relaxed: bool) -> dict:
    """One sweep row; a triple with no certificate for its case is a failed
    row, named on stderr, and the other rows still run."""
    params = validate_params(n, p, k, relaxed=relaxed)
    try:
        passed = _certificate(params).passed
    except WrongCase as exc:
        print(f"sweep row ({n},{p},{k}): WrongCase: {exc}", file=sys.stderr)
        passed = False
    return {
        "n": n,
        "p": p,
        "k": k,
        "type": params.stability.value,
        "phi0": params.phi0,
        "cos_alpha": geometry.normal_angle_cos(params),
        "volume_ratio": geometry.los_volume_ratio(params),
        "slope_W": geometry.slope_function(params),
        "verdict": "certified" if passed else "failed",
    }


def _read_triples(path: str) -> list[tuple[int, int, int]]:
    """The 'n p k' lines of a sweep list; '#' starts a comment, commas count
    as spaces, and any other line than three integers is refused, as is a
    list with no triples."""
    triples = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        fields = line.split("#", 1)[0].replace(",", " ").split()
        if not fields:
            continue
        try:
            n, p, k = (int(v) for v in fields)
        except ValueError:
            raise ValueError(f"{path} line {lineno}: expected three integers "
                             f"'n p k', got {line.strip()!r}") from None
        triples.append((n, p, k))
    if not triples:
        raise ValueError(f"{path}: no 'n p k' triples")
    return triples


def _cmd_sweep(cfg: argparse.Namespace) -> int:
    triples = _read_triples(cfg.sweep_list) if cfg.sweep_list else SWEEP_DEFAULT
    rows = [_sweep_row(n, p, k, cfg.relaxed) for (n, p, k) in triples]
    header = ["n", "p", "k", "type", "phi0", "cos_alpha", "volume_ratio",
              "slope_W", "verdict"]
    if cfg.format == "csv":
        out = Path(cfg.output_dir or ".")
        _write_csv(out / "sweep.csv", header, ([r[h] for h in header] for r in rows))
        print((out / "sweep.csv").as_posix())
    else:
        _emit_json({"rows": rows}, cfg, "sweep")
    return 0 if all(r["verdict"] == "certified" for r in rows) else 1


_COMMANDS = {
    "classify": _cmd_classify,
    "portrait": _cmd_portrait,
    "profile": _cmd_profile,
    "dirichlet": _cmd_dirichlet,
    "barriers": _cmd_barriers,
    "verify-hopf": _cmd_verify_hopf,
    "sweep": _cmd_sweep,
}


def run(config: argparse.Namespace) -> int:
    """Execute one command of the parsed flags; returns the process exit status."""
    if not all(math.isfinite(v) and v > 0 for v in
               (config.t_max, config.abs_tol, config.rel_tol, config.seed_epsilon)):
        print("tolerances, t_max and seed epsilon must be positive and finite",
              file=sys.stderr)
        return 2
    if config.abs_tol >= config.seed_epsilon:
        print(f"abs_tol {config.abs_tol} must be below seed_epsilon {config.seed_epsilon}: "
              "the seed region would be solver noise", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[config.command](config)
    except (InvalidDegree, InvalidFamily) as exc:
        print(f"invalid parameters: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except LoclabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="loclab",
        description="Lawson-Osserman cone and minimal-graph laboratory",
    )
    ap.add_argument("command", choices=sorted(_COMMANDS))
    ap.add_argument("--n", type=int, default=3)
    ap.add_argument("--p", type=int, default=2)
    ap.add_argument("--k", type=int, default=2)
    ap.add_argument("--t-max", type=float, dest="t_max", default=dynamics.T_MAX)
    ap.add_argument("--abs-tol", type=float, dest="abs_tol",
                    default=dynamics.Tolerances.abs_tol)
    ap.add_argument("--rel-tol", type=float, dest="rel_tol",
                    default=dynamics.Tolerances.rel_tol)
    ap.add_argument("--seed-epsilon", type=float, dest="seed_epsilon",
                    default=dynamics.SEED_EPSILON)
    ap.add_argument("--phi-boundary", dest="phi_boundary")
    ap.add_argument("--out", dest="output_dir")
    ap.add_argument("--format", choices=FORMATS, default="json")
    ap.add_argument("--relaxed", action="store_true")
    ap.add_argument("--no-timestamp", action="store_true", dest="no_timestamp")
    ap.add_argument("--list", dest="sweep_list",
                    help="file of 'n p k' triples for sweep")
    return ap


def main(argv: list[str] | None = None) -> int:
    return run(_build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
