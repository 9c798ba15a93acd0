"""Output checks: what the paper states about each output, and how a
mismatch is classified.

An operation's outcome is one of

- ``OK``: every check held;
- ``REFUSED``: the program declined to give an answer (it raised a
  ``LoclabError``, or returned an ``Inconclusive`` verdict); this counts as a
  failed operation but not as a wrong answer;
- ``WRONG``: an output contradicts the paper, or the program crashed, exited
  with an unexpected status, or wrote malformed JSON or CSV.

Every failed operation, refused or wrong, counts in ``failed``; ``correct``
in the result line is false as soon as one answer is wrong.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

OK, REFUSED, WRONG = "ok", "refused", "wrong"

SWEEP = [(3, 2, 2), (3, 2, 4), (3, 2, 6), (5, 4, 2), (5, 4, 4), (5, 4, 6),
         (7, 4, 2), (15, 8, 2)]
HOPF_CHECKS = 7
CROSSING_TOL = 1e-9


def is_type_ii(triple) -> bool:
    """Spiral (TypeII) triples of the paper's lists: (3,2,k>=4), (5,4,k>=6)."""
    n, p, k = triple
    return ((n, p) == (3, 2) and k >= 4) or ((n, p) == (5, 4) and k >= 6)


def phi0_of(triple) -> float:
    """Cone slope phi0 = sqrt(p (K - n) / (K (n - p))), K = k (k + n - 1)."""
    n, p, k = triple
    K = k * (k + n - 1)
    return math.sqrt(p * (K - n) / (K * (n - p)))


@dataclass
class Verdict:
    """Accumulated problems of one operation."""

    problems: list[tuple[str, str]] = field(default_factory=list)

    def refuse(self, why: str) -> None:
        self.problems.append((REFUSED, why))

    def wrong(self, why: str) -> None:
        self.problems.append((WRONG, why))

    def expect(self, ok: bool, why: str) -> bool:
        if not ok:
            self.wrong(why)
        return ok

    @property
    def outcome(self) -> str:
        kinds = {k for k, _ in self.problems}
        return WRONG if WRONG in kinds else REFUSED if kinds else OK


# --------------------------------------------------------------------------
# reports shared by the in-process and the CLI workloads (JSON-shaped)


def check_multiplicity_below(v: Verdict, report: dict, level: float,
                             phi_at=None) -> None:
    """Finite(n >= 1) at a level below phi1, each crossing on the level."""
    mult = report["multiplicity"]
    if not v.expect(level < report["phi1"], f"level {level} not below phi1 {report['phi1']}"):
        return
    v.expect(mult["kind"] == "Finite" and (mult["count"] or 0) >= 1,
             f"expected Finite(n>=1) below phi1, got {mult}")
    v.expect(len(report["crossing_ts"]) == (mult["count"] or 0),
             "crossing count differs from multiplicity")
    if phi_at is not None:
        for t in report["crossing_ts"]:
            v.expect(abs(phi_at(t) - level) <= CROSSING_TOL * max(1.0, level),
                     f"phi({t}) = {phi_at(t)} is not the level {level}")


def check_multiplicity_at_phi0(v: Verdict, report: dict, triple) -> None:
    """UnboundedSequence at phi0 for TypeII; for TypeI the orbit stays below
    phi0, so no orbit solution and only the cone."""
    kind = report["multiplicity"]["kind"]
    v.expect(report["cone_solution"] is True, "cone solution not flagged at phi0")
    if is_type_ii(triple):
        v.expect(kind == "UnboundedSequence",
                 f"TypeII at phi0: expected UnboundedSequence, got {kind}")
    else:
        v.expect(kind == "Zero", f"TypeI at phi0: expected Zero, got {kind}")


def check_certificate(v: Verdict, cert: dict, triple) -> None:
    case = cert["case_id"]
    v.expect((case == "A4") == is_type_ii(triple), f"certificate case {case} for {triple}")
    v.expect(cert["pass"] is True and all(c["pass"] for c in cert["checks"]),
             f"barrier certificate for {triple} is not certified")


def check_nonminimizing(v: Verdict, verdict: str) -> None:
    if verdict == "Inconclusive":
        v.refuse("density verdict Inconclusive")
    else:
        v.expect(verdict == "NonMinimizing", f"density verdict {verdict}")


def check_hopf(v: Verdict, report: dict) -> None:
    """All seven checks, the profile-dependent one included, pass."""
    checks = report["checks"]
    v.expect(len(checks) == HOPF_CHECKS, f"hopf report has {len(checks)} checks")
    failing = [c["name"] for c in checks if c["pass"] is not True]
    v.expect(report["pass"] is True and not failing, f"hopf checks fail: {failing}")


# --------------------------------------------------------------------------
# CLI outputs


def parse_csv(v: Verdict, text: str, header: list[str]) -> list[list[str]] | None:
    rows = list(csv.reader(io.StringIO(text)))
    if not v.expect(bool(rows) and rows[0] == header, f"CSV header {rows[:1]} != {header}"):
        return None
    body = rows[1:]
    if not v.expect(len(body) >= 2 and all(len(r) == len(header) for r in body),
                    "CSV rows missing or ragged"):
        return None
    return body


def float_rows(v: Verdict, body: list[list[str]]) -> list[list[float]] | None:
    try:
        out = [[float(x) for x in row] for row in body]
    except ValueError as exc:
        v.wrong(f"CSV value does not parse: {exc}")
        return None
    if not v.expect(all(math.isfinite(x) for row in out for x in row),
                    "CSV holds a non-finite value"):
        return None
    return out


def parse_json(v: Verdict, text: str, what: str):
    try:
        return json.loads(text)
    except ValueError as exc:
        v.wrong(f"{what} is not JSON: {exc}")
        return None


def check_cli(op: dict, exit_code: int, stdout: str, stderr: str,
              files: dict[str, str]) -> Verdict:
    """Check one CLI command from its exit status, stdout and written files.

    ``op`` is the generated input: ``cmd``, ``triple`` (or None), ``level``
    (the --phi-boundary value, or None for 'at-phi0') and ``format``.
    """
    v = Verdict()
    cmd, triple = op["cmd"], op.get("triple")
    if exit_code != 0:
        first = stderr.strip().splitlines()[:1]
        if exit_code == 1 and not stdout.strip() and first and first[0].startswith("error: "):
            v.refuse(first[0])
        else:
            v.wrong(f"exit status {exit_code}: {first}")
        return v

    if cmd == "sweep" and op["format"] == "csv":
        body = parse_csv(v, files.get("sweep.csv", ""),
                         ["n", "p", "k", "type", "phi0", "cos_alpha",
                          "volume_ratio", "slope_W", "verdict"])
        if body is None:
            return v
        rows = [dict(zip(["n", "p", "k", "type", "verdict"],
                         [int(r[0]), int(r[1]), int(r[2]), r[3], r[8]])) for r in body]
        _check_sweep_rows(v, rows)
        return v

    report = parse_json(v, stdout, "stdout")
    if report is None:
        return v
    written = [text for name, text in files.items() if name.endswith(".json")]
    v.expect(len(written) == 1 and parse_json(v, written[0], "written JSON") == report,
             "written JSON file missing or different from stdout")

    if cmd == "classify":
        params = report["params"]
        v.expect((params["n"], params["p"], params["k"]) == tuple(triple),
                 f"classify echoes {params}")
        v.expect(params["stability"] == ("TypeII" if is_type_ii(triple) else "TypeI"),
                 f"stability {params['stability']} for {triple}")
        v.expect(math.isclose(params["phi0"], phi0_of(triple), rel_tol=1e-12),
                 f"phi0 {params['phi0']} for {triple}")
    elif cmd == "portrait":
        v.expect(report["terminal"] == "ConvergedToP1", f"terminal {report['terminal']}")
        body = parse_csv(v, files.get("orbit.csv", ""), ["t", "phi", "psi"])
        rows = float_rows(v, body) if body else None
        if rows:
            v.expect(all(a[0] < b[0] for a, b in zip(rows, rows[1:])), "t not increasing")
            t, phi, psi = rows[-1]
            v.expect(math.hypot(phi - phi0_of(triple), psi) < 1e-6,
                     "orbit.csv does not end at (phi0, 0)")
    elif cmd == "profile":
        body = parse_csv(v, files.get("profile.csv", ""), ["r", "rho", "rho_r", "residual"])
        rows = float_rows(v, body) if body else None
        if rows:
            v.expect(all(a[0] < b[0] for a, b in zip(rows, rows[1:])), "r not increasing")
            v.expect(math.isclose(rows[0][0], report["r_min"], rel_tol=1e-12)
                     and math.isclose(rows[-1][0], report["r_max"], rel_tol=1e-12),
                     "profile.csv does not span [r_min, r_max]")
    elif cmd == "dirichlet":
        d = report["dirichlet"]
        if op["level"] is None:
            check_multiplicity_at_phi0(v, d, triple)
        else:
            check_multiplicity_below(v, d, op["level"])
    elif cmd == "barriers":
        check_certificate(v, report["certificate"], triple)
    elif cmd == "verify-hopf":
        check_hopf(v, report)
    elif cmd == "sweep":
        _check_sweep_rows(v, report["rows"])
    return v


def _check_sweep_rows(v: Verdict, rows: list[dict]) -> None:
    if not v.expect([(r["n"], r["p"], r["k"]) for r in rows] == SWEEP,
                    "sweep rows are not the standard triples"):
        return
    for r in rows:
        triple = (r["n"], r["p"], r["k"])
        v.expect(r["type"] == ("TypeII" if is_type_ii(triple) else "TypeI"),
                 f"sweep type {r['type']} for {triple}")
        v.expect(r["verdict"] == "certified", f"sweep verdict {r['verdict']} for {triple}")
