"""One digest line per sweep orbit, to diff the orbits of two checkouts.

Integrates the 8 sweep triples from the default seed at three tolerances:
the default, TIGHT (rtol = atol = 1e-13, conv_radius = 1e-11, as in the test
suite and the benchmark) and rtol = atol = 1e-8, where the TypeI tails carry
many events.  For each of the 24 orbits it prints the triple, the tolerance's
name and the sha256 of the node times t, phi and psi, every ``StepTable``
column, the states and t-derivatives that ``Orbit.read`` gives at the
midpoint of each step, the terminal and the event list, all bit for bit.  Run from the
repository root of each checkout, with no arguments, and compare the two
outputs:

    python3 tools/orbit_digest.py > orbits.txt
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import loclab as L  # noqa: E402
from loclab import cli  # noqa: E402

TOLERANCES = {
    "default": L.Tolerances(),
    "tight": L.Tolerances(abs_tol=1e-13, rel_tol=1e-13, conv_radius=1e-11),
    "1e-8": L.Tolerances(abs_tol=1e-8, rel_tol=1e-8),
}


def _digest(npk: tuple[int, int, int], name: str) -> str:
    """sha256 of one orbit's nodes, step table, midpoint reads, terminal and
    events."""
    params = L.validate_params(*npk)
    orbit = L.integrate_orbit(params, L.seed_unstable(params), tolerances=TOLERANCES[name])
    y_mid, dy_mid = orbit.read(0.5 * (orbit.t[1:] + orbit.t[:-1]))
    sha = hashlib.sha256()
    for label, column in (("t", orbit.t), ("phi", orbit.phi), ("psi", orbit.psi),
                          *zip(orbit.steps._fields, orbit.steps),
                          ("y_mid", y_mid), ("dy_mid", dy_mid)):
        data = np.ascontiguousarray(column, dtype=float)
        sha.update(f"{label} {data.shape}\n".encode() + data.tobytes())
    sha.update(f"terminal {orbit.terminal.value}\n".encode())
    for e in orbit.events:
        values = (e.t, e.point.phi, e.point.psi, e.point.t)
        sha.update(" ".join([e.kind.value, *map(float.hex, values)]).encode() + b"\n")
    return sha.hexdigest()


def main() -> None:
    for npk in cli.SWEEP_DEFAULT:
        for name in TOLERANCES:
            print("({},{},{})".format(*npk), name, _digest(npk, name), flush=True)


if __name__ == "__main__":
    main()
