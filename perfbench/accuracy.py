"""Relative error of gauge-free orbit quantities against the stored
high-precision reference (``reference.json``, written by
``make_reference.py``).

The quantities are psi at fixed fractions of phi0 on the first rising branch
of the orbit, and phi1 (the first maximum of phi) for TypeII triples.  None depends on the t-translation gauge or on the seed epsilon, so
they compare orbits computed with any seed convention.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")
# errors below this are rounding noise of a double-precision orbit of a few
# hundred steps; they are reported as RESOLUTION so that a change of rounding
# order alone cannot read as a loss of accuracy
RESOLUTION = 1e-11


def load_reference() -> dict:
    doc = json.loads(REFERENCE.read_text())
    return {tuple(int(x) for x in key.split(",")): {k: float(v) for k, v in vals.items()}
            for key, vals in doc["triples"].items()}


def orbit_quantities(orbit, phi0: float, keys) -> dict[str, float]:
    """The reference's quantities, read off the program's dense output."""
    from scipy.optimize import brentq

    t, phi, psi = orbit.t, orbit.phi, orbit.psi
    interp = orbit.interpolant
    rising = len(t)
    for i in range(1, len(t)):
        if psi[i] <= 0.0:
            rising = i
            break
    out = {}
    for key in keys:
        if key == "phi1":
            # the program's phi1 (DirichletReport.phi1): max phi over the
            # solver nodes and the psi-zero events
            ev = [e.point.phi for e in orbit.events if e.kind.value == "PsiZero"]
            out[key] = max([float(phi.max())] + ev)
            continue
        level = float(key[len("psi_at_"):-len("phi0")]) * phi0
        j = next((i for i in range(1, rising) if phi[i] >= level), None)
        if j is None:
            out[key] = math.nan
            continue
        tl = brentq(lambda s: interp(s)[0] - level, t[j - 1], t[j], xtol=1e-15, rtol=1e-15)
        out[key] = float(interp(tl)[1])
    return out


def max_rel_err(orbit, triple, phi0: float, reference: dict) -> float:
    """Largest relative error over the triple's reference quantities, between
    RESOLUTION and 1 (no correct digit, also the value of a missing one)."""
    ref = reference[tuple(triple)]
    got = orbit_quantities(orbit, phi0, ref)
    worst = 0.0
    for key, want in ref.items():
        err = abs(got[key] - want) / abs(want)
        worst = max(worst, err if math.isfinite(err) else 1.0)
    return min(max(worst, RESOLUTION), 1.0)
