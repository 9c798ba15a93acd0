"""One-off generator of the high-precision reference behind ``rel_err.*``.

Integrates the phase-plane system of every triple in the standard sweep list
with mpmath's Taylor-series ODE solver and records gauge-free quantities of
the orbit leaving the origin: psi at fixed fractions of phi0 on the first
rising branch, and (TypeII only) phi1, the first maximum of phi.  Neither
depends on the t-translation of the orbit, nor, to far below double
precision, on where along the linear unstable direction it is seeded.

Every triple is computed at two working precisions; nothing is written unless
all values agree to ``MIN_DIGITS`` significant digits.  Timed benchmark runs
only read the stored file.

    python3 perfbench/make_reference.py            # writes perfbench/reference.json
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import mpmath as mp

SWEEP = [(3, 2, 2), (3, 2, 4), (3, 2, 6), (5, 4, 2), (5, 4, 4), (5, 4, 6),
         (7, 4, 2), (15, 8, 2)]
# levels phi = f * phi0 on the first rising branch
LEVEL_FRACTIONS = ["0.25", "0.5", "0.75", "0.9"]
TYPE_II = {(3, 2, 4), (3, 2, 6), (5, 4, 6)}
SEED_EPSILON = "1e-8"
PRECISIONS = (30, 40)
MIN_DIGITS = 20
STORED_DIGITS = 25
T_STEP = "0.125"
OUT = Path(__file__).with_name("reference.json")


def _quantities(n: int, p: int, k: int, dps: int) -> dict[str, mp.mpf]:
    mp.mp.dps = dps
    K = k * (k + n - 1)
    lam2 = mp.mpf(K) / p
    phi0 = mp.sqrt(mp.mpf(p * (K - n)) / (K * (n - p)))

    def field(t, y):
        phi, psi = y
        q = 1 + lam2 * phi * phi
        f1 = (lam2 - 1) * p / q - (n - p)
        f2 = (n - p) + p / q
        return [psi, -psi - (f2 * psi - f1 * phi) * (1 + (phi + psi) ** 2)]

    eps = mp.mpf(SEED_EPSILON)
    sol = mp.odefun(field, 0, [eps, eps * (k - 1)])
    levels = [mp.mpf(f) * phi0 for f in LEVEL_FRACTIONS]
    out: dict[str, mp.mpf] = {}
    step = mp.mpf(T_STEP)
    t_prev = mp.mpf(0)
    pending = list(zip(LEVEL_FRACTIONS, levels))
    want_phi1 = (n, p, k) in TYPE_II
    while pending or want_phi1:
        t = t_prev + step
        y = sol(t)
        if y[1] <= 0:
            if pending:
                raise RuntimeError(f"({n},{p},{k}): psi turned before phi={pending[0][0]}*phi0")
            t1 = mp.findroot(lambda s: sol(s)[1], (t_prev, t), solver="anderson")
            out["phi1"] = sol(t1)[0]
            want_phi1 = False
        while pending and y[0] >= pending[0][1]:
            frac, level = pending.pop(0)
            tl = mp.findroot(lambda s: sol(s)[0] - level, (t_prev, t), solver="anderson")
            out[f"psi_at_{frac}phi0"] = sol(tl)[1]
        t_prev = t
    return out


def _agreeing_digits(a: mp.mpf, b: mp.mpf) -> int:
    if a == b:
        return PRECISIONS[0]
    return int(mp.floor(-mp.log10(abs(a - b) / abs(b))))


def main() -> int:
    triples = {}
    digits_all = []
    for n, p, k in SWEEP:
        t0 = time.perf_counter()
        lo = _quantities(n, p, k, PRECISIONS[0])
        hi = _quantities(n, p, k, PRECISIONS[1])
        digits = min(_agreeing_digits(lo[key], hi[key]) for key in hi)
        if digits < MIN_DIGITS:
            print(f"({n},{p},{k}): precisions agree to only {digits} digits",
                  file=sys.stderr)
            return 1
        digits_all.append(digits)
        mp.mp.dps = PRECISIONS[1]
        triples[f"{n},{p},{k}"] = {key: mp.nstr(v, STORED_DIGITS) for key, v in hi.items()}
        print(f"({n},{p},{k}) {digits} digits, {time.perf_counter() - t0:.1f} s",
              file=sys.stderr)
    doc = {
        "method": "mpmath.odefun (Taylor series), seed (eps, eps*(k-1)) on the "
                  "linear unstable direction of the origin",
        "seed_epsilon": SEED_EPSILON,
        "precisions_dps": list(PRECISIONS),
        "digits": min(min(digits_all), STORED_DIGITS),
        "level_fractions": LEVEL_FRACTIONS,
        "triples": triples,
    }
    OUT.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
