"""Brent's root finder (Brent 1973, ch. 4), as scipy's ``brentq`` runs it.

``brentq`` ports scipy's ``brentq.c`` and the checks of its Python wrapper:
the same defaults, iterates, arithmetic order and errors, so it returns the
same float for the same function and bracket.  Loading it costs nothing,
where ``scipy.optimize`` is most of the start-up time of a command.
"""

from __future__ import annotations

import math
import operator

_XTOL = 2e-12
_RTOL = 4 * 2.220446049250313e-16  # 4 ulps of 1
_ITER = 100


def brentq(f, a, b, xtol=_XTOL, rtol=_RTOL, maxiter=_ITER) -> float:
    """A root of ``f`` between ``a`` and ``b``, where f(a) and f(b) differ in
    sign, to within ``xtol + rtol |x|``.

    Each step takes the inverse quadratic (or secant) step when it is short
    enough and bisects otherwise, so the bracket always holds a sign change.
    ``ValueError`` for a bracket without a sign change, a NaN value of ``f``,
    ``xtol <= 0``, ``rtol`` below 4 eps or ``maxiter < 0``; ``RuntimeError``
    after ``maxiter`` steps without convergence.
    """
    maxiter = operator.index(maxiter)
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_RTOL:g})")
    if maxiter < 0:
        raise ValueError("maxiter must be >= 0")

    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    # xcur is the current estimate, xpre the previous one, and the root lies
    # between xcur and xblk, where |f(xblk)| >= |f(xcur)|
    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")
