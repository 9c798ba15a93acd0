"""Phase-plane dynamics of the radial minimal-graph equation.

The second-order profile equation for rho(r) is rewritten with
phi = rho/r, t = log r, psi = phi_t as the autonomous system

    phi_t = psi
    psi_t = -psi - (f2(phi) psi - f1(phi) phi) (1 + (phi+psi)^2)

whose equilibria are the origin and (+-phi0, 0).  This module holds the
model: the field, the seed on the unstable manifold of the origin, the
orbits that ``dop853.solve`` integrates from it with their psi-zero and
phi0-crossing events, the graph profiles of converged orbits and their
residuals, and the invariant-region barriers for both stability types.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import dop853
from .errors import (
    NonFiniteState,
    NotConverged,
    StepSizeUnderflow,
    WrongCase,
)
from .params import LomseParams, Stability, _integer


@dataclass(frozen=True)
class PhasePoint:
    phi: float
    psi: float
    t: float = 0.0


@dataclass(frozen=True)
class Tolerances:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    conv_radius: float = 1e-9


T_MAX = 200.0
SEED_EPSILON = 1e-8


class EventKind(Enum):
    PSI_ZERO = "PsiZero"
    PHI_EQUALS_PHI0 = "PhiEqualsPhi0"


@dataclass(frozen=True)
class Event:
    kind: EventKind
    t: float
    point: PhasePoint


class Terminal(Enum):
    CONVERGED_TO_P1 = "ConvergedToP1"
    LEFT_DOMAIN = "LeftDomain"
    MAX_TIME_REACHED = "MaxTimeReached"


def f1(phi, params: LomseParams):
    """(lambda^2-1) p / (1 + lambda^2 phi^2) - (n - p); vanishes at phi0."""
    lam2, n_p, _, lam2_1p = params.field_constants
    return lam2_1p / (1.0 + lam2 * phi * phi) - n_p


def f2(phi, params: LomseParams):
    """(n - p) + p / (1 + lambda^2 phi^2); strictly positive."""
    lam2, n_p, p, _ = params.field_constants
    return n_p + p / (1.0 + lam2 * phi * phi)


def _f1_prime(phi, params: LomseParams):
    lam2, _, _, lam2_1p = params.field_constants
    denom = 1.0 + lam2 * phi * phi
    return -lam2_1p * 2.0 * lam2 * phi / (denom * denom)


def vector_field(phi, psi, params: LomseParams) -> tuple:
    """The field X = (X1, X2) at (phi, psi); exactly antisymmetric under
    (phi,psi) -> -(phi,psi).  The system is autonomous, so there is no time
    argument.  ``phi`` and ``psi`` may be arrays (so may ``phi`` in f1, f2):
    each element then gets exactly the value of the scalar call."""
    lam2, n_p, p, lam2_1p = params.field_constants
    # f1 and f2 inline around one denominator, in their own operation order
    d = 1.0 + lam2 * phi * phi
    f2_ = n_p + p / d
    f1_ = lam2_1p / d - n_p
    s = phi + psi
    return psi, -psi - (f2_ * psi - f1_ * phi) * (1.0 + s * s)


def seed_unstable(params: LomseParams, epsilon: float = SEED_EPSILON) -> PhasePoint:
    """Point on the linear unstable eigendirection V1 = (1, k-1) at t = 0.

    The system is autonomous, so the t-translation gauge is fixed here once
    and for all; translation invariance of the orbit shape is a test property.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    return PhasePoint(phi=epsilon, psi=epsilon * (params.k - 1), t=0.0)


@dataclass(frozen=True)
class Orbit:
    """An integrated orbit: the solver nodes ``t`` with their states, the
    events, why the integration stopped, and the step table ``steps`` between
    the nodes, which ``read`` evaluates anywhere on [t[0], t[-1]].

    ``interpolant`` is scipy's ``OdeSolution`` over the same steps.  It is
    built the first time something reads it, and that first read imports
    scipy; it reads the same values as ``read``, bit for bit."""

    t: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    events: list[Event]
    terminal: Terminal
    params: LomseParams
    tolerances: Tolerances
    steps: dop853.StepTable = field(repr=False)

    @cached_property
    def interpolant(self):
        """One ``Dop853DenseOutput`` per step, from the stored step ends, so
        each step's h is the one the solver used."""
        from scipy.integrate import OdeSolution
        from scipy.integrate._ivp.rk import Dop853DenseOutput

        s = self.steps
        return OdeSolution(self.t, [
            Dop853DenseOutput(t_old, t_new, y_old, F)
            for t_old, t_new, y_old, F in zip(s.t_old.tolist(), s.t_new.tolist(),
                                              s.y_old, s.F)])

    def read(self, t) -> tuple[np.ndarray, np.ndarray]:
        """(phi, psi) and their t-derivatives at ``t``: ``StepTable.read``."""
        return self.steps.read(t)

    def events_of(self, kind: EventKind) -> list[Event]:
        return [e for e in self.events if e.kind is kind]


def integrate_orbit(
    params: LomseParams,
    seed: PhasePoint,
    t_max: float = T_MAX,
    tolerances: Tolerances | None = None,
) -> Orbit:
    """Integrate the system forward from ``seed`` until convergence to
    (phi0, 0), domain exit, or t_max.

    Uses the 8th-order adaptive Dormand-Prince scheme DOP853 with dense
    output (``dop853.solve``).  The step loop only steps, and evaluates only the
    two terminal events (ball entry and domain exit) at each node.  After the
    run the dense output of every step is built in one pass, the psi and
    phi - phi0 event functions are each called once on the node arrays, and
    events (psi = 0 crossings, phi = phi0 crossings) are located by
    root-finding on the dense output of each step where an event function
    changes sign.  The event points are read with ``StepTable.read``.
    Convergence is declared when
    the state enters the ball of radius ``conv_radius`` around (phi0, 0):
    that equilibrium is a hyperbolic sink for every triple (tr B = -(n+1) < 0
    and det B = 2n(K-n)/K > 0 since K = k(k+n-1) > n), so entering the ball
    is the whole rule, for nodes and spirals alike.  ``ValueError`` for a
    ``t_max`` that is not finite and positive, an ``abs_tol`` or ``rel_tol``
    that is not finite and nonnegative, or a ``conv_radius`` that is not
    finite and positive.
    """
    tol = tolerances or Tolerances()
    if not (math.isfinite(seed.phi) and math.isfinite(seed.psi)
            and math.isfinite(seed.t)):
        raise NonFiniteState(f"seed is not finite: {seed}")
    # at an infinite t_max a run that no terminal event ends never stops
    if not 0 < t_max < math.inf:
        raise ValueError(f"t_max must be finite and positive, got {t_max}")
    for name in ("abs_tol", "rel_tol"):  # 0 is allowed, as in solve_ivp
        value = getattr(tol, name)
        if not 0 <= value < math.inf:
            raise ValueError(f"{name} must be finite and nonnegative, got {value}")
    if not 0 < tol.conv_radius < math.inf:
        raise ValueError(f"conv_radius must be finite and positive, got {tol.conv_radius}")
    phi0 = params.phi0
    cap_phi, cap_psi = max(5.0 * phi0, 1.0), max(5.0 * phi0, 10.0)
    conv = tol.conv_radius
    event_fns = (  # (g(phi, psi), direction, terminal); the non-terminal g's take arrays
        (lambda phi, psi: psi, 0, False),
        (lambda phi, psi: phi - phi0, 0, False),
        (lambda phi, psi: math.hypot(phi - phi0, psi) - conv, -1, True),
        (lambda phi, psi: max(abs(phi) / cap_phi, abs(psi) / cap_psi) - 1.0, 1, True),
    )
    t, y, steps, t_events, status, message = dop853.solve(
        vector_field, params, float(seed.t), (float(seed.phi), float(seed.psi)),
        float(seed.t + t_max), tol.rel_tol, tol.abs_tol, event_fns)
    if status == -1:
        if not np.all(np.isfinite(y)):
            raise NonFiniteState(f"non-finite state during integration: {message}")
        raise StepSizeUnderflow(message)
    if not np.all(np.isfinite(y)):
        raise NonFiniteState("integration produced non-finite samples")

    if status == 1 and t_events[2]:
        terminal = Terminal.CONVERGED_TO_P1
    elif status == 1:
        terminal = Terminal.LEFT_DOMAIN
    else:
        terminal = Terminal.MAX_TIME_REACHED

    kinds = ([EventKind.PSI_ZERO] * len(t_events[0])
             + [EventKind.PHI_EQUALS_PHI0] * len(t_events[1]))
    t_ev = t_events[0] + t_events[1]
    (phi, psi), _ = steps.read(t_ev)
    events = [Event(kind, te, PhasePoint(a, b, te))
              for kind, te, a, b in zip(kinds, t_ev, phi.tolist(), psi.tolist())]
    events.sort(key=lambda e: e.t)
    return Orbit(t=t, phi=y[0], psi=y[1], events=events, terminal=terminal,
                 params=params, tolerances=tol, steps=steps)


def radial_residual(rho, rho_r, rho_rr, r, spectrum):
    """Left side of the radial minimal-graph equation, rho_rr / (1 + rho_r^2)
    + sum_j m_j (rho_r/r - l2_j rho/r^2) / (1 + l2_j (rho/r)^2), for squared
    singular values l2_j with multiplicities m_j given as ``spectrum`` pairs
    (l2_j, m_j).  All arguments may be arrays that broadcast together."""
    q = rho / r
    out = rho_rr / (1.0 + rho_r * rho_r)
    for l2, m in spectrum:
        out = out + m * (rho_r / r - l2 * rho / (r * r)) / (1.0 + l2 * q * q)
    return out


def ode1_residual(rho, rho_r, rho_rr, r, params: LomseParams):
    """The radial equation of an (n, p, k) LOMSE: lambda^2 (p times), 0 (n-p times)."""
    spectrum = [(0.0, params.n - params.p), (params.lambda2_float, params.p)]
    return radial_residual(rho, rho_r, rho_rr, r, spectrum)


@dataclass(frozen=True)
class Profile:
    """A graph profile rho(r) recovered from a converged orbit.

    Below ``r_min`` (the seed radius) the profile continues by its leading
    power law rho ~ c r^k, matching value and slope at the seed because the
    seed lies on the linear eigendirection.
    """

    r_samples: np.ndarray
    rho: np.ndarray
    rho_r: np.ndarray
    residuals: np.ndarray
    r_min: float
    r_max: float
    small_r_slope: float
    params: LomseParams
    orbit: Orbit = field(repr=False)
    _c_ext: float = field(repr=False, default=0.0)

    def values_at(self, r) -> tuple[np.ndarray, ...]:
        """(rho, rho_r, rho_rr) at a 1-D array of radii, with one table pass
        for the states and their t-derivatives; all three are NaN at a NaN
        radius."""
        r = np.asarray(r, dtype=float)
        k, c, rr = self.params.k, self._c_ext, np.maximum(r, 0.0)
        vals = np.array([c * rr**k, c * k * rr ** (k - 1),
                         c * k * (k - 1) * rr ** (k - 2)])
        vals[:, r <= 0.0] = 0.0
        vals[:, np.isnan(r)] = np.nan  # NaN ** 0 is 1, so k = 2 would not carry it
        on = r >= self.r_min
        if np.any(on):
            t = np.log(np.minimum(r[on], self.r_max))
            (phi, psi), (_, psi_t) = self.orbit.read(t)
            vals[:, on] = r[on] * phi, phi + psi, (psi_t + psi) / r[on]
        return tuple(vals)


def _check_params(orbit: Orbit, params: LomseParams) -> None:
    """``ValueError`` unless ``params`` is the triple of ``orbit``."""
    if params != orbit.params:
        raise ValueError(f"params {params} differ from the orbit's {orbit.params}")


def extract_profile(orbit: Orbit, params: LomseParams) -> Profile:
    """Convert a converged orbit into the profile rho(r) = e^t phi(t).

    ``params`` must be the orbit's own triple (``ValueError`` otherwise).
    The residual of the radial equation is evaluated at every interior
    solver sample, with rho_rr taken from the differentiated dense output.
    That is no independent check: at a node the differentiated dense output
    equals the field to about 1e-12 at any tolerance (ROADMAP item 6).
    """
    _check_params(orbit, params)
    if orbit.terminal is not Terminal.CONVERGED_TO_P1:
        raise NotConverged(f"orbit terminal is {orbit.terminal.value}")

    t = orbit.t
    r = np.exp(t)
    rho = r * orbit.phi
    rho_r = orbit.phi + orbit.psi
    residuals = np.zeros_like(rho)
    if len(t) > 2:
        rho_rr = (orbit.read(t[1:-1])[1][1] + orbit.psi[1:-1]) / r[1:-1]
        residuals[1:-1] = ode1_residual(rho[1:-1], rho_r[1:-1], rho_rr, r[1:-1], params)

    # leading-order fit: while phi is still tiny the orbit is linear and
    # log rho vs log r has slope k
    linear = orbit.phi < max(1e-4, 100.0 * orbit.phi[0])
    linear[0] = True
    m = int(np.sum(linear))
    if m >= 3:
        slope = float(np.polyfit(t[:m], np.log(rho[:m]), 1)[0])
    else:
        slope = float(params.k)

    r_min = float(r[0])
    return Profile(
        r_samples=r,
        rho=rho,
        rho_r=rho_r,
        residuals=residuals,
        r_min=r_min,
        r_max=float(r[-1]),
        small_r_slope=slope,
        params=params,
        orbit=orbit,
        _c_ext=float(rho[0] / r_min**params.k),
    )


# ---------------------------------------------------------------------------
# barrier certificates


class CaseId(Enum):
    A3_CASE1 = "A3Case1"
    A3_CASE2 = "A3Case2"
    A3_CASE3 = "A3Case3"
    A3_CASE4 = "A3Case4"
    A4 = "A4"


@dataclass(frozen=True)
class Check:
    name: str
    value: object
    required_sign: str
    passed: bool


@dataclass(frozen=True)
class BarrierCertificate:
    case_id: CaseId
    c: Fraction | None
    checks: list[Check]
    grid_resolution: int
    passed: bool


_SIGNS = {">0": operator.gt, ">=0": operator.ge, "==0": operator.eq}


def _signed_check(name: str, value, required_sign: str) -> Check:
    passed = bool(_SIGNS[required_sign](value, 0))
    return Check(name=name, value=value, required_sign=required_sign, passed=passed)


def _a3_case(params: LomseParams) -> tuple[CaseId, Fraction]:
    n, p, k = params.n, params.p, params.k
    if (n, p, k) == (3, 2, 2):
        return CaseId.A3_CASE1, Fraction(1)
    if (n, p, k) == (5, 4, 2):
        return CaseId.A3_CASE2, Fraction(1)
    if (n, p, k) == (5, 4, 4):
        return CaseId.A3_CASE3, Fraction(6, 7)
    return CaseId.A3_CASE4, Fraction(1, 2)


# the points of the sampled barrier grids: A3's default and A4's grid
BARRIER_GRID = 2048


def _boundary_margins(
    params: LomseParams, curve, curve_prime, n_grid: int
) -> tuple[float, float]:
    """Mins over one grid in (0, phi0) of curve'(phi) - X2/X1 at (phi, curve(phi)),
    positive when the field points inward along the curve, and of X2(phi, 0),
    positive when the field crosses the phi-axis upward inside the region.
    The grid, ``curve``, ``curve_prime`` and the minima are arrays, and the
    ratio is taken on Python floats, but the field is still called twice per
    grid point, on scalars: perfbench counts field calls, and its self-test
    expects 2 * 64 of them for a 64-point certificate, until exact checks
    replace the sampling (ROADMAP items 1-2).  Raises ``ValueError`` for ``n_grid < 1``, a grid that
    samples nothing."""
    if n_grid < 1:
        raise ValueError(f"grid_resolution must be at least 1, got {n_grid}")
    phi = params.phi0 * np.arange(1, n_grid + 1) / (n_grid + 1)
    grid = phi.tolist()
    ratio = [x2 / x1 for x1, x2 in (vector_field(a, b, params)
                                    for a, b in zip(grid, curve(phi).tolist()))]
    edge = np.array([vector_field(a, 0.0, params)[1] for a in grid])
    return float(np.min(curve_prime(phi) - np.array(ratio))), float(np.min(edge))


def barrier_certificate_A3(
    params: LomseParams, grid_resolution: int = BARRIER_GRID
) -> BarrierCertificate:
    """Invariant-region certificate for the node (TypeI) cases.

    The region is bounded by psi = h(phi) = f1(phi) phi / (c (n-p)) over
    (0, phi0).  The decisive scalars F(0), G(0), G(lambda^2 phi0^2) are
    evaluated in exact rational arithmetic; the inward-pointing inequalities
    are additionally sampled on a dense grid of ``grid_resolution`` points,
    an integer of at least 1 (else ``ValueError``), as a redundant check.
    """
    grid_resolution = _integer(grid_resolution, "grid_resolution")
    if params.stability is not Stability.TYPE_I:
        raise WrongCase(f"{params} is TypeII; use barrier_certificate_A4")
    case_id, c = _a3_case(params)
    n, p = params.n, params.p
    lam2 = params.lambda2

    F0 = 1 + n - 2 * (lam2 * p - n) / (c * (lam2 - 1) * p) - c * (lam2 - 1) * n / lam2
    G0 = (
        (1 / c - 1) * p
        - 1 / c
        + (Fraction(4 - p) / c - p) * (n - p) / (lam2 * p - p)
        + ((c + 2) * n - c * p) / lam2
    )
    Gend = 1 / c + c * (n - p) / lam2 + 2 * (n - p) / (c * (lam2 - 1) * p)

    cnp = float(c) * (n - p)

    def h(phi):
        return f1(phi, params) * phi / cnp

    def h_prime(phi):
        return (_f1_prime(phi, params) * phi + f1(phi, params)) / cnp

    margin_b, margin_a = _boundary_margins(params, h, h_prime, grid_resolution)

    checks = [
        _signed_check("F(0)", F0, ">=0"),
        _signed_check("G(0)", G0, ">0"),
        _signed_check("G(lambda^2 phi0^2)", Gend, ">0"),
        _signed_check("inward margin on psi=h(phi)", margin_b, ">0"),
        _signed_check("X2 on psi=0 edge", margin_a, ">0"),
    ]
    return BarrierCertificate(
        case_id=case_id,
        c=c,
        checks=checks,
        grid_resolution=grid_resolution,
        passed=all(ch.passed for ch in checks),
    )


def _spiral_bound(s: Fraction) -> Fraction:
    """The rational bound F(s) of the spiral case, in exact arithmetic."""
    return Fraction(4, 25) * ((3 + 5 * s) / (1 + s)) ** 2 * (1 + 5 * s) / (1 + 10 * s)


def _spiral_gap(s: Fraction) -> Fraction:
    """F(s) - 32/27 in closed form: nonnegative for s > 0, zero only at 1/5."""
    return 4 * (5 * s - 1) ** 2 * (55 * s + 43) / (675 * (s + 1) ** 2 * (10 * s + 1))


# Times the common denominator 675 (s+1)^2 (10s+1), both sides of
# F(s) - 32/27 = _spiral_gap(s) are cubics, so agreement at 4 distinct
# points proves the identity; one more point is a margin.
_SPIRAL_POINTS = tuple(Fraction(v) for v in ("0", "1/5", "1", "2", "10"))


def _strip_quadratic(params: LomseParams) -> tuple[Fraction, Fraction, Fraction]:
    """Exact coefficients (a, b, c) of N(v) = a v^2 + b v + c, the quadratic of
    the no-limit-cycle lemma.  Let Y be X reflected in the phi-axis,
    Y2(phi, psi) = -X2(phi, -psi).  With v = phi^2 and D = 1 + lambda^2 v,
    Y2 + X2 = -2 psi [N(v)/D + f2 psi^2] exactly, where a = 3 lambda^2 (n-p),
    b = lambda^2 (1+n-3p) + 3n and c = 1+n.  D and f2 are positive, so N > 0
    on [v_th, oo) makes Y2 + X2 < 0 on the quarter strip phi >= sqrt(v_th),
    psi > 0."""
    n, p, lam2 = params.n, params.p, params.lambda2
    return 3 * lam2 * (n - p), lam2 * (1 + n - 3 * p) + 3 * n, Fraction(1 + n)


def barrier_certificate_A4(params: LomseParams) -> BarrierCertificate:
    """Invariant-region certificate for the spiral (TypeII) cases.

    Checks, in order: the exact value F(1/5) = 32/27 of the rational bound,
    the exact identity F(s) - 32/27 = 4(5s-1)^2(55s+43)/(675(s+1)^2(10s+1)),
    which makes 32/27 the minimum of F over s > 0, the inward inequality for
    the barrier g(phi) = (2 f1(phi) + 1/5) phi on (0, phi0) and the bottom
    edge, both sampled on one grid of ``BARRIER_GRID`` points, and the
    no-limit-cycle inequality Y2 + X2 < 0 over the quarter strip
    phi >= sqrt(v_th), psi > 0, v_th = (3p-n-1)/(3(n-p)), decided exactly by
    the minimum of the quadratic N of ``_strip_quadratic`` over v >= v_th.
    Raises ``WrongCase`` for a TypeI triple, and for a relaxed one with
    3p < n + 1, where that threshold is not real.
    """
    if params.stability is not Stability.TYPE_II:
        raise WrongCase(f"{params} is TypeI; use barrier_certificate_A3")
    if 3 * params.p < params.n + 1:
        raise WrongCase(f"{params}: the quarter strip needs 3p >= n + 1 for its "
                        f"threshold sqrt((3p-n-1)/(3(n-p))), got 3p = {3 * params.p}")

    F_exact = _spiral_bound(Fraction(1, 5))
    identity_dev = sum(abs(_spiral_bound(s) - Fraction(32, 27) - _spiral_gap(s))
                       for s in _SPIRAL_POINTS)

    def g(phi):
        return (2.0 * f1(phi, params) + 0.2) * phi

    def g_prime(phi):
        return 2.0 * _f1_prime(phi, params) * phi + 2.0 * f1(phi, params) + 0.2

    margin_b, margin_a = _boundary_margins(params, g, g_prime, BARRIER_GRID)

    # N opens upward (a > 0): its minimum on [v_th, oo) is at v_th or at its vertex
    a, b, c = _strip_quadratic(params)
    v = max(Fraction(3 * params.p - params.n - 1, 3 * (params.n - params.p)), -b / (2 * a))

    checks = [
        _signed_check("F(1/5) - 32/27 exact", F_exact - Fraction(32, 27), "==0"),
        _signed_check("F(s) - 32/27 - 4(5s-1)^2(55s+43)/(675(s+1)^2(10s+1)) exact",
                      identity_dev, "==0"),
        _signed_check("inward margin on psi=g(phi)", margin_b, ">0"),
        _signed_check("X2 on psi=0 edge", margin_a, ">0"),
        _signed_check("min N(v) on quarter strip v >= (3p-n-1)/(3(n-p)) exact",
                      (a * v + b) * v + c, ">0"),
    ]
    return BarrierCertificate(
        case_id=CaseId.A4,
        c=None,
        checks=checks,
        grid_resolution=BARRIER_GRID,
        passed=all(ch.passed for ch in checks),
    )
