"""Phase-plane dynamics of the radial minimal-graph equation.

The second-order profile equation for rho(r) is rewritten with
phi = rho/r, t = log r, psi = phi_t as the autonomous system

    phi_t = psi
    psi_t = -psi - (f2(phi) psi - f1(phi) phi) (1 + (phi+psi)^2)

whose equilibria are the origin and (+-phi0, 0).  This module integrates
orbits on the unstable manifold of the origin, records psi-zero and
phi0-crossing events, converts converged orbits back into graph profiles,
and certifies the invariant-region barriers for both stability types.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import dop853
from .errors import (
    InsufficientEvents,
    NonFiniteState,
    NotConverged,
    StepSizeUnderflow,
    WrongCase,
)
from .params import LomseParams, Stability
from .roots import brentq


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


def seed_unstable(params: LomseParams, epsilon: float = 1e-8) -> PhasePoint:
    """Point on the linear unstable eigendirection V1 = (1, k-1) at t = 0.

    The system is autonomous, so the t-translation gauge is fixed here once
    and for all; translation invariance of the orbit shape is a test property.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    return PhasePoint(phi=epsilon, psi=epsilon * (params.k - 1), t=0.0)


_EPS = float(np.finfo(float).eps)


class StepTable(NamedTuple):
    """The DOP853 dense output of an orbit's solver steps, stacked: per step,
    its start ``t_old``, its end ``t_new`` (past the orbit's last node when a
    terminal event cut the step short), the state ``y_old`` at its start,
    shape (N, 2), and the coefficients ``F``, shape (N, 7, 2).  On step i
    the state is y_old + x (F0 + (1 - x)(F1 + x (F2 + ...))) with
    x = (t - t_old) / h and h = t_new - t_old (Hairer-Norsett-Wanner I, II.6).
    ``_dop853`` builds ``F`` after the run, for all steps at once, except
    the steps it densified in its loop to locate an event root."""

    t_old: np.ndarray
    t_new: np.ndarray
    y_old: np.ndarray
    F: np.ndarray


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
    steps: StepTable = field(repr=False)

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
        """(phi, psi) and their t-derivatives at a time or an array of times,
        each of shape (2,) + t.shape, in one pass over the step table.  The
        segment rule is ``OdeSolution``'s for either direction of integration,
        and the values come from scipy's alternating x / (1 - x) Horner loop
        in its own order, so they equal ``interpolant(t)`` bit for bit; the
        product rule carries d/dx through the same loop (the step polynomial's
        derivative, not the field at the read state, which would make a
        residual vacuous)."""
        ts, s = self.t, self.steps
        t = np.asarray(t, dtype=float)
        way = 1.0 if ts[-1] >= ts[0] else -1.0
        seg = np.clip(np.searchsorted(way * ts, way * t, side="left") - 1, 0, len(ts) - 2)
        t_old = s.t_old[seg]
        h = (s.t_new[seg] - t_old)[..., None]
        x = (t - t_old)[..., None] / h
        coef = s.F[seg]
        y = np.zeros(t.shape + (2,))
        dy = np.zeros(t.shape + (2,))
        for i in range(7):
            y += coef[..., 6 - i, :]
            m, dm = (x, 1.0) if i % 2 == 0 else (1 - x, -1.0)
            dy = dy * m + dm * y
            y *= m
        y += s.y_old[seg]
        return np.moveaxis(y, -1, 0), np.moveaxis(dy / h, -1, 0)

    def events_of(self, kind: EventKind) -> list[Event]:
        return [e for e in self.events if e.kind is kind]


# DOP853 (Hairer-Norsett-Wanner, Solving ODEs I, II.5) as scipy runs it, with
# scipy's tableau and step-size control constants (``dop853``)
_EXPONENT = -1.0 / (dop853.ERROR_ESTIMATOR_ORDER + 1)
_STAGES = dop853.N_STAGES


def _fill_stages(plan, y0, y1, h, params):
    """K[s] = X(y + h K[:s]^T a) along a stage plan, whose entries are the view
    K[:s]^T, the tableau row a[:s] and the row K[s]; the field is autonomous,
    so the stage nodes c never enter.  The dot product is ``ndarray.dot``,
    the C product that scipy's ``np.dot`` calls, without ``np.dot``'s
    dispatcher, so its rounding is scipy's; the rest is the same IEEE
    arithmetic on Python floats."""
    for kt, a, row in plan:
        d0, d1 = kt.dot(a).tolist()
        row[0], row[1] = vector_field(y0 + d0 * h, y1 + d1 * h, params)


def _initial_step(t0, y, f, t_bound, direction, rtol, atol, params):
    """scipy's ``select_initial_step`` (Hairer-Norsett-Wanner II.4), in numpy."""
    y, f = np.array(y), np.array(f)
    interval = abs(t_bound - t0)
    scale = atol + np.abs(y) * rtol
    d0 = np.linalg.norm(y / scale) / 2 ** 0.5
    d1 = np.linalg.norm(f / scale) / 2 ** 0.5
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    y1 = (y + h0 * direction * f).tolist()
    f1 = np.array(vector_field(*y1, params))
    d2 = np.linalg.norm((f1 - f) / scale) / 2 ** 0.5 / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -_EXPONENT
    return float(min(100 * h0, h1, interval))


def _step_state(t_old, h, y_old, F):
    """The state at time t on one step, as a function of t: scipy's
    alternating x / (1 - x) Horner loop, with the same IEEE operations in the
    same order on Python floats, so the values are ``Dop853DenseOutput``'s."""
    rows = F.tolist()[::-1]
    o0, o1 = y_old

    def state(t):
        x = (t - t_old) / h
        y0 = y1 = 0.0
        for i, (f0, f1) in enumerate(rows):
            m = x if i % 2 == 0 else 1 - x
            y0 = (y0 + f0) * m
            y1 = (y1 + f1) * m
        return y0 + o0, y1 + o1

    return state


def _dense_output(K, h, y_old, y_new, params):
    """The dense-output coefficients F, shape (N, 7, 2), of N accepted steps
    at once, from their stages ``K``, shape (N, 13, 2) (the 12 stages and the
    field at the step's end), their sizes ``h`` and their start and end
    states, each (N, 2): scipy's 3 extra stages, one array field call each,
    then F = (dy, h f_old - dy, 2 dy - h (f_new + f_old), h D K).  Each stage
    state comes from a stacked ``np.matmul``, which gives each step the same
    product as scipy's ``np.dot``, and each element of an array field call is
    the scalar call's value, so row i is step i's ``Dop853DenseOutput.F``."""
    full = np.empty((len(h), _STAGES + 1 + len(dop853.A_EXTRA), 2))
    full[:, :_STAGES + 1] = K
    hc = h[:, None]
    for s, a in enumerate(dop853.A_EXTRA, start=_STAGES + 1):
        phi, psi = (y_old + np.matmul(full[:, :s].transpose(0, 2, 1), a[:s]) * hc).T
        full[:, s, 0], full[:, s, 1] = vector_field(phi, psi, params)
    dy = y_new - y_old
    f_old, f_new = full[:, 0], full[:, _STAGES]
    F = np.empty((len(h), 7, 2))
    F[:, 0] = dy
    F[:, 1] = hc * f_old - dy
    F[:, 2] = 2 * dy - hc * (f_new + f_old)
    F[:, 3:] = h[:, None, None] * np.matmul(dop853.D, full)
    return F


def _dop853(params, t0, y, t_bound, rtol, atol, events):
    """Integrate X from state ``y`` at ``t0`` towards ``t_bound``, step for
    step as ``solve_ivp(method="DOP853", dense_output=True)`` does.

    ``events`` holds ``(g(phi, psi), direction, terminal)`` triples; a sign
    change of g over a step is located by ``brentq`` on the step's dense
    output, and the first terminal root ends the run there.  The loop keeps
    each accepted step's stages and end state, and densifies a step at once
    only where an event is active, since ``brentq`` reads its polynomial;
    ``_dense_output`` then builds the other steps' coefficients in one
    batched pass after the run, so no step is densified twice.  Returns the
    times, the (2, N) states, the ``StepTable``, the event times per event,
    the status (0 reached t_bound, 1 terminal event, -1 failed) and a message.
    """
    if rtol < 100 * _EPS:
        warnings.warn("At least one element of `rtol` is too small. "
                      f"Setting `rtol = np.maximum(rtol, {100 * _EPS})`.",
                      stacklevel=3)
        rtol = 100 * _EPS
    if atol < 0:
        raise ValueError("`atol` must be positive.")
    direction = 1.0 if t_bound > t0 else -1.0
    K = np.empty((_STAGES + 1, 2))
    stages = [(K[:s].T, a[:s], K[s]) for s, a in enumerate(dop853.A[1:], start=1)]
    B, E3, E5 = dop853.B, dop853.E3, dop853.E5
    kt_b, kt_e = K[:_STAGES].T, K.T
    y0, y1 = y
    f = vector_field(y0, y1, params)
    h_abs = _initial_step(t0, y, f, t_bound, direction, rtol, atol, params)
    t = t0
    ts, ys = [t0], [(y0, y1)]
    # per accepted step: its ends, start and end states and stages, and its
    # coefficients F where an event made the loop densify it
    t_olds, t_news, y_olds, y_news, Ks, dense = [], [], [], [], [], {}
    g = [ev(y0, y1) for ev, _, _ in events]
    t_events = [[] for _ in events]
    status, message = None, None
    while status is None:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                status, message = -1, dop853.TOO_SMALL_STEP
                break
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            K[0] = f
            _fill_stages(stages, y0, y1, h, params)
            d0, d1 = kt_b.dot(B).tolist()
            n0, n1 = y0 + h * d0, y1 + h * d1
            f_new = vector_field(n0, n1, params)
            K[_STAGES] = f_new
            scale = np.array((atol + max(abs(y0), abs(n0)) * rtol,
                              atol + max(abs(y1), abs(n1)) * rtol))
            # np.linalg.norm of a real vector is sqrt(v.dot(v)), rounding included
            v5, v3 = kt_e.dot(E5) / scale, kt_e.dot(E3) / scale
            err5, err3 = math.sqrt(v5.dot(v5)) ** 2, math.sqrt(v3.dot(v3)) ** 2
            if err5 == 0 and err3 == 0:
                err = 0.0
            else:
                err = abs(h) * err5 / math.sqrt((err5 + 0.01 * err3) * 2)
            if err < 1:
                factor = (dop853.MAX_FACTOR if err == 0
                          else min(dop853.MAX_FACTOR, dop853.SAFETY * err ** _EXPONENT))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(dop853.MIN_FACTOR, dop853.SAFETY * err ** _EXPONENT)
            rejected = True
        if status == -1:
            break
        t_old, o0, o1 = t, y0, y1
        t, y0, y1, f = t_new, n0, n1, f_new
        if direction * (t - t_bound) >= 0:
            status = 0
        t_olds.append(t_old)
        t_news.append(t)
        y_olds.append((o0, o1))
        y_news.append((y0, y1))
        Ks.append(K.copy())
        # solve_ivp's event rule
        g_new = [ev(y0, y1) for ev, _, _ in events]
        active = [i for i, ((_, d, _), a, b) in enumerate(zip(events, g, g_new))
                  if (d >= 0 and a <= 0 <= b) or (d <= 0 and a >= 0 >= b)]
        t_end, y_end = t, (y0, y1)
        if active:
            F = dense[len(Ks) - 1] = _dense_output(
                K[None], np.array([h]), np.array([y_olds[-1]]), np.array([y_news[-1]]),
                params)[0]
            step = _step_state(t_old, h, (o0, o1), F)
            roots = [(brentq(lambda s, ev=events[i][0]: ev(*step(s)), t_old, t,
                             xtol=4 * _EPS, rtol=4 * _EPS), i) for i in active]
            if any(events[i][2] for _, i in roots):
                # in time order, up to and including the first terminal root
                roots.sort(key=lambda r: r[0] * direction)
                stop = next(j for j, (_, i) in enumerate(roots) if events[i][2])
                roots = roots[:stop + 1]
                status, t_end = 1, roots[-1][0]
                y_end = step(t_end)
            for te, i in roots:
                t_events[i].append(te)
        g = g_new
        if len(ts) > 1 and ts[-1] == t_end:
            for row in (t_olds, t_news, y_olds, y_news, Ks):
                row.pop()
            dense.pop(len(Ks), None)
        else:
            ts.append(t_end)
            ys.append(y_end)
    # the dense output of every step the loop did not densify, in one pass
    t_old, t_new, y_old = np.array(t_olds), np.array(t_news), np.array(y_olds)
    F = np.empty((len(Ks), 7, 2))
    rest = np.ones(len(Ks), dtype=bool)
    for i, F_i in dense.items():
        F[i], rest[i] = F_i, False
    if rest.any():
        F[rest] = _dense_output(np.array(Ks)[rest], (t_new - t_old)[rest], y_old[rest],
                                np.array(y_news)[rest], params)
    steps = StepTable(t_old, t_new, y_old, F)
    return np.array(ts), np.array(ys).T, steps, t_events, status, message


def integrate_orbit(
    params: LomseParams,
    seed: PhasePoint,
    t_max: float = 200.0,
    tolerances: Tolerances | None = None,
) -> Orbit:
    """Integrate the system forward from ``seed`` until convergence to
    (phi0, 0), domain exit, or t_max (backward when t_max < 0).

    Uses the 8th-order adaptive Dormand-Prince scheme DOP853 with dense
    output (``_dop853``).  Events (psi = 0 crossings, phi = phi0 crossings)
    are located by root-finding on the dense output of the step where an
    event function changes sign, which the step loop builds there and then;
    the other steps' dense output is built in one pass after the run.  The
    event points are read with ``Orbit.read``.  Convergence is declared when
    the state enters the ball of radius ``conv_radius`` around (phi0, 0):
    that equilibrium is a hyperbolic sink for every triple (tr B = -(n+1) < 0
    and det B = 2n(K-n)/K > 0 since K = k(k+n-1) > n), so entering the ball
    is the whole rule, for nodes and spirals alike.
    """
    tol = tolerances or Tolerances()
    if not (math.isfinite(seed.phi) and math.isfinite(seed.psi)
            and math.isfinite(seed.t)):
        raise NonFiniteState(f"seed is not finite: {seed}")
    if not (t_max > 0 or t_max < 0):
        raise ValueError(f"t_max must be nonzero, got {t_max}")
    phi0 = params.phi0
    cap_phi = max(5.0 * phi0, 1.0)
    cap_psi = max(5.0 * phi0, 10.0)
    conv = tol.conv_radius
    event_fns = (  # (g(phi, psi), direction, terminal)
        (lambda phi, psi: psi, 0, False),
        (lambda phi, psi: phi - phi0, 0, False),
        (lambda phi, psi: math.hypot(phi - phi0, psi) - conv, -1, True),
        (lambda phi, psi: max(abs(phi) / cap_phi, abs(psi) / cap_psi) - 1.0, 1, True),
    )
    t, y, steps, t_events, status, message = _dop853(
        params, float(seed.t), (float(seed.phi), float(seed.psi)),
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

    orbit = Orbit(t=t, phi=y[0], psi=y[1], events=[], terminal=terminal,
                  params=params, tolerances=tol, steps=steps)
    kinds = ([EventKind.PSI_ZERO] * len(t_events[0])
             + [EventKind.PHI_EQUALS_PHI0] * len(t_events[1]))
    t_ev = t_events[0] + t_events[1]
    (phi, psi), _ = orbit.read(t_ev)
    events = [Event(kind, te, PhasePoint(a, b, te))
              for kind, te, a, b in zip(kinds, t_ev, phi.tolist(), psi.tolist())]
    events.sort(key=lambda e: e.t)
    return replace(orbit, events=events)


def oscillation_record(orbit: Orbit) -> tuple[list[float], list[float]]:
    """Times T_i of the psi-zero crossings and the values phi(T_i).

    Only the numerically resolvable crossings are reported; their amplitudes
    decay geometrically, so the tail beyond event tolerance is extrapolated
    elsewhere, never enumerated.
    """
    evs = orbit.events_of(EventKind.PSI_ZERO)
    if len(evs) < 2:
        raise InsufficientEvents(
            f"need >= 2 psi-zero events, found {len(evs)} "
            f"(terminal={orbit.terminal.value})"
        )
    return [e.t for e in evs], [e.point.phi for e in evs]


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


def _signed_check(name: str, value, required_sign: str) -> Check:
    if required_sign == ">0":
        ok = value > 0
    elif required_sign == ">=0":
        ok = value >= 0
    elif required_sign == "<0":
        ok = value < 0
    elif required_sign == "==0":
        ok = value == 0
    else:
        raise ValueError(required_sign)
    return Check(name=name, value=value, required_sign=required_sign, passed=bool(ok))


def _a3_case(params: LomseParams) -> tuple[CaseId, Fraction]:
    n, p, k = params.n, params.p, params.k
    if (n, p, k) == (3, 2, 2):
        return CaseId.A3_CASE1, Fraction(1)
    if (n, p, k) == (5, 4, 2):
        return CaseId.A3_CASE2, Fraction(1)
    if (n, p, k) == (5, 4, 4):
        return CaseId.A3_CASE3, Fraction(6, 7)
    return CaseId.A3_CASE4, Fraction(1, 2)


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
    params: LomseParams, grid_resolution: int = 2048
) -> BarrierCertificate:
    """Invariant-region certificate for the node (TypeI) cases.

    The region is bounded by psi = h(phi) = f1(phi) phi / (c (n-p)) over
    (0, phi0).  The decisive scalars F(0), G(0), G(lambda^2 phi0^2) are
    evaluated in exact rational arithmetic; the inward-pointing inequalities
    are additionally sampled on a dense grid as a redundant check.
    """
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


def barrier_certificate_A4(
    params: LomseParams, grid_resolution: int = 2048
) -> BarrierCertificate:
    """Invariant-region certificate for the spiral (TypeII) cases.

    Checks, in order: the exact value F(1/5) = 32/27 of the rational bound,
    the exact identity F(s) - 32/27 = 4(5s-1)^2(55s+43)/(675(s+1)^2(10s+1)),
    which makes 32/27 the minimum of F over s > 0, the inward inequality for
    the barrier g(phi) = (2 f1(phi) + 1/5) phi on (0, phi0) and the bottom
    edge, both sampled on one grid of ``grid_resolution`` points, and the
    no-limit-cycle inequality Y2 + X2 < 0 over the quarter strip
    phi >= sqrt(v_th), psi > 0, v_th = (3p-n-1)/(3(n-p)), decided exactly by
    the minimum of the quadratic N of ``_strip_quadratic`` over v >= v_th.
    Raises ``WrongCase`` for a TypeI triple, and for a relaxed one with
    3p < n + 1, where that threshold is not real; ``ValueError`` for
    ``grid_resolution < 1``.
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

    margin_b, margin_a = _boundary_margins(params, g, g_prime, grid_resolution)

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
        grid_resolution=grid_resolution,
        passed=all(ch.passed for ch in checks),
    )
