"""Vector field, orbit integration, event records and profile extraction."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import solve_ivp

import loclab as L
from loclab import dynamics
from loclab.dynamics import Event, EventKind, Orbit, StepTable, Terminal, Tolerances
from conftest import SWEEP, TIGHT, step_table

FINITE = st.floats(-3.0, 3.0, allow_nan=False)


def test_f1_f2_examples(p322):
    assert L.f1(0.0, p322) == 5.0
    assert L.f2(0.0, p322) == 3.0
    assert abs(L.f1(p322.phi0, p322)) < 1e-14


def test_vector_field_examples(p322):
    assert L.vector_field(0.0, 0.0, p322) == (0.0, 0.0)
    x1, x2 = L.vector_field(p322.phi0, 0.0, p322)
    assert x1 == 0.0 and abs(x2) < 1e-14
    assert L.vector_field(0.5, 0.0, p322) == (0.0, 1.25)


@pytest.mark.parametrize("triple", SWEEP)
def test_vector_field_is_f1_f2_bit_for_bit(triple):
    # vector_field writes f1 and f2 inline around one denominator; it must
    # stay the composition of the two, on scalars and on arrays alike
    p = L.validate_params(*triple)
    rng = np.random.default_rng(sum(triple))
    phi, psi = rng.uniform(-3.0, 3.0, (2, 400))
    s = phi + psi
    x1, x2 = L.vector_field(phi, psi, p)
    assert np.array_equal(x1, psi)
    assert np.array_equal(x2, -psi - (L.f2(phi, p) * psi - L.f1(phi, p) * phi) * (1.0 + s * s))
    for a, b in zip(phi[:50].tolist(), psi[:50].tolist()):
        assert L.vector_field(a, b, p) == (
            b, -b - (L.f2(a, p) * b - L.f1(a, p) * a) * (1.0 + (a + b) * (a + b)))


# The field and its parts as written with the ints n, p and float(lambda^2),
# each in its own operation order: an independent reference for the rounding
# of loclab's, which reads its per-triple floats from ``field_constants``.
def _f1_prime_formula(phi, p, lam2):
    denom = 1.0 + lam2 * phi * phi
    return -(lam2 - 1.0) * p * 2.0 * lam2 * phi / (denom * denom)


_FORMULAS = {
    "f1": lambda phi, n, p, lam2: (lam2 - 1.0) * p / (1.0 + lam2 * phi * phi) - (n - p),
    "f2": lambda phi, n, p, lam2: n - p + p / (1.0 + lam2 * phi * phi),
    "_f1_prime": lambda phi, n, p, lam2: _f1_prime_formula(phi, p, lam2),
}


def _field_formula(phi, psi, n, p, lam2):
    d = 1.0 + lam2 * phi * phi
    f2_ = n - p + p / d
    f1_ = (lam2 - 1.0) * p / d - (n - p)
    s = phi + psi
    return psi, -psi - (f2_ * psi - f1_ * phi) * (1.0 + s * s)


def _bits(x):
    """Type and exact bits of a scalar, or of each element of an array."""
    if isinstance(x, np.ndarray):
        return x.dtype, x.shape, [v.hex() for v in x.ravel().tolist()]
    return type(x), float(x).hex()


_FORMULA_CASES = [
    *(pytest.param(t, False, id=f"{t}") for t in SWEEP),
    *(pytest.param((n, p, k), True, id=f"relaxed-{(n, p, k)}")
      for n in range(2, 12) for p in range(1, n) for k in range(2, 9)),
]


@pytest.mark.parametrize("triple, relaxed", _FORMULA_CASES)
def test_vector_field_matches_its_formula(triple, relaxed):
    # bit for bit, on scalars (ints and negative states included) and on one
    # array call; vector_field, f1, f2 and _f1_prime alike
    p = L.validate_params(*triple, relaxed=relaxed)
    n, pp, lam2 = p.n, p.p, float(p.lambda2)
    rng = np.random.default_rng(sum(triple))
    phis = [0, 1, -2, 3, p.phi0, -p.phi0, 0.5 * p.phi0, 1e-8, -1e-8, -0.75,
            *rng.uniform(-3.0, 3.0, 6).tolist()]
    psis = [0, -1, 2, 0.0, 0.3, -1e-9, *rng.uniform(-4.0, 4.0, 3).tolist()]
    for a in phis:
        for b in psis:
            got = L.vector_field(a, b, p)
            ref = _field_formula(a, b, n, pp, lam2)
            assert [_bits(x) for x in got] == [_bits(x) for x in ref], (a, b)
        for name, formula in _FORMULAS.items():
            got = getattr(dynamics, name)(a, p)
            assert _bits(got) == _bits(formula(a, n, pp, lam2)), (name, a)
    phi, psi = rng.uniform(-3.0, 3.0, (2, 200))
    phi[:3] = 0.0, p.phi0, -p.phi0
    got, ref = L.vector_field(phi, psi, p), _field_formula(phi, psi, n, pp, lam2)
    assert [_bits(x) for x in got] == [_bits(x) for x in ref]
    for name, formula in _FORMULAS.items():
        assert _bits(getattr(dynamics, name)(phi, p)) == _bits(formula(phi, n, pp, lam2))


@given(phi=FINITE, psi=FINITE)
def test_antisymmetry_exact(phi, psi):
    p = L.validate_params(3, 2, 4)
    x1, x2 = L.vector_field(phi, psi, p)
    y1, y2 = L.vector_field(-phi, -psi, p)
    assert y1 == -x1 and y2 == -x2


def test_equilibria_isolated(p324):
    phi0 = p324.phi0
    eq = [(0.0, 0.0), (phi0, 0.0), (-phi0, 0.0)]
    for phi in np.linspace(-2 * phi0, 2 * phi0, 61):
        for psi in np.linspace(-1.5, 1.5, 41):
            if min(math.hypot(phi - a, psi - b) for a, b in eq) < 0.05:
                continue
            x1, x2 = L.vector_field(float(phi), float(psi), p324)
            assert math.hypot(x1, x2) > 1e-4


def test_f2_positive_everywhere():
    for npk in SWEEP:
        p = L.validate_params(*npk)
        for phi in np.linspace(-5, 5, 101):
            assert L.f2(float(phi), p) > 0.0


def _fd_jacobian(point, params, h=1e-6):
    jac = np.empty((2, 2))
    for j, dv in enumerate(((h, 0.0), (0.0, h))):
        plus = L.vector_field(point[0] + dv[0], point[1] + dv[1], params)
        minus = L.vector_field(point[0] - dv[0], point[1] - dv[1], params)
        jac[:, j] = (np.array(plus) - np.array(minus)) / (2 * h)
    return jac


def test_linearization_matches_spectra():
    for npk in SWEEP:
        p = L.validate_params(*npk)
        s = L.spectra(p)
        assert np.max(np.abs(_fd_jacobian((0.0, 0.0), p) - s.A)) < 1e-6
        assert np.max(np.abs(_fd_jacobian((p.phi0, 0.0), p) - s.B)) < 1e-6


def test_seed_unstable(p322, p324):
    s = L.seed_unstable(p322, 1e-8)
    assert (s.phi, s.psi, s.t) == (1e-8, 1e-8, 0.0)
    s = L.seed_unstable(p324, 1e-8)
    assert s.phi == 1e-8 and s.psi == pytest.approx(3e-8, rel=1e-15)
    with pytest.raises(ValueError):
        L.seed_unstable(p322, -1.0)


def test_backward_decay_slope(orbit_324_backward, p324):
    # integrating backward from the seed, phi decays like e^{(k-1)t}
    orbit = orbit_324_backward
    mask = orbit.phi > 1e-12  # below the absolute tolerance the tail is noise
    slope = np.polyfit(orbit.t[mask], np.log(orbit.phi[mask]), 1)[0]
    assert abs(slope - (p324.k - 1)) < 1e-3


def test_type1_orbit_monotone(orbit_322):
    assert orbit_322.terminal is Terminal.CONVERGED_TO_P1
    assert len(orbit_322.events_of(EventKind.PSI_ZERO)) == 0
    assert np.all(np.diff(orbit_322.phi) > 0)
    assert np.all(orbit_322.psi[:-1] > 0)
    assert np.all(np.diff(orbit_322.t) > 0)


def test_type1_limit(orbit_322, p322):
    end_phi, end_psi = orbit_322.read(orbit_322.t[-1])[0]
    assert math.hypot(end_phi - p322.phi0, end_psi) < 2e-9
    assert math.isclose(end_phi, math.sqrt(5) / 2, abs_tol=1e-8)


def test_type2_orbit_events(orbit_324, p324):
    assert orbit_324.terminal is Terminal.CONVERGED_TO_P1
    evs = orbit_324.events_of(EventKind.PSI_ZERO)
    assert len(evs) >= 4
    # psi-zero events really sit on psi = 0
    for e in evs:
        assert abs(e.point.psi) < 1e-12
    # alternating psi sign between events
    mid_psi = orbit_324.read([0.5 * (e0.t + e1.t) for e0, e1 in zip(evs, evs[1:])])[0][1]
    assert np.all(mid_psi != 0.0)
    signs = np.sign(mid_psi)
    assert all(a == -b for a, b in zip(signs, signs[1:]))
    # graph slope rho_r = phi + psi stays positive
    assert np.all(orbit_324.phi + orbit_324.psi > 0)


def test_oscillation_record(orbit_324, orbit_322, orbit_546, p324):
    T, phiT = L.oscillation_record(orbit_324)
    assert all(a < b for a, b in zip(T, T[1:]))
    phi0 = p324.phi0
    odd, even = phiT[0::2], phiT[1::2]
    assert all(v > phi0 for v in odd)
    assert all(v < phi0 for v in even)
    assert all(a > b for a, b in zip(odd, odd[1:]))
    assert all(a < b for a, b in zip(even, even[1:]))

    with pytest.raises(L.InsufficientEvents):
        L.oscillation_record(orbit_322)
    # the second oscillation of (5,4,6) has amplitude ~1e-21, far below
    # double precision: only one psi-zero is resolvable, reported honestly
    with pytest.raises(L.InsufficientEvents):
        L.oscillation_record(orbit_546)


def test_event_amplitude_decay_geometric(orbit_324, p324):
    _, phiT = L.oscillation_record(orbit_324)
    amps = np.abs(np.array(phiT) - p324.phi0)
    ratios = amps[1:] / amps[:-1]
    assert np.all(ratios < 0.05)
    assert ratios.std() / ratios.mean() < 0.1


def test_lemma_event_triples(orbit_324, orbit_546):
    # for consecutive psi-zero triples starting above the threshold slope,
    # the middle value exceeds phi0 and the outer pair is ordered below it
    for orbit in (orbit_324, orbit_546):
        p = orbit.params
        thr = math.sqrt((3 * p.p - p.n - 1) / (3 * (p.n - p.p)))
        evs = orbit.events_of(EventKind.PSI_ZERO)
        for e0, e1, e2 in zip(evs, evs[1:], evs[2:]):
            if e0.point.phi < thr or e0.point.phi >= p.phi0:
                continue
            assert e1.point.phi > p.phi0
            assert e0.point.phi < e2.point.phi < p.phi0


def test_translation_invariance(p322):
    # autonomy: shifting the seed time shifts the orbit rigidly
    a = L.integrate_orbit(p322, L.PhasePoint(1e-8, 1e-8, 0.0))
    b = L.integrate_orbit(p322, L.PhasePoint(1e-8, 1e-8, 5.0))
    t = np.linspace(1.0, 20.0, 15)
    assert np.max(np.abs(a.read(t)[0] - b.read(t + 5.0)[0])) < 1e-9


@pytest.mark.parametrize("npk, relaxed, tol", [
    *(pytest.param(npk, True, Tolerances(), id=f"relaxed-{npk}")
      for npk in ((3, 2, 5), (3, 1, 5), (4, 1, 4), (4, 2, 4))),
    pytest.param((3, 2, 6), False, Tolerances(abs_tol=1e-13, rel_tol=1e-13, conv_radius=1e-12),
                 id="(3, 2, 6)-tight-ball-1e-12"),
    pytest.param((5, 4, 6), False, Tolerances(abs_tol=1e-6, rel_tol=1e-6),
                 id="(5, 4, 6)-rtol-1e-6"),
])
def test_spiral_entering_the_ball_converges(npk, relaxed, tol):
    # the Euclidean distance to (phi0, 0) is not monotone along a spiral, so
    # entering the ball is the whole rule: (phi0, 0) is a sink for every triple
    p = L.validate_params(*npk, relaxed=relaxed)
    assert p.stability is L.Stability.TYPE_II
    orbit = L.integrate_orbit(p, L.seed_unstable(p), tolerances=tol)
    assert orbit.terminal is Terminal.CONVERGED_TO_P1
    assert orbit.t[-1] < 200.0
    end_phi, end_psi = orbit.read(orbit.t[-1])[0]
    assert math.hypot(end_phi - p.phi0, end_psi) == pytest.approx(tol.conv_radius, rel=1e-6)
    assert L.extract_profile(orbit, p).r_max == pytest.approx(math.exp(orbit.t[-1]))


def test_integrator_tolerance_consistency(p322):
    seed = L.seed_unstable(p322, 1e-8)
    loose = L.integrate_orbit(p322, seed, tolerances=Tolerances())
    tight = L.integrate_orbit(p322, seed, tolerances=TIGHT)
    assert abs(loose.phi[-1] - tight.phi[-1]) < 1e-8


def test_max_time_reached(p322):
    orbit = L.integrate_orbit(p322, L.seed_unstable(p322, 1e-8), t_max=3.0)
    assert orbit.terminal is Terminal.MAX_TIME_REACHED
    with pytest.raises(L.NotConverged):
        L.extract_profile(orbit, p322)


def test_extract_profile_refuses_a_triple_other_than_the_orbits(orbit_324, p322):
    with pytest.raises(ValueError, match=r"\(3,2,2\).*\(3,2,4\)"):
        L.extract_profile(orbit_324, p322)


def test_leave_domain(p322):
    # the cubic damping confines every forward orbit, so exercise the
    # domain guard on a backward run, which blows up off the slow manifold
    orbit = L.integrate_orbit(p322, L.PhasePoint(0.5, 0.5, 0.0), t_max=-10.0)
    assert orbit.terminal is Terminal.LEFT_DOMAIN


def test_profile_extraction(profile_322, p322):
    prof = profile_322
    assert np.all(prof.rho[prof.r_samples > 0] > 0)
    assert np.all(prof.rho / prof.r_samples <= p322.phi0 * (1 + 1e-9))
    assert np.max(np.abs(prof.residuals)) < 1e-8
    assert abs(prof.small_r_slope - p322.k) / p322.k < 0.05
    # tangent cone at infinity: rho/r -> phi0 = sqrt(5)/2
    assert math.isclose(
        prof.values_at([prof.r_max])[0][0] / prof.r_max, math.sqrt(5) / 2, abs_tol=1e-8
    )


def test_profile_interior_residual(orbit_322, p322, profile_322):
    # residual at off-node points exercises the interpolant genuinely
    t = 0.5 * (orbit_322.t[:-1] + orbit_322.t[1:])
    r = np.exp(t)
    (phi, psi), (_, psi_t) = orbit_322.read(t)
    res = L.ode1_residual(r * phi, phi + psi, (psi_t + psi) / r, r, p322)
    assert np.max(np.abs(res)) < 1e-8


def test_profile_power_law_extension(profile_322, p322):
    # value and slope are continuous across the seed radius
    r0 = profile_322.r_min
    rho_below, rho_r0 = profile_322.values_at([r0 * 0.999999, r0])[0]
    assert math.isclose(rho_below / rho_r0, 1.0, rel_tol=1e-4)
    below = profile_322.values_at([r0 * 0.5])[1][0]
    assert below == pytest.approx(
        profile_322._c_ext * p322.k * (r0 * 0.5) ** (p322.k - 1)
    )


@pytest.mark.parametrize("name", ["profile_322", "profile_324"])
def test_profile_values_at_nan_are_nan(name, request):
    # at k = 2, rho_rr below r_min is c k (k-1) r^0, and NaN ** 0 is 1
    prof = request.getfixturevalue(name)
    values = prof.values_at([math.nan, prof.r_min, math.nan])
    for v in values:
        assert np.isnan(v[0]) and np.isfinite(v[1]) and np.isnan(v[2])


def test_nonfinite_and_validation(p322):
    with pytest.raises(L.LoclabError):
        L.integrate_orbit(
            p322, L.PhasePoint(float("nan"), 0.0, 0.0), t_max=1.0
        )


# -- the DOP853 step loop against scipy's solve_ivp -----------------------------


def _solve_ivp_orbit(params, seed, t_max=200.0, tol=Tolerances()):
    """The reference: ``integrate_orbit`` as ``solve_ivp(method="DOP853")``
    with the same four events, the field read through ``dynamics.vector_field``
    at call time.  Returns the orbit and the number of field evaluations."""
    phi0 = params.phi0
    cap_phi, cap_psi = max(5.0 * phi0, 1.0), max(5.0 * phi0, 10.0)

    def rhs(t, y):
        phi, psi = y.tolist()
        return dynamics.vector_field(phi, psi, params)

    def ev_converged(t, y):
        return math.hypot(y[0] - phi0, y[1]) - tol.conv_radius

    def ev_leave(t, y):
        return max(abs(y[0]) / cap_phi, abs(y[1]) / cap_psi) - 1.0

    ev_converged.terminal, ev_converged.direction = True, -1
    ev_leave.terminal, ev_leave.direction = True, 1
    sol = solve_ivp(rhs, (seed.t, seed.t + t_max), [seed.phi, seed.psi],
                    method="DOP853", dense_output=True, rtol=tol.rel_tol,
                    atol=tol.abs_tol, events=[lambda t, y: y[1], lambda t, y: y[0] - phi0,
                                              ev_converged, ev_leave])
    if not sol.success:
        if not np.all(np.isfinite(sol.y)):
            raise L.NonFiniteState(f"non-finite state during integration: {sol.message}")
        raise L.StepSizeUnderflow(sol.message)
    events = []
    for kind, t_ev in ((EventKind.PSI_ZERO, sol.t_events[0]),
                       (EventKind.PHI_EQUALS_PHI0, sol.t_events[1])):
        for te in t_ev:
            y = sol.sol(te)
            point = L.PhasePoint(float(y[0]), float(y[1]), float(te))
            events.append(Event(kind, float(te), point))
    events.sort(key=lambda e: e.t)
    if sol.status == 1 and len(sol.t_events[2]) > 0:
        terminal = Terminal.CONVERGED_TO_P1  # (phi0, 0) is a sink: entering the ball converges
    elif sol.status == 1:
        terminal = Terminal.LEFT_DOMAIN
    else:
        terminal = Terminal.MAX_TIME_REACHED
    orbit = Orbit(t=sol.t, phi=sol.y[0], psi=sol.y[1], events=events, terminal=terminal,
                  params=params, tolerances=tol, steps=step_table(sol.sol))
    return orbit, sol.nfev


_P322, _P324 = L.validate_params(3, 2, 2), L.validate_params(3, 2, 4)
_LOOP_CASES = [
    *((npk, L.seed_unstable(L.validate_params(*npk)), 200.0, tol)
      for npk in SWEEP for tol in (Tolerances(), TIGHT)),
    ((3, 2, 4), L.PhasePoint(1e-8, 3e-8, 0.0), -5.0, Tolerances(abs_tol=1e-16, rel_tol=1e-12)),
    ((3, 2, 2), L.seed_unstable(_P322), 3.0, Tolerances()),
    ((3, 2, 2), L.PhasePoint(0.5, 0.5, 0.0), -10.0, Tolerances()),
    ((3, 2, 2), L.PhasePoint(1e-8, 1e-8, 5.0), 200.0, Tolerances()),
]
_LOOP_IDS = [*(f"{n}{p}{k}-{name}" for n, p, k in SWEEP for name in ("default", "tight")),
               "backward", "t_max=3", "left-domain", "shifted-seed"]


def _assert_same_orbit(orbit, ref):
    for name in ("t", "phi", "psi"):
        assert np.array_equal(getattr(orbit, name), getattr(ref, name)), name
    assert orbit.events == ref.events
    assert orbit.terminal is ref.terminal
    grid = np.linspace(ref.t.min(), ref.t.max(), 1001)
    for ts in (ref.t, grid, 0.5 * (ref.t[1:] + ref.t[:-1])):
        assert np.array_equal(orbit.interpolant(ts), ref.interpolant(ts))
    assert np.array_equal([s.F for s in orbit.interpolant.interpolants],
                          [s.F for s in ref.interpolant.interpolants])
    assert all(np.array_equal(a, b) for a, b in zip(orbit.steps, ref.steps))


@pytest.mark.parametrize("npk, seed, t_max, tol", _LOOP_CASES, ids=_LOOP_IDS)
def test_dop853_matches_solve_ivp(npk, seed, t_max, tol, monkeypatch):
    # the field is evaluated at solve_ivp's points, no more: the dense output
    # of most steps is one array call per extra stage, so count points, not calls
    p = L.validate_params(*npk)
    ref, nfev = _solve_ivp_orbit(p, seed, t_max, tol)
    points = []
    field = dynamics.vector_field

    def counted(phi, psi, params):
        points.append(np.size(phi))
        return field(phi, psi, params)

    monkeypatch.setattr(dynamics, "vector_field", counted)
    orbit = L.integrate_orbit(p, seed, t_max, tol)
    _assert_same_orbit(orbit, ref)
    assert sum(points) == nfev


def test_dop853_matches_solve_ivp_at_the_rtol_floor():
    # scipy raises rtol to 100 eps with a warning; _dop853 does the same
    tol = Tolerances(abs_tol=1e-10, rel_tol=1e-20)
    seed = L.seed_unstable(_P324)
    with pytest.warns(UserWarning, match="rtol") as ref_warned:
        ref, _ = _solve_ivp_orbit(_P324, seed, 200.0, tol)
    with pytest.warns(UserWarning, match="rtol") as warned:
        orbit = L.integrate_orbit(_P324, seed, 200.0, tol)
    assert [str(w.message) for w in warned] == [str(w.message) for w in ref_warned]
    _assert_same_orbit(orbit, ref)


def test_dop853_fails_as_solve_ivp_on_a_nan_field(monkeypatch):
    field = dynamics.vector_field

    def poisoned(phi, psi, params):
        # elementwise, since the dense output calls the field on arrays
        x1, x2 = field(phi, psi, params)
        return x1, np.where(np.greater(phi, 0.5), math.nan, x2)

    monkeypatch.setattr(dynamics, "vector_field", poisoned)
    seed = L.seed_unstable(_P322)
    with pytest.raises(L.LoclabError) as ref:
        _solve_ivp_orbit(_P322, seed)
    with pytest.raises(L.LoclabError) as got:
        L.integrate_orbit(_P322, seed)
    assert type(got.value) is type(ref.value)
    assert str(got.value) == str(ref.value)


@pytest.mark.parametrize("t_max", [0.0, math.nan])
def test_integrate_orbit_rejects_degenerate_t_max(t_max):
    with pytest.raises(ValueError, match="t_max"):
        L.integrate_orbit(_P322, L.seed_unstable(_P322), t_max=t_max)


def _dop853_and_reference(params, y0, t_max, tol, event_fns):
    """``dynamics._dop853`` and ``solve_ivp`` on the same events, given as
    (g(phi, psi), direction, terminal) triples."""
    got = dynamics._dop853(params, 0.0, y0, t_max, tol.rel_tol, tol.abs_tol, event_fns)
    wrapped = []
    for g, direction, terminal in event_fns:
        def ev(t, y, g=g):
            return g(*y)
        ev.direction, ev.terminal = direction, terminal
        wrapped.append(ev)
    ref = solve_ivp(lambda t, y: dynamics.vector_field(*y.tolist(), params),
                    (0.0, t_max), list(y0), method="DOP853", dense_output=True,
                    rtol=tol.rel_tol, atol=tol.abs_tol, events=wrapped)
    t, y, steps, t_events, status, _ = got
    assert np.array_equal(t, ref.t) and np.array_equal(y, ref.y)
    assert all(np.array_equal(a, b) for a, b in zip(steps, step_table(ref.sol)))
    assert [list(te) for te in ref.t_events] == t_events
    assert status == ref.status
    return got


@pytest.mark.parametrize("tol", [Tolerances(), TIGHT], ids=["default", "tight"])
def test_dop853_step_table_does_not_depend_on_events(tol, monkeypatch):
    # the psi-zero and phi0 events make the loop densify their steps one by
    # one, and the pass after the run densifies the rest: the table is the
    # one of a run with no events, and each step is densified exactly once
    phi0 = _P324.phi0
    events = ((lambda phi, psi: psi, 0, False), (lambda phi, psi: phi - phi0, 0, False))
    y0 = (1e-8, 3e-8)
    dense, densified = dynamics._dense_output, []

    def counted(K, h, y_old, y_new, params):
        densified.append(len(h))
        return dense(K, h, y_old, y_new, params)

    monkeypatch.setattr(dynamics, "_dense_output", counted)
    t, _, steps, t_events, status, _ = dynamics._dop853(
        _P324, 0.0, y0, 200.0, tol.rel_tol, tol.abs_tol, events)
    assert status == 0 and len(t_events[0]) >= 2 and len(t_events[1]) >= 2
    assert len(densified) > 2 and sum(densified) == len(t) - 1
    densified.clear()
    free = dynamics._dop853(_P324, 0.0, y0, 200.0, tol.rel_tol, tol.abs_tol, ())
    assert densified == [len(t) - 1]
    assert np.array_equal(free[0], t)
    assert all(np.array_equal(a, b) for a, b in zip(steps, free[2]))


def test_interpolant_steps_end_at_the_stored_step_ends(p322):
    # -0.1 + (0.3 - -0.1) is 0.30000000000000004: a step rebuilt as t_old + h
    # would end past its stored end, and its h would not be the solver's
    t_old, t_new = -0.1, 0.3
    assert t_old + (t_new - t_old) != t_new
    steps = StepTable(np.array([t_old]), np.array([t_new]), np.array([[0.5, 0.0]]),
                      np.arange(14.0).reshape(1, 7, 2) / 7)
    orbit = Orbit(t=np.array([t_old, t_new]), phi=np.array([0.5, 0.7]),
                  psi=np.zeros(2), events=[], terminal=Terminal.MAX_TIME_REACHED,
                  params=p322, tolerances=Tolerances(), steps=steps)
    (step,) = orbit.interpolant.interpolants
    assert (step.t_old, step.t, step.h) == (t_old, t_new, t_new - t_old)
    grid = np.linspace(t_old, t_new, 9)
    assert np.array_equal(orbit.read(grid)[0], orbit.interpolant(grid))


def test_dop853_drops_the_step_whose_terminal_root_is_its_start():
    # g = -(phi - phi(t1))^2 touches zero at the first node from below, so the
    # root is found only in the second step, at its start: that step is dropped
    tol = Tolerances()
    y0 = (1e-8, 1e-8)
    free = dynamics._dop853(_P322, 0.0, y0, 200.0, tol.rel_tol, tol.abs_tol, ())
    phi1 = free[1][0, 1]
    t, *_ = _dop853_and_reference(_P322, y0, 200.0, tol,
                                  ((lambda phi, psi: -(phi - phi1) ** 2, -1, True),))
    assert np.array_equal(t, free[0][:2])


def test_dop853_ends_a_backward_run_at_the_latest_terminal_root():
    # two terminal events inside the first backward step: the one met first
    # going backward (the larger t) ends the run
    tol = Tolerances(abs_tol=1e-16, rel_tol=1e-12)
    y0 = (1e-8, 3e-8)
    free = dynamics._dop853(_P324, 0.0, y0, -5.0, tol.rel_tol, tol.abs_tol, ())
    a, b = free[1][0, :2]
    near, far = a + 0.25 * (b - a), a + 0.75 * (b - a)
    t, _, _, t_events, status, _ = _dop853_and_reference(
        _P324, y0, -5.0, tol, ((lambda phi, psi: phi - far, 0, True),
                               (lambda phi, psi: phi - near, 0, True)))
    assert status == 1 and t_events[0] == [] and len(t_events[1]) == 1
    assert free[0][1] < t[-1] < 0.0
