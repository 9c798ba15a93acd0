"""Dirichlet multiplicity, the epsilon window and the density verdict."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import OdeSolution
from scipy.integrate._ivp.rk import Dop853DenseOutput
from scipy.optimize import brentq

import loclab as L
from loclab.dirichlet import MultiplicityKind, _find_crossings
from loclab.dynamics import Orbit, Terminal

from conftest import SWEEP, TIGHT, step_table


def test_type1_unique_solution(orbit_322, p322):
    rep = L.dirichlet_multiplicity(orbit_322, p322, p322.phi0 / 2)
    assert rep.multiplicity.kind is MultiplicityKind.FINITE
    assert rep.multiplicity.count == 1
    assert len(rep.d_values) == 1
    assert not rep.cone_solution


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_nonfinite_boundary_rejected(orbit_322, p322, value):
    with pytest.raises(ValueError, match="finite"):
        L.dirichlet_multiplicity(orbit_322, p322, value)


@pytest.mark.parametrize("triple", [(3, 2, 2), (3, 2, 4)])
def test_a_level_below_the_seed_is_refused(triple):
    # the crossing of a level under the seed's phi lies in the power-law piece
    # below r_min, which the orbit does not cover
    p = L.validate_params(*triple)
    orbit = L.integrate_orbit(p, L.seed_unstable(p, 1e-8))
    seed_phi = float(orbit.phi[0])
    for level in (5e-9, math.nextafter(seed_phi, 0.0)):
        with pytest.raises(L.DomainTooShort, match="seed-epsilon"):
            L.dirichlet_multiplicity(orbit, p, level)
    # on and above the edge, and at 0, the counts stay as they were
    at_seed = L.dirichlet_multiplicity(orbit, p, seed_phi)
    assert str(at_seed.multiplicity) == "Finite(1)" and at_seed.crossing_ts == [0.0]
    assert str(L.dirichlet_multiplicity(orbit, p, 2e-8).multiplicity) == "Finite(1)"
    assert str(L.dirichlet_multiplicity(orbit, p, 0.0).multiplicity) == "Finite(0)"


def test_type1_above_max(orbit_322, p322):
    rep = L.dirichlet_multiplicity(orbit_322, p322, p322.phi0 * 2)
    assert rep.multiplicity.kind is MultiplicityKind.ZERO
    assert rep.d_values == []


def test_type2_at_phi0(orbit_324, p324):
    rep = L.dirichlet_multiplicity(orbit_324, p324, p324.phi0)
    assert rep.multiplicity.kind is MultiplicityKind.UNBOUNDED_SEQUENCE
    assert len(rep.d_values) >= 3
    assert rep.cone_solution
    assert rep.decay_rate is not None and 0 < rep.decay_rate < 0.05
    # d_i = e^{t_i}
    for t, d in zip(rep.crossing_ts, rep.d_values):
        assert math.isclose(d, math.exp(t), rel_tol=1e-15)


def test_type2_window_amplitudes(orbit_324, p324):
    rep0 = L.dirichlet_multiplicity(orbit_324, p324, p324.phi0)
    mid = 0.5 * (p324.phi0 + rep0.phi1)
    rep = L.dirichlet_multiplicity(orbit_324, p324, mid)
    assert rep.multiplicity.kind is MultiplicityKind.FINITE
    assert rep.multiplicity.count >= 2
    assert rep.multiplicity.count % 2 == 0  # strictly between phi0 and phi1


def test_crossing_values_on_level(orbit_324, p324):
    for pb in (p324.phi0 * 0.7, p324.phi0 * 1.001):
        rep = L.dirichlet_multiplicity(orbit_324, p324, pb)
        for t in rep.crossing_ts:
            assert abs(orbit_324.read(t)[0][0] - pb) < 1e-12


def test_phi_extrema_bracket(orbit_324, p324):
    rep = L.dirichlet_multiplicity(orbit_324, p324, p324.phi0)
    assert rep.phi1 > p324.phi0
    assert rep.phi2 is not None and rep.phi2 < p324.phi0
    # paper bounds on the first overshoot and undershoot
    assert rep.phi1 <= 1.2 * p324.phi0
    assert rep.phi2 >= 0.8 * p324.phi0


def test_phi1_equals_phi0_for_type1(orbit_322, p322):
    rep = L.dirichlet_multiplicity(orbit_322, p322, p322.phi0 / 2)
    assert rep.phi1 <= p322.phi0 + 1e-9
    assert rep.phi2 is None and rep.epsilon_window is None


def test_epsilon_window(orbit_324, orbit_546, orbit_322, p324, p546, p322):
    w = L.epsilon_window(orbit_324)
    assert 0 < w <= p324.phi0 / 5
    w = L.epsilon_window(orbit_546)
    assert 0 < w <= p546.phi0 / 5
    with pytest.raises(L.WrongType):
        L.epsilon_window(orbit_322)


def test_not_converged_rejected(p322):
    short = L.integrate_orbit(p322, L.seed_unstable(p322, 1e-8), t_max=2.0)
    with pytest.raises(L.NotConverged):
        L.dirichlet_multiplicity(short, p322, 0.5)


def test_rescaling_invariance(profile_324, p324):
    # rho_d(r) = rho(d r)/d solves the same equation; check the residual by
    # direct substitution at 100 points
    d = 25.0
    rs = np.geomspace(profile_324.r_min, profile_324.r_max / d, 100)
    rho, rho_r, rho_rr = profile_324.values_at(d * rs)
    worst = np.max(np.abs(L.ode1_residual(rho / d, rho_r, rho_rr * d, rs, p324)))
    assert worst < 1e-7


def test_boundary_identity(orbit_324, profile_324, p324):
    # rho_{d_i}(1) = phi(t_i) = phi0 for every reported d_i
    rep = L.dirichlet_multiplicity(orbit_324, p324, p324.phi0)
    for d in rep.d_values:
        if d > profile_324.r_max:
            continue
        assert abs(profile_324.values_at([d])[0][0] / d - p324.phi0) < 1e-9


def test_nonminimizing_verdict(profile_324, orbit_324, p324):
    rep = L.nonminimizing_verdict(profile_324, orbit_324, p324)
    assert rep.verdict is L.Verdict.NON_MINIMIZING
    assert rep.theta_seq[0] < rep.theta_cone
    diffs = np.diff(rep.theta_seq)
    assert np.all(diffs > -1e-6)
    assert all(t <= rep.theta_cone + 1e-6 for t in rep.theta_seq)


@pytest.mark.parametrize("npk", [(3, 2, 4), (3, 2, 6)])
def test_nonminimizing_verdict_at_tight_quadrature_tolerance(npk):
    # quad refuses an epsrel below 50 eps, which the piece under r_min would
    # ask for at rel_tol below about 1.1e-12; its floor leaves the densities
    p = L.validate_params(*npk)
    orbit = L.integrate_orbit(p, L.seed_unstable(p, 1e-8))
    prof = L.extract_profile(orbit, p)
    loose = L.nonminimizing_verdict(prof, orbit, p, rel_tol=1e-10)
    tight = L.nonminimizing_verdict(prof, orbit, p, rel_tol=1e-13)
    assert tight.verdict is loose.verdict is L.Verdict.NON_MINIMIZING
    assert np.allclose(tight.theta_seq, loose.theta_seq, rtol=1e-14, atol=0.0)
    assert L.density_at(prof, 1.0, rel_tol=1e-13) == pytest.approx(
        L.density_at(prof, 1.0, rel_tol=1e-10), rel=1e-14)


def test_nonminimizing_wrong_type(profile_322, orbit_322, p322):
    with pytest.raises(L.WrongType):
        L.nonminimizing_verdict(profile_322, orbit_322, p322)


def test_a_triple_other_than_the_orbits_is_refused(profile_324, orbit_324, p324, p322):
    # (3,2,6) is TypeII too, and (3,2,2) is TypeI: neither may pass for the
    # (3,2,4) orbit, nor turn into a WrongType verdict on the wrong triple
    p326 = L.validate_params(3, 2, 6)
    for params in (p326, p322):
        name = rf"\({params.n},{params.p},{params.k}\).*\(3,2,4\)"
        with pytest.raises(ValueError, match=name):
            L.nonminimizing_verdict(profile_324, orbit_324, params)
        with pytest.raises(ValueError, match=name):
            L.dirichlet_multiplicity(orbit_324, params, 0.5)


def test_nonminimizing_refuses_an_orbit_the_profile_is_not_from(profile_324, p324):
    other = L.integrate_orbit(p324, L.seed_unstable(p324))
    with pytest.raises(ValueError, match="not extracted from this orbit"):
        L.nonminimizing_verdict(profile_324, other, p324)


# ---------------------------------------------------------------------------
# the crossing scan reads only the steps that can reach the level


def _full_grid_scan(orbit, refine: int = 8):
    """Reference: the scan over the refine grid of every solver step.  The
    grid is read once; the returned function scans it at one level."""
    ts = orbit.t
    grid = np.linspace(ts[:-1], ts[1:], refine + 1, axis=1)
    phi = orbit.interpolant(grid.ravel())[0].reshape(grid.shape)

    def crossings(level: float) -> list[float]:
        vals = phi - level
        fa, fb = vals[:, :-1], vals[:, 1:]
        roots = [float(a) for a in grid[:, :-1][fa == 0.0]]
        for i, j in zip(*np.nonzero(fa * fb < 0.0)):
            roots.append(float(brentq(lambda t: orbit.interpolant(t)[0] - level, grid[i, j],
                                      grid[i, j + 1], xtol=1e-13, rtol=1e-15)))
        if vals[-1, -1] == 0.0:
            roots.append(float(ts[-1]))
        merged: list[float] = []
        for t in sorted(roots):
            if not merged or t - merged[-1] > 1e-10:
                merged.append(t)
        return merged

    return crossings


def _edge_levels(orbit, rng) -> list[float]:
    """0, phi0, max phi, the last node's values and node values phi(t_i) as
    the interpolant reads them, which are exact zeros of grid points."""
    p = orbit.params
    nodes = orbit.interpolant(orbit.t)[0]
    picks = rng.choice(len(nodes), 8, replace=False)
    return [0.0, p.phi0, float(np.max(orbit.phi)), float(orbit.phi[-1]), float(nodes[-1]),
            *(float(nodes[i]) for i in picks), *(float(orbit.phi[i]) for i in picks[:4])]


@pytest.mark.parametrize("tol", [L.Tolerances(), TIGHT], ids=["default", "tight"])
@pytest.mark.parametrize("triple", SWEEP)
def test_pruned_scan_equals_the_full_grid(triple, tol):
    p = L.validate_params(*triple)
    orbit = L.integrate_orbit(p, L.seed_unstable(p), tolerances=tol)
    rng = np.random.default_rng(sum(triple))
    top = float(np.max(orbit.phi))
    levels = [*rng.uniform(0.0, top, 48), *rng.uniform(0.999 * p.phi0, top, 12),
              *_edge_levels(orbit, rng)]
    full_grid = _full_grid_scan(orbit)
    for level in levels:
        assert _find_crossings(orbit, level) == full_grid(level)


def test_pruned_scan_of_a_backward_orbit(orbit_324_backward):
    orbit = orbit_324_backward
    rng = np.random.default_rng(7)
    nodes = orbit.interpolant(orbit.t)[0]
    full_grid = _full_grid_scan(orbit)
    for level in [*_edge_levels(orbit, rng), *nodes[::7], *rng.uniform(0.0, nodes[0], 20)]:
        assert _find_crossings(orbit, float(level)) == full_grid(float(level))
    assert _find_crossings(orbit, float(nodes[3])) != []


def _synthetic_orbit(ts, phi_olds, Fs, params, alt_segment=False):
    """An orbit whose step i has dense output phi_old + x (F0 + (1 - x)(F1 +
    ...)) in phi (psi = 0); the segments need not meet."""
    steps = [Dop853DenseOutput(a, b, np.array([y, 0.0]), np.column_stack([F, np.zeros(7)]))
             for a, b, y, F in zip(ts[:-1], ts[1:], phi_olds, Fs)]
    ts = np.array(ts, dtype=float)
    sol = OdeSolution(ts, steps, alt_segment=alt_segment)
    phi = sol(ts)[0]
    orbit = Orbit(t=ts, phi=phi, psi=np.zeros_like(phi), events=[],
                  terminal=Terminal.CONVERGED_TO_P1, params=params,
                  tolerances=L.Tolerances(), steps=step_table(sol))
    if alt_segment:  # the cached interpolant, with the other tie rule
        orbit.__dict__["interpolant"] = sol
    return orbit


def _coeffs(*head):
    return np.array([*head, *[0.0] * (7 - len(head))])


@pytest.mark.parametrize("ts, phi_olds, Fs, level, alt", [
    # reach is the sum over every F_j, not |F0| = |phi_new - phi_old|: a hump
    pytest.param([0.0, 1.0], [0.0], [_coeffs(0.0, 1.0)], 0.2, False, id="hump"),
    # a step that stands exactly on the level is kept (<=, not <)
    pytest.param([0.0, 1.0], [0.0], [_coeffs()], 0.0, False, id="standing"),
    # 1 + 0.6 ulp rounds to 1 + 1 ulp, one ulp beyond the reach: the margin
    pytest.param([0.0, 1.0], [1.0], [_coeffs(0.6 * 2.0 ** -52)], 1.0 + 2.0 ** -52, False,
                 id="rounding"),
    # step 1 cannot reach 2, but OdeSolution reads its first node from step 0
    pytest.param([0.0, 1.0, 2.0], [1.0, 3.0], [_coeffs(1.0), _coeffs()], 2.0, False,
                 id="next-neighbour"),
    # with the other tie rule, step 0 reads its last node from step 1
    pytest.param([0.0, 1.0, 2.0], [3.0, 1.0], [_coeffs(), _coeffs(2.0)], 2.0, True,
                 id="previous-neighbour"),
])
def test_pruned_scan_on_steps_at_the_edge_of_reach(ts, phi_olds, Fs, level, alt, p322):
    orbit = _synthetic_orbit(ts, phi_olds, Fs, p322, alt)
    ref = _full_grid_scan(orbit)(level)
    assert ref
    assert _find_crossings(orbit, level) == ref
