"""Dirichlet multiplicity, the epsilon window and the density verdict."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.optimize import brentq

import loclab as L
from loclab.dirichlet import PHI0_MATCH_TOL, MultiplicityKind, _find_crossings
from loclab.dynamics import EventKind

from conftest import SWEEP, TIGHT, assert_branch_roots


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


def test_type2_at_phi0():
    for triple in ((3, 2, 4), (3, 2, 6)):
        p = L.validate_params(*triple)
        # the linearization at (phi0, 0) shrinks |phi - phi0| by
        # exp(pi Re mu3 / |Im mu3|) from one psi-zero event to the next
        mu3 = L.spectra(p).mu3
        linear_rate = math.exp(math.pi * mu3.real / abs(mu3.imag))
        for tol in (L.Tolerances(), TIGHT):
            orbit = L.integrate_orbit(p, L.seed_unstable(p, 1e-8), tolerances=tol)
            rep = L.dirichlet_multiplicity(orbit, p, p.phi0)
            assert rep.multiplicity.kind is MultiplicityKind.UNBOUNDED_SEQUENCE
            assert len(rep.d_values) >= 3
            assert rep.cone_solution
            assert rep.decay_rate is not None
            assert abs(rep.decay_rate / linear_rate - 1.0) < 1e-3
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


def test_epsilon_window(orbit_324, orbit_546, p324, p546):
    for orbit, p in ((orbit_324, p324), (orbit_546, p546)):
        rep = L.dirichlet_multiplicity(orbit, p, p.phi0)
        assert rep.epsilon_window == rep.phi1 - p.phi0
        assert 0 < rep.epsilon_window <= p.phi0 / 5


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
    assert L.density_report(prof, [1.0], rel_tol=1e-13).theta_seq == pytest.approx(
        L.density_report(prof, [1.0], rel_tol=1e-10).theta_seq, rel=1e-14)


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
# one crossing on each monotone branch that holds the level; the scan of a
# refine grid over every solver step is the oracle


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
    stored and as the interpolant reads them (the read of node i comes from
    step i - 1's polynomial, so the two can differ in the last bit)."""
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
        assert_branch_roots(orbit, level, _find_crossings(orbit, level), full_grid(level))


def test_pruned_scan_of_a_backward_orbit(orbit_324_backward):
    orbit = orbit_324_backward
    rng = np.random.default_rng(7)
    nodes = orbit.interpolant(orbit.t)[0]
    full_grid = _full_grid_scan(orbit)
    for level in [*_edge_levels(orbit, rng), *nodes[::7], *rng.uniform(0.0, nodes[0], 20)]:
        level = float(level)
        assert_branch_roots(orbit, level, _find_crossings(orbit, level), full_grid(level))
    assert _find_crossings(orbit, float(nodes[3])) != []


def _orbit(triple, tol):
    p = L.validate_params(*triple)
    return L.integrate_orbit(p, L.seed_unstable(p, 1e-8), tolerances=tol)


def _spiral_backward(orbit):
    """The (3,2,4) orbit from t = 12 back to t = 8, across two psi-zero
    events, which a backward run meets in descending t."""
    (phi, psi), _ = orbit.read(12.0)
    return L.integrate_orbit(orbit.params, L.PhasePoint(float(phi), float(psi), 12.0),
                             t_max=-4.0, tolerances=TIGHT)


@pytest.mark.parametrize("which", ["default", "tight", "backward", "spiral-backward",
                                   "chatter"])
def test_levels_on_branch_ends_and_nodes(which, orbit_324, orbit_324_backward):
    # "chatter": solver chatter near (phi0, 0) leaves node values unsorted
    # between its 387 psi-zero events
    orbit = {"default": lambda: _orbit((3, 2, 4), L.Tolerances()),
             "tight": lambda: orbit_324, "backward": lambda: orbit_324_backward,
             "spiral-backward": lambda: _spiral_backward(orbit_324),
             "chatter": lambda: _orbit((15, 8, 2), L.Tolerances(1e-8, 1e-8))}[which]()
    events = [e.point.phi for e in orbit.events_of(EventKind.PSI_ZERO)]
    nodes = orbit.interpolant(orbit.t)[0]
    on = [float(orbit.phi[0]), *events[:3], *orbit.phi[::5], float(orbit.phi[-1]),
          float(nodes[-1])]
    # a level tied to a node up to rounding is neither refused nor dropped
    levels = [*on, *(math.nextafter(x, s) for x in on[1:] for s in (-math.inf, math.inf))]
    # at rtol = atol = 1e-8 the solver also wiggles within steps where phi is
    # near atol: the grid crosses the seed level 1e-8 three times, with no
    # psi-zero event between; so "chatter" is checked by the branch rule alone
    full_grid = _full_grid_scan(orbit) if which != "chatter" else lambda level: ()
    for level in levels:
        level = float(level)
        assert_branch_roots(orbit, level, _find_crossings(orbit, level), full_grid(level))
    # the seed and the last node are closed branch ends: the node is the root
    assert float(orbit.t[0]) in _find_crossings(orbit, float(orbit.phi[0]))
    assert float(orbit.t[-1]) in _find_crossings(orbit, float(nodes[-1]))
    if which != "default" and which != "tight":
        return
    # phi1 and phi2 are psi-zero events, where the orbit turns: a tangency
    rep = L.dirichlet_multiplicity(orbit, orbit.params, orbit.params.phi0)
    assert rep.phi1 == events[0] and rep.phi2 == events[1]
    assert str(L.dirichlet_multiplicity(orbit, orbit.params, rep.phi1).multiplicity) \
        == "Finite(0)"
    assert len(_find_crossings(orbit, rep.phi2)) == 1  # on the branch before phi1


LOOSE = L.Tolerances(1e-8, 1e-8)


@pytest.mark.parametrize("triple", [(5, 4, 2), (7, 4, 2), (15, 8, 2)])
def test_a_type1_level_at_or_above_phi0_is_zero(triple):
    # the A3 invariant region keeps a TypeI orbit below phi0; at rtol 1e-8
    # solver chatter near (phi0, 0) crosses phi0 4, 179 and 395 times here
    orbit = _orbit(triple, LOOSE)
    p = orbit.params
    assert np.max(orbit.phi) > p.phi0
    for level in (p.phi0, p.phi0 - 0.9 * PHI0_MATCH_TOL, p.phi0 + 1e-7, float(np.max(orbit.phi))):
        rep = L.dirichlet_multiplicity(orbit, p, level)
        assert rep.multiplicity.kind is MultiplicityKind.ZERO and rep.crossing_ts == []
        assert rep.cone_solution is (abs(level - p.phi0) < PHI0_MATCH_TOL)


def test_a_narrow_dip_between_grid_points_is_counted(orbit_324, p324):
    # around its minimum phi2 the orbit dips below phi2 + 1e-9 and back
    # between two points of the 9-point grid of a step, which so sees one
    # crossing, on the way up to phi1
    phi2 = L.dirichlet_multiplicity(orbit_324, p324, p324.phi0).phi2
    level = phi2 + 1e-9
    roots = _find_crossings(orbit_324, level)
    assert len(_full_grid_scan(orbit_324)(level)) == 1
    assert len(roots) == 3
    assert_branch_roots(orbit_324, level, roots)
    # phi - level changes sign at each root: over phi1, then under it in the dip
    (phi, _), _ = orbit_324.read(np.array([0.5 * (roots[0] + roots[1]),
                                           0.5 * (roots[1] + roots[2])]))
    assert phi[0] > level > phi[1]


@pytest.mark.parametrize("triple, tol, level", [
    ((7, 4, 2), LOOSE, lambda phi0: phi0 * (1 - 3e-8)),
    ((15, 8, 2), LOOSE, lambda phi0: phi0 * (1 - 2.2e-8)),
    ((5, 4, 2), L.Tolerances(), lambda phi0: phi0 - 1.5e-9),
], ids=["7-4-2-loose", "15-8-2-loose", "5-4-2-default"])
def test_sub_step_wiggles_at_a_type1_tail_are_one_crossing(triple, tol, level):
    # the solver's wiggles in the tail cross the level 349, 393 and 3 times
    # inside steps with no psi-zero event between them; the orbit rises
    # through it once
    orbit = _orbit(triple, tol)
    level = level(orbit.params.phi0)
    rep = L.dirichlet_multiplicity(orbit, orbit.params, level)
    assert str(rep.multiplicity) == "Finite(1)"
    assert abs(orbit.read(rep.crossing_ts[0])[0][0] - level) <= 1e-12
