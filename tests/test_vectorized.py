"""The array-native evaluation core agrees with scalar, point-by-point
reference computations."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.optimize import brentq

import loclab as L
from loclab import dynamics
from loclab.dirichlet import _find_crossings
from loclab.dynamics import _quarter_strip_max
from loclab.hopf import _random_unit_vectors

from conftest import BACKWARD, SWEEP, TIGHT, assert_branch_roots


@pytest.mark.parametrize("triple", SWEEP)
def test_vector_field_arrays_equal_scalar_calls(triple):
    p = L.validate_params(*triple)
    phi, psi = np.meshgrid(np.linspace(-3.0, 3.0, 41), np.linspace(-4.0, 4.0, 37))
    x1, x2 = L.vector_field(phi, psi, p)
    ref = np.array([L.vector_field(float(a), float(b), p)
                    for a, b in zip(phi.ravel(), psi.ravel())])
    assert np.array_equal(x1.ravel(), ref[:, 0])
    assert np.array_equal(x2.ravel(), ref[:, 1])
    for f in (L.f1, L.f2):
        assert np.array_equal(f(phi, p).ravel(), [f(float(a), p) for a in phi.ravel()])


@pytest.mark.parametrize("triple, t_max, tol", [
    *(pytest.param(triple, 200.0, tol, id=f"triple{i}-{name}")
      for name, tol in (("default", L.Tolerances()), ("tight", TIGHT))
      for i, triple in enumerate(SWEEP)),
    pytest.param((3, 2, 4), -5.0, BACKWARD, id="backward"),
])
def test_states_at_equals_interpolant(triple, t_max, tol):
    p = L.validate_params(*triple)
    orbit = L.integrate_orbit(p, L.seed_unstable(p), t_max, tolerances=tol)
    ts = orbit.interpolant.ts
    rng = np.random.default_rng(sum(triple))
    t = np.concatenate([ts, 0.5 * (ts[1:] + ts[:-1]), rng.uniform(*np.sort(ts[[0, -1]]), 500),
                        [ts[0], ts[-1]]])
    assert np.array_equal(orbit.read(t)[0], orbit.interpolant(t))
    grid = t[: t.size // 2 * 2].reshape(-1, 2)
    assert np.array_equal(orbit.read(grid)[0], orbit.interpolant(grid.ravel()).reshape(2, -1, 2))
    for x in (ts[0], ts[len(ts) // 2], 0.5 * (ts[1] + ts[2]), ts[-1]):
        assert np.array_equal(orbit.read(x)[0], orbit.interpolant(x))


def _psi_t_polyfit(orbit, t: float) -> float:
    """Reference: interpolate psi at 9 Chebyshev nodes of the step holding t
    (integrated forward or backward), one interpolant call per node, and
    differentiate a least-squares fit."""
    ts = orbit.interpolant.ts
    way = 1.0 if ts[-1] >= ts[0] else -1.0
    i = int(np.clip(np.searchsorted(way * ts, way * t, side="right") - 1, 0, len(ts) - 2))
    ta, tb = ts[i], ts[i + 1]
    u = np.cos(np.pi * np.arange(9) / 8)
    tt = 0.5 * (ta + tb) + 0.5 * (tb - ta) * u
    psis = np.array([orbit.interpolant(x)[1] for x in tt])
    dcoeffs = np.polyder(np.polyfit(u, psis, 8))
    u0 = (2.0 * t - (ta + tb)) / (tb - ta)
    return float(np.polyval(dcoeffs, u0)) * 2.0 / (tb - ta)


@pytest.mark.parametrize("name", ["orbit_322", "orbit_324", "orbit_324_backward"])
def test_batched_psi_t_matches_scalar_reference(name, request):
    orbit = request.getfixturevalue(name)
    t, h = orbit.t, np.diff(orbit.t)
    # differentiating a step's polynomial loses digits in proportion to
    # max|psi| * 2/|h| over the step: that is the scale of "relative" here
    scale = np.maximum(np.abs(orbit.psi[:-1]), np.abs(orbit.psi[1:])) * 2.0 / np.abs(h)
    for points, steps in ((t[1:-1], slice(1, None)), (t[:-1] + 0.5 * h, slice(None))):
        batched = orbit.read(points)[1][1]
        ref = np.array([_psi_t_polyfit(orbit, float(x)) for x in points])
        assert np.all(np.abs(batched - ref) <= 1e-12 * scale[steps])
        scalar = np.array([orbit.read(float(x))[1][1] for x in points])
        assert np.array_equal(scalar, batched)


def _brute_force_crossings(orbit, level: float, refine: int = 8) -> list[float]:
    """Reference scan: one interpolant call per grid point."""
    roots = []
    ts = orbit.t
    for i in range(len(ts) - 1):
        grid = np.linspace(ts[i], ts[i + 1], refine + 1)
        vals = [orbit.interpolant(x)[0] - level for x in grid]
        for j in range(refine):
            if vals[j] == 0.0:
                roots.append(float(grid[j]))
            elif vals[j] * vals[j + 1] < 0.0:
                roots.append(brentq(lambda x: orbit.interpolant(x)[0] - level,
                                    grid[j], grid[j + 1], xtol=1e-13, rtol=1e-15))
    return sorted(roots)


def test_batched_crossings_match_brute_force(orbit_324, p324):
    rep0 = L.dirichlet_multiplicity(orbit_324, p324, p324.phi0)
    levels = [0.3 * p324.phi0, p324.phi0, 0.5 * (p324.phi0 + rep0.phi1),
              rep0.phi2 + 1e-9]
    for level in levels:
        got = _find_crossings(orbit_324, level)
        assert len(got) >= 1
        assert_branch_roots(orbit_324, level, got, _brute_force_crossings(orbit_324, level))


def test_batched_singular_values_match_per_sample():
    xs = _random_unit_vectors(200, seed=41)
    batch = L.singular_value_sample(xs)
    assert batch.singular_values.shape == (200, 3)
    assert batch.jacobian.shape == (200, 3, 4) and batch.fx.shape == (200, 3)
    each = [L.singular_value_sample(x) for x in xs]
    ref = np.array([s.singular_values for s in each])
    assert np.max(np.abs(batch.singular_values - ref)) <= 1e-15
    assert np.max(np.abs(batch.fx - [s.fx for s in each])) <= 1e-15
    with pytest.raises(L.NotOnSphere):
        L.singular_value_sample(np.vstack([xs[:3], [[0.5, 0.0, 0.0, 0.0]]]))


def _hand_written_y2(phi, psi, p):
    """The reflected field written out: Y2 = -psi - (f2 psi + f1 phi)(1 + (phi - psi)^2)."""
    return -psi - (L.f2(phi, p) * psi + L.f1(phi, p) * phi) * (1.0 + (phi - psi) ** 2)


@pytest.mark.parametrize("triple", [(3, 2, 4), (3, 2, 6), (5, 4, 6)])
def test_quarter_strip_matches_scalar_loop(triple):
    p = L.validate_params(*triple)
    n, pp, phi0 = p.n, p.p, p.phi0
    m2 = 9
    phi_th = math.sqrt((3 * pp - n - 1) / (3 * (n - pp)))
    worst = -math.inf
    for i in range(m2):
        phi = phi_th + (3.0 * phi0 - phi_th) * i / (m2 - 1)
        for j in range(1, m2 + 1):
            psi = 3.0 * phi0 * j / m2
            _, x2 = L.vector_field(phi, psi, p)
            worst = max(worst, _hand_written_y2(phi, psi, p) + x2)
    assert _quarter_strip_max(p, m2) == worst < 0.0


_STRIP_CASES = [
    *(pytest.param(t, False, id=f"{t}") for t in ((3, 2, 4), (3, 2, 6), (5, 4, 6))),
    *(pytest.param((n, p, k), True, id=f"relaxed-{(n, p, k)}")
      for n in range(2, 12) for p in range(1, n) for k in range(2, 9)
      if 3 * p >= n + 1 and L.validate_params(n, p, k, relaxed=True).discriminant < 0),
]


@pytest.mark.parametrize("triple, relaxed", _STRIP_CASES)
def test_quarter_strip_grid_is_the_hand_written_y2(triple, relaxed, monkeypatch):
    # _quarter_strip_max reads Y2(phi, psi) as -X2(phi, -psi); on the grid
    # barrier_certificate_A4 samples, every value of Y2 + X2 must be the
    # written-out expression to the bit
    p = L.validate_params(*triple, relaxed=relaxed)
    calls = []
    field = dynamics.vector_field

    def recorded(phi, psi, params):
        out = field(phi, psi, params)
        calls.append((phi, psi, out[1]))
        return out

    monkeypatch.setattr(dynamics, "vector_field", recorded)
    got = _quarter_strip_max(p, max(100, math.isqrt(2048 * 5)))
    (phi, psi, x2), (phi_r, psi_r, x2_r) = calls
    assert np.array_equal(phi_r, phi) and np.array_equal(psi_r, -psi)
    ref = _hand_written_y2(phi, psi, p) + x2
    assert np.array_equal(x2 - x2_r, ref)
    assert got == float(np.max(ref))


def test_profile_values_match_scalar_accessors(profile_324):
    prof = profile_324
    r = np.concatenate([[-1.0, 0.0, 0.3 * prof.r_min],
                        np.geomspace(prof.r_min, prof.r_max, 25),
                        [2.0 * prof.r_max]])
    batched = prof.values_at(r)
    for i, got in enumerate(batched):
        ref = np.array([prof.values_at([float(x)])[i][0] for x in r])
        assert np.array_equal(got, ref)


def test_deviation_over_a_stack_is_max_over_points(profile_322):
    xs = _random_unit_vectors(6, seed=43)
    each = [L.general_vs_lomse_deviation(profile_322, x) for x in xs]
    assert L.general_vs_lomse_deviation(profile_322, xs) == max(each)
