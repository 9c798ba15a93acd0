"""The array-native evaluation core agrees with scalar, point-by-point
reference computations."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import brentq

import loclab as L
from loclab import dynamics
from loclab.dirichlet import _find_crossings
from loclab.dynamics import _strip_quadratic
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


_STRIP_CASES = [
    *(pytest.param(t, False, id=f"{t}") for t in ((3, 2, 4), (3, 2, 6), (5, 4, 6))),
    *(pytest.param((n, p, k), True, id=f"relaxed-{(n, p, k)}")
      for n in range(2, 12) for p in range(1, n) for k in range(2, 9)
      if 3 * p >= n + 1 and L.validate_params(n, p, k, relaxed=True).discriminant < 0),
]


def _strip_threshold(p) -> Fraction:
    return Fraction(3 * p.p - p.n - 1, 3 * (p.n - p.p))


def _strip_check(p):
    return next(c for c in L.barrier_certificate_A4(p).checks if "quarter strip" in c.name)


@pytest.mark.parametrize("triple, relaxed", _STRIP_CASES)
def test_quarter_strip_grid_is_the_hand_written_y2(triple, relaxed):
    # Y2 + X2 = -2 psi (N/D + f2 psi^2), N from the certificate's coefficients,
    # is the written-out reflected field plus X2 on a grid of the strip
    p = L.validate_params(*triple, relaxed=relaxed)
    a, b, c = (float(x) for x in _strip_quadratic(p))
    phi_th, top = math.sqrt(_strip_threshold(p)), 3.0 * p.phi0
    phi, psi = np.meshgrid(np.linspace(phi_th, top, 41), top * np.arange(1, 41) / 40)
    v = phi * phi
    closed = -2.0 * psi * (((a * v + b) * v + c) / (1.0 + p.lambda2_float * v)
                           + L.f2(phi, p) * psi * psi)
    ref = _hand_written_y2(phi, psi, p) + L.vector_field(phi, psi, p)[1]
    assert np.all(np.abs(closed - ref) <= 1e-13 * np.abs(ref))


@pytest.mark.parametrize("triple, relaxed", _STRIP_CASES)
def test_quarter_strip_check_is_its_value_at_the_threshold(triple, relaxed):
    # N(v_th) = 3p (1 + v_th), and N' > 0 there, so the minimum is at v_th
    p = L.validate_params(*triple, relaxed=relaxed)
    check = _strip_check(p)
    assert check.value == 3 * p.p * (1 + _strip_threshold(p))
    assert check.required_sign == ">0" and check.passed


@pytest.mark.parametrize("triple", [(3, 2, 6), (5, 4, 6)])
def test_quarter_strip_threshold_matters(triple):
    # below v_th, N dips under 0: the lemma would fail on a wider strip
    p = L.validate_params(*triple)
    a, b, c = _strip_quadratic(p)
    vertex = -b / (2 * a)
    assert 0 < vertex < _strip_threshold(p)
    assert (a * vertex + b) * vertex + c < 0


@pytest.mark.parametrize("triple", [(3, 2, 4), (3, 2, 6), (5, 4, 6)])
def test_quarter_strip_matches_scalar_loop(triple):
    # the exact verdict has the sign of a grid maximum taken point by point
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
    assert worst < 0.0 and _strip_check(p).passed


def _scalar_boundary_margins(params, curve, curve_prime, n_grid):
    """The reference for ``_boundary_margins``: one scalar loop over the grid,
    two field calls per point, minima taken as it goes."""
    phi0 = params.phi0
    inward = edge = math.inf
    for j in range(1, n_grid + 1):
        phi = phi0 * j / (n_grid + 1)
        x1, x2 = L.vector_field(phi, curve(phi), params)
        inward = min(inward, curve_prime(phi) - x2 / x1)
        edge = min(edge, L.vector_field(phi, 0.0, params)[1])
    return inward, edge


_MARGIN_CASES = [
    *(pytest.param(t, False, id=f"{t}") for t in SWEEP),
    *(pytest.param((n, p, k), True, id=f"relaxed-{(n, p, k)}")
      for n in range(2, 12) for p in range(1, n) for k in range(2, 9)
      if 3 * p >= n + 1 or L.validate_params(n, p, k, relaxed=True).discriminant >= 0),
]


@pytest.mark.parametrize("triple, relaxed", _MARGIN_CASES)
def test_boundary_margins_equal_the_scalar_loop(triple, relaxed, monkeypatch):
    # each certificate's margins, bit for bit, on its own curve and grid, with
    # the field still called twice per grid point
    p = L.validate_params(*triple, relaxed=relaxed)
    certificate = (L.barrier_certificate_A3 if p.stability is L.Stability.TYPE_I
                   else L.barrier_certificate_A4)
    margins, field = dynamics._boundary_margins, dynamics.vector_field
    seen = []

    def compared(params, curve, curve_prime, n_grid):
        calls = []

        def counted(phi, psi, params):
            calls.append(np.size(phi))
            return field(phi, psi, params)

        monkeypatch.setattr(dynamics, "vector_field", counted)
        got = margins(params, curve, curve_prime, n_grid)
        monkeypatch.setattr(dynamics, "vector_field", field)
        seen.append((got, _scalar_boundary_margins(params, curve, curve_prime, n_grid),
                     calls, n_grid))
        return got

    monkeypatch.setattr(dynamics, "_boundary_margins", compared)
    certificate(p)
    ((got, ref, calls, n_grid),) = seen
    assert all(type(x) is float for x in got)
    assert [x.hex() for x in got] == [x.hex() for x in ref]
    assert calls == [1] * (2 * n_grid)


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
