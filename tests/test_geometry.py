"""Closed-form geometric quantities and the density machinery."""

from __future__ import annotations

import math

import numpy as np
import pytest
import sympy
from scipy.integrate import quad

import loclab as L
from conftest import SWEEP, TIGHT, ConeProfile


def test_normal_angle_cos_constants():
    assert abs(L.normal_angle_cos(L.validate_params(3, 2, 2)) - 1 / 9) < 1e-12
    assert abs(
        L.normal_angle_cos(L.validate_params(7, 4, 2)) - 1 / (8 * math.sqrt(7))
    ) < 1e-12
    want = 7**4 * 2**-11 * 3**-5 * math.sqrt(7 / 5)
    assert abs(L.normal_angle_cos(L.validate_params(15, 8, 2)) - want) < 1e-12


def test_volume_ratio_constants():
    assert abs(L.los_volume_ratio(L.validate_params(3, 2, 2)) - 16 / 9) < 1e-12
    want = (256 / 49) * (4 / 7) ** 1.5
    assert abs(L.los_volume_ratio(L.validate_params(7, 4, 2)) - want) < 1e-12


def test_volume_ratio_product_oracle():
    # the closed form must agree with the product of stretch factors
    for npk in SWEEP:
        p = L.validate_params(*npk)
        oracle = L.volume_ratio_product(p.theta, float(p.lambda2), p.n, p.p)
        assert math.isclose(L.los_volume_ratio(p), oracle, rel_tol=1e-12)


def test_volume_ratio_trivial_limit():
    # an isometry (every singular value 1, full rank p = n) stretches
    # nothing: the twisted sphere is round of unit radius for any angle
    for theta in (0.3, 0.7, 1.2):
        assert math.isclose(L.volume_ratio_product(theta, 1.0, 5, 5), 1.0,
                            rel_tol=1e-15)
    # symbolic limit lambda^2 -> 1 of the stretch-factor product
    th, l2 = sympy.symbols("theta lambda2", positive=True)
    n = 5
    expr = (sympy.cos(th) ** 2 + l2 * sympy.sin(th) ** 2) ** sympy.Rational(n, 2)
    assert sympy.simplify(sympy.limit(expr, l2, 1) - 1) == 0


def test_jordan_angles():
    p = L.validate_params(3, 2, 2)
    angles = L.jordan_angles(p)
    assert [m for _, m in angles] == [2, 1, 1]
    assert math.isclose(angles[0][0], math.acos(math.sqrt(1 / 6)), rel_tol=1e-14)
    assert math.isclose(angles[1][0], p.theta, rel_tol=0, abs_tol=0)
    assert angles[2][0] == 0.0

    p7 = L.validate_params(7, 4, 2)
    angles7 = L.jordan_angles(p7)
    assert [m for _, m in angles7] == [4, 1, 3]
    assert math.isclose(angles7[0][0], math.acos(math.sqrt(3 / 12)), rel_tol=1e-14)


def test_geometry_report_invariants():
    for npk in SWEEP:
        p = L.validate_params(*npk)
        rep = L.geometry_report(p)
        assert 0.0 < rep.cos_alpha < 1.0
        assert abs(rep.slope_W * rep.cos_alpha - 1.0) < 1e-12
        assert sum(m for _, m in rep.jordan_angles) == p.n + 1
        # cos alpha = cos theta * ((n-p)/(K-p))^(p/2)
        want = math.cos(p.theta) * ((p.n - p.p) / (p.K - p.p)) ** (p.p / 2)
        assert abs(rep.cos_alpha - want) < 1e-12
        # sec-product over tangent Jordan angles
        prod = 1.0
        for ang, mult in rep.jordan_angles:
            prod *= math.cos(ang) ** mult
        assert abs(rep.cos_alpha - prod) < 1e-12


def test_cone_density_equals_volume_ratio():
    # two independent closed forms for the same density
    for npk in SWEEP:
        p = L.validate_params(*npk)
        assert math.isclose(L.cone_density(p), L.los_volume_ratio(p), rel_tol=1e-12)


def _recovered_volumes(profile, radii) -> np.ndarray:
    """Volumes of the graph over 0 < r <= d, recovered from density_report's
    theta = volume / (ball_{n+1} R^{n+1}) at R = hypot(d, rho(d))."""
    d = np.asarray(radii, dtype=float)
    theta = np.array(L.density_report(profile, d).theta_seq)
    R = np.hypot(d, profile.values_at(d)[0])
    return theta * L.ball_volume(profile.params.n + 1) * R ** (profile.params.n + 1)


def test_graph_volume_cone_closed_form(p322, cone_profile_322):
    phi0, lam2 = p322.phi0, float(p322.lambda2)
    n, p = p322.n, p322.p
    radii = [0.5, 1.0, 3.0]
    for d, got in zip(radii, _recovered_volumes(cone_profile_322, radii)):
        want = (
            L.sphere_volume(n)
            * math.sqrt(1 + phi0**2)
            * (1 + lam2 * phi0**2) ** (p / 2)
            * d ** (n + 1)
            / (n + 1)
        )
        assert math.isclose(got, want, rel_tol=1e-8)


def test_cone_density_at_matches_formula(p322, cone_profile_322):
    got = L.density_report(cone_profile_322, [2.0]).theta_seq[0]
    assert math.isclose(got, L.cone_density(p322), rel_tol=1e-8)


def test_flat_plane_theta_is_one(p322):
    rep = L.density_report(ConeProfile(p322, slope=0.0), [1.0, 7.0])
    assert rep.theta_seq == pytest.approx([1.0, 1.0], rel=1e-8)


def test_graph_volume_monotone(profile_322):
    vols = _recovered_volumes(profile_322, [1.0, 2.0, 4.0, 8.0])
    assert np.all(np.diff(vols) > 0.0)


def test_graph_volume_domain_too_short(profile_322):
    with pytest.raises(L.DomainTooShort):
        L.density_report(profile_322, [profile_322.r_max * 2.0])


def _quad_volumes(profile, params, radii: list[float]) -> list[float]:
    """Reference: adaptive Gauss-Kronrod in r with scalar profile reads, one
    quad call per e-fold of radius at relative tolerance 1e-10, accumulated
    over the sorted ``radii``."""
    n, p, lam2 = params.n, params.p, float(params.lambda2)

    def w(r: float) -> float:
        rho, rho_r, _ = (float(v[0]) for v in profile.values_at([r]))
        return (math.sqrt(1.0 + rho_r * rho_r) * (r * r + lam2 * rho * rho) ** (p / 2)
                * r ** (n - p))

    lo = min(profile.r_min, radii[0])
    total = quad(w, 0.0, lo, epsabs=0.0, epsrel=1e-10, limit=200)[0]
    out = []
    for R in radii:
        n_seg = max(1, math.ceil(math.log(R / lo)))
        edges = [lo * (R / lo) ** (j / n_seg) for j in range(n_seg)] + [R]
        for a, b in zip(edges[:-1], edges[1:]):
            total += quad(w, a, b, epsabs=0.0, epsrel=1e-10, limit=200)[0]
        out.append(L.sphere_volume(n) * total)
        lo = R
    return out


@pytest.mark.parametrize("tight", [False, True], ids=["default", "tight"])
@pytest.mark.parametrize("triple", [(3, 2, 4), (3, 2, 6), (5, 4, 6)])
def test_gauss_legendre_volumes_match_adaptive_quad(triple, tight):
    p = L.validate_params(*triple)
    orbit = L.integrate_orbit(p, L.seed_unstable(p), tolerances=TIGHT if tight else None)
    prof = L.extract_profile(orbit, p)
    crossings = [math.exp(e.t) for e in orbit.events_of(L.EventKind.PHI_EQUALS_PHI0)]
    # below, at and above the seed radius r_min = 1, the crossings, and r_max
    radii = sorted([0.5, prof.r_min, 2.0] + crossings + [prof.r_max])
    # density_report takes the graph inside B(R) to be the slab under d
    assert np.all(np.diff(prof.r_samples**2 + prof.rho**2) > 0.0)
    rep = L.density_report(prof, radii)
    for R, theta, want in zip(radii, rep.theta_seq, _quad_volumes(prof, p, radii)):
        ball = L.ball_volume(p.n + 1) * math.hypot(R, prof.values_at([R])[0][0]) ** (p.n + 1)
        assert math.isclose(theta, want / ball, rel_tol=1e-10)


class BumpProfile:
    """rho = phi0 r (1 + b(log r)) with a Gaussian bump b of width 0.01 at
    t = 1, far narrower than one quadrature panel."""

    r_min, r_max = 0.0, math.inf

    def __init__(self, params):
        self.params, self.phi0 = params, params.phi0

    def values_at(self, r):
        t = np.log(np.asarray(r, dtype=float))
        bump = 0.5 * np.exp(-(((t - 1.0) / 0.01) ** 2))
        db_dt = -2.0 * (t - 1.0) / 0.01**2 * bump
        rho = self.phi0 * np.exp(t) * (1.0 + bump)
        return rho, self.phi0 * (1.0 + bump + db_dt), np.zeros_like(t)


def test_gauss_legendre_refines_a_narrow_feature(p322):
    prof = BumpProfile(p322)
    n, p, lam2 = p322.n, p322.p, float(p322.lambda2)

    def w_t(t: float) -> float:  # the integrand in t = log r
        r = math.exp(t)
        rho, rho_r, _ = (float(v[0]) for v in prof.values_at([r]))
        return (math.sqrt(1 + rho_r**2) * (r * r + lam2 * rho * rho) ** (p / 2)
                * r ** (n - p + 1))

    # the piece below 1e-12 R is under 1e-47 of the total
    R = math.exp(2.0)
    want = quad(w_t, math.log(R * 1e-12), 2.0, points=[0.95, 1.0, 1.05], epsabs=0.0,
                epsrel=1e-12, limit=500)[0]
    theta = L.density_report(prof, [R]).theta_seq[0]
    ball = math.hypot(R, prof.values_at([R])[0][0])
    got = theta * L.ball_volume(n + 1) * ball ** (n + 1) / L.sphere_volume(n)
    assert math.isclose(got, want, rel_tol=1e-10)


_BAD_RADII = [-1.0, 0.0, math.nan, math.inf]


@pytest.mark.parametrize("R", _BAD_RADII + [-math.inf])
def test_density_report_refuses_a_bad_radius(profile_324, R):
    with pytest.raises(ValueError, match=f"got {R}"):
        L.density_report(profile_324, [1.0, R])


@pytest.mark.parametrize("R", _BAD_RADII + [-math.inf])
def test_density_at_refuses_a_bad_radius(profile_324, R):
    # a bad radius on its own, with no good radius beside it
    with pytest.raises(ValueError, match=f"got {R}"):
        L.density_report(profile_324, [R])


@pytest.mark.parametrize("R", [math.nan, math.inf, -math.inf])
def test_graph_volume_refuses_a_non_finite_radius(profile_324, R):
    # first in an unsorted list: the sort must not hide it
    with pytest.raises(ValueError, match=f"got {R}"):
        L.density_report(profile_324, [R, 2.0, 1.0])


def test_density_report_refuses_no_radii(profile_324):
    with pytest.raises(ValueError, match="at least one radius"):
        L.density_report(profile_324, [])


def test_theta_seq_follows_ascending_d(profile_324):
    assert (L.density_report(profile_324, [5.0, 1.0, 2.0]).theta_seq
            == L.density_report(profile_324, [1.0, 2.0, 5.0]).theta_seq)


def test_density_at_refuses_a_ball_past_the_profile(p324):
    # past (r_max, rho(r_max)) the part of M inside the ball is not known
    orbit = L.integrate_orbit(p324, L.seed_unstable(p324),
                              tolerances=L.Tolerances(conv_radius=1e-3))
    prof = L.extract_profile(orbit, p324)
    for factor in (1.01, 2.0, 10.0):
        with pytest.raises(L.DomainTooShort, match="radius d=.* exceeds"):
            L.density_report(prof, [1.0, factor * prof.r_max])
    inside = L.density_report(prof, [0.99 * prof.r_max]).theta_seq[0]
    assert math.isclose(inside, L.cone_density(p324), rel_tol=1e-4)


def test_density_monotone_in_R(profile_324, p324):
    radii = np.geomspace(2.0, profile_324.r_max * 0.9, 50)
    dens = np.array(L.density_report(profile_324, radii).theta_seq)
    assert np.all(np.diff(dens) > -1e-8)
    assert np.all(dens <= L.cone_density(p324) + 1e-8)
    # the ball radii R and the graph volumes inside them grow strictly with d
    R = np.hypot(radii, profile_324.values_at(radii)[0])
    assert np.all(np.diff(R) > 0.0)
    assert np.all(np.diff(dens * R ** (p324.n + 1)) > 0.0)


def test_density_report_cone_is_inconclusive(p324):
    cone = ConeProfile(p324)
    rep = L.density_report(cone, [1.0, 2.0, 5.0])
    assert rep.verdict is L.Verdict.INCONCLUSIVE
    assert all(abs(t - rep.theta_cone) < 1e-7 for t in rep.theta_seq)


def test_sphere_and_ball_volumes():
    assert math.isclose(L.sphere_volume(1), 2 * math.pi, rel_tol=1e-15)
    assert math.isclose(L.sphere_volume(2), 4 * math.pi, rel_tol=1e-15)
    assert math.isclose(L.sphere_volume(3), 2 * math.pi**2, rel_tol=1e-15)
    assert math.isclose(L.ball_volume(2), math.pi, rel_tol=1e-15)
    assert math.isclose(L.ball_volume(4), math.pi**2 / 2, rel_tol=1e-15)
    for n in range(1, 10):
        assert math.isclose(
            L.ball_volume(n + 1), L.sphere_volume(n) / (n + 1), rel_tol=1e-13
        )
