"""The explicit Hopf map as a check of the general structure theory."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import loclab as L
from loclab import hopf
from loclab.dynamics import radial_residual
from loclab.hopf import _random_unit_vectors


def _reference_map(x):
    """The map written out component by component, as a reference for the table."""
    x1, x2, x3, x4 = np.moveaxis(x, -1, 0)
    return np.stack([2.0 * (x1 * x3 + x2 * x4), 2.0 * (x2 * x3 - x1 * x4),
                     x1 * x1 + x2 * x2 - x3 * x3 - x4 * x4], axis=-1)


def _reference_jacobian(x):
    """The differential written out row by row, projected onto T_x S^3."""
    x1, x2, x3, x4 = np.moveaxis(x, -1, 0)
    rows = [[x3, x4, x1, x2], [-x4, x3, x2, -x1], [x1, x2, -x3, -x4]]
    ambient = 2.0 * np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)
    return ambient @ (np.eye(4) - x[..., :, None] * x[..., None, :])


def test_hopf_map_examples():
    assert np.allclose(L.hopf_map([1, 0, 0, 0]), [0, 0, 1], atol=1e-15)
    s = 1 / math.sqrt(2)
    assert np.allclose(L.hopf_map([s, 0, s, 0]), [1, 0, 0], atol=1e-15)


def test_hopf_map_unit_output():
    for x in _random_unit_vectors(10_000, seed=7):
        assert abs(np.linalg.norm(L.hopf_map(x)) - 1.0) < 1e-12


def test_table_matches_explicit_formulas():
    xs = _random_unit_vectors(1000, seed=37)
    assert np.array_equal(hopf._tangent_jacobian(xs), _reference_jacobian(xs))
    assert np.max(np.abs(L.hopf_map(xs) - _reference_map(xs))) <= 4.5e-16


def test_not_on_sphere():
    with pytest.raises(L.NotOnSphere):
        L.hopf_map([1.0, 1.0, 0.0, 0.0])
    with pytest.raises(L.NotOnSphere):
        L.singular_value_sample([0.5, 0.0, 0.0, 0.0])


def test_not_on_sphere_names_the_first_row_off_it():
    xs = _random_unit_vectors(1000, seed=53)
    xs[[417, 600]] *= [[2.0], [math.nan]]
    with pytest.raises(L.NotOnSphere) as err:
        L.singular_value_sample(xs)
    assert str(err.value) == "row 417 of 1000: |x| = 2.0 is not 1 within 1e-09"
    with pytest.raises(L.NotOnSphere) as err:
        L.hopf_map([0.5, 0.0, 0.0, 0.0])
    assert str(err.value) == "|x| = 0.5 is not 1 within 1e-09"


_EVERY_ENTRY = (L.hopf_map, L.singular_value_sample, L.los_angle_root)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", _EVERY_ENTRY,
                         ids=["hopf_map", "singular_value_sample", "los_angle_root"])
def test_non_finite_points_are_not_on_the_sphere(entry, bad):
    # |NaN - 1| > tol is False, so only a test that the norm is within the
    # tolerance refuses a NaN point
    point = [bad, 0.0, 0.0, 0.0]
    stack = _random_unit_vectors(5, seed=3)
    stack[2, 1] = bad
    for x in (point, stack):
        with pytest.raises(L.NotOnSphere):
            entry(x)


def test_singular_values_constant():
    worst = 0.0
    for x in _random_unit_vectors(1000, seed=3):
        sv = L.singular_value_sample(x).singular_values
        worst = max(worst, abs(sv[0] - 2), abs(sv[1] - 2), abs(sv[2]))
    assert worst < 1e-9
    # lambda = sqrt(k(k+n-1)/p) = 2 and Gram trace = 2 lambda^2 = 8
    p = L.validate_params(3, 2, 2)
    assert p.lam == 2.0
    x = _random_unit_vectors(1, seed=5)[0]
    sv = L.singular_value_sample(x).singular_values
    assert math.isclose(float(np.sum(sv**2)), 8.0, rel_tol=1e-12)


def test_singular_values_match_the_svd():
    # s1, s2 from the Gram eigenvalues and s3 from det [J; x^T]; the square
    # root of the smallest Gram eigenvalue would read 3.7e-8 for s3
    xs = _random_unit_vectors(1000, seed=61)
    s = L.singular_value_sample(xs)
    svd = np.linalg.svd(s.jacobian, compute_uv=False)
    assert np.max(np.abs(s.singular_values - svd)) <= 1e-14
    assert np.max(s.singular_values[:, 2]) <= 1e-14


def test_det_with_row_matches_the_lu_determinant():
    # a general J and x, neither a Hopf Jacobian nor a unit vector, within
    # 1e-14 of the Hadamard bound, the product of the four row norms
    rng = np.random.default_rng(71)
    jac, x = rng.standard_normal((1000, 3, 4)), rng.standard_normal((1000, 4))
    det = hopf._det_with_row(jac, x)
    rows = np.concatenate([jac, x[..., None, :]], axis=-2)
    hadamard = np.prod(np.linalg.norm(rows, axis=-1), axis=-1)
    assert np.max(np.abs(det - np.linalg.det(rows)) / hadamard) <= 1e-14
    assert hopf._det_with_row(jac[417], x[417]) == det[417]


def _symmetric_family(eigenvalues, rng):
    """Symmetric 3x3 matrices Q diag(l) Q^T, one per row of ``eigenvalues``, for
    random orthogonal Q."""
    q, _ = np.linalg.qr(rng.standard_normal((len(eigenvalues), 3, 3)))
    return q @ (eigenvalues[:, :, None] * np.swapaxes(q, -1, -2))


def _extreme_axis_off_the_first(n, rng):
    """Symmetric matrices whose extreme eigenvalue, in [5, 10], has an
    eigenvector with first entry 0 and whose other two, in [0, 1], have
    eigenvectors off every axis: column 0 of adj(G - mu I) is 0 there."""
    beta, alpha = rng.uniform(0.0, 2.0 * math.pi, (2, n, 1))
    e1 = np.array([1.0, 0.0, 0.0])
    axis = np.cos(beta) * [0.0, 1.0, 0.0] + np.sin(beta) * [0.0, 0.0, 1.0]
    perp = -np.sin(beta) * [0.0, 1.0, 0.0] + np.cos(beta) * [0.0, 0.0, 1.0]
    vectors = (axis, np.cos(alpha) * e1 + np.sin(alpha) * perp,
               np.cos(alpha) * perp - np.sin(alpha) * e1)
    values = (rng.uniform(5.0, 10.0, n), rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, n))
    return sum(lam[:, None, None] * v[:, :, None] * v[:, None, :]
               for lam, v in zip(values, vectors))


_N_MATRICES = 10_000
_EIGENVALUE_FAMILIES = {
    "full-rank": lambda rng: rng.uniform(0.1, 10.0, (_N_MATRICES, 3)),
    "rank-2": lambda rng: rng.uniform(0.1, 10.0, (_N_MATRICES, 3)) * [1.0, 1.0, 0.0],
    "rank-1": lambda rng: rng.uniform(0.1, 10.0, (_N_MATRICES, 3)) * [1.0, 0.0, 0.0],
    "hopf-4-4-0": lambda rng: np.tile([4.0, 4.0, 0.0], (_N_MATRICES, 1)),
    "4e-9-apart": lambda rng: np.tile([4.0, 4.0 + 4e-9, 0.0], (_N_MATRICES, 1)),
    "triple": lambda rng: np.full((_N_MATRICES, 3), 2.0),
    "nearly-triple": lambda rng: np.tile([2.0, 2.0 + 1e-9, 2.0 + 3e-9], (_N_MATRICES, 1)),
    "negative": lambda rng: rng.uniform(-10.0, 10.0, (_N_MATRICES, 3)),
    "tiny": lambda rng: rng.uniform(0.1, 10.0, (_N_MATRICES, 3)) * 1e-150,
    "huge": lambda rng: rng.uniform(-10.0, 10.0, (_N_MATRICES, 3)) * 1e150,
}


def _gram_entries(g):
    """The six entries (0,0), (1,1), (2,2), (1,0), (2,0), (2,1) of ``g``."""
    return [g[..., i, j] for i, j in ((0, 0), (1, 1), (2, 2), (1, 0), (2, 0), (2, 1))]


@pytest.mark.parametrize("family", [*_EIGENVALUE_FAMILIES, "extreme-axis-off-the-first"])
def test_top_two_eigenvalues_match_eigvalsh(family):
    rng = np.random.default_rng(73)
    if family in _EIGENVALUE_FAMILIES:
        g = _symmetric_family(_EIGENVALUE_FAMILIES[family](rng), rng)
    else:
        g = _extreme_axis_off_the_first(_N_MATRICES, rng)
    g = (g + np.swapaxes(g, -1, -2)) / 2.0
    top = np.stack(hopf._top_two_eigenvalues(*_gram_entries(g)), axis=-1)
    lam = np.linalg.eigvalsh(g)
    norm = np.max(np.abs(lam), axis=-1)
    assert np.max(np.abs(top - lam[:, :0:-1]) / norm[:, None]) <= 1e-14
    one = hopf._top_two_eigenvalues(*(float(e) for e in _gram_entries(g[417])))
    assert one[0] == top[417, 0] and one[1] == top[417, 1]


def test_top_two_eigenvalues_of_the_zero_matrix():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert hopf._top_two_eigenvalues(*[0.0] * 6) == (0.0, 0.0)
        assert np.array_equal(hopf._top_two_eigenvalues(*np.zeros((6, 5))), np.zeros((2, 5)))


def test_singular_values_of_a_flipped_table_match_the_svd(monkeypatch):
    # the table of test_report_reads_a_patched_table_with_one_pair_flipped
    # gives a full-rank Gram matrix: s3 lies far above rounding level
    q = hopf._HOPF_Q.copy()
    q[0, 0, 2] = q[0, 2, 0] = -1
    monkeypatch.setattr(hopf, "_HOPF_Q", q)
    s = L.singular_value_sample(_random_unit_vectors(1000, 0))
    svd = np.linalg.svd(s.jacobian, compute_uv=False)
    assert np.min(svd[:, 2]) > 1e-4
    assert np.max(np.abs(s.singular_values - svd)) <= 1e-14


@pytest.mark.parametrize("scale", [1.0 + 9e-10, 1.0 - 9e-10], ids=["outside", "inside"])
def test_zero_singular_value_off_the_unit_sphere(scale):
    # |x| - 1 within SPHERE_TOL passes the sphere check, but there I - x x^T
    # is no projector: the SVD of the projected J reads s3 = 4 ||x| - 1| =
    # 3.6e-9, while det [J; x^T] = det [2 Q_c x; x^T] has dependent rows at
    # any |x|, so s3 stays at rounding level.  s1 = s2 = 2 |x| still match the
    # SVD, and still miss the 1e-9 bound by 1.8e-9
    xs = scale * _random_unit_vectors(1000, seed=67)
    s = L.singular_value_sample(xs)
    svd = np.linalg.svd(s.jacobian, compute_uv=False)
    assert np.min(svd[:, 2]) > 1e-9
    assert np.max(s.singular_values[:, 2]) <= 1e-14
    assert np.max(np.abs(s.singular_values[:, :2] - svd[:, :2])) <= 1e-14
    two_norms = 2 * np.linalg.norm(xs, axis=-1)[:, None]
    assert np.max(np.abs(s.singular_values[:, :2] - two_norms)) <= 1e-14
    assert np.min(np.abs(s.singular_values[:, :2] - 2)) > 1e-9


def _singular_value_check(profile, table, monkeypatch) -> tuple[dict, bool]:
    monkeypatch.setattr(hopf, "_HOPF_Q", table)
    rep = L.hopf_verify_report(profile)
    return next(c for c in rep["checks"] if c["name"] == "singular values (2,2,0)"), rep["pass"]


def test_report_reads_a_patched_table_with_one_pair_flipped(monkeypatch, profile_322):
    q = hopf._HOPF_Q.copy()
    q[0, 0, 2] = q[0, 2, 0] = -1
    check, passed = _singular_value_check(profile_322, q, monkeypatch)
    assert math.isclose(check["max_deviation"], 1.9708, rel_tol=1e-4)
    assert check["pass"] is False and passed is False


def test_report_reads_a_patched_table_with_one_pair_off_by_1e9(monkeypatch, profile_322):
    # the singular values move by about 2e-9, past the 1e-9 bound; the SVD of
    # the same Jacobian reads the same deviation
    q = hopf._HOPF_Q.astype(float)
    q[0, 0, 2] = q[0, 2, 0] = 1.0 + 1e-9
    check, passed = _singular_value_check(profile_322, q, monkeypatch)
    svd = np.linalg.svd(L.singular_value_sample(_random_unit_vectors(1000, 0)).jacobian,
                        compute_uv=False)
    assert math.isclose(check["max_deviation"], np.max(np.abs(svd - [2, 2, 0])), rel_tol=1e-6)
    assert check["max_deviation"] > 1.9e-9
    assert check["pass"] is False and passed is False


def _sampled_singular_values(n_samples, seed):
    return L.singular_value_sample(_random_unit_vectors(n_samples, seed)).singular_values


def test_los_condition():
    theta_star = math.acos(2 / 3)
    assert np.max(np.abs(hopf._los_residual(_sampled_singular_values(100, 11), theta_star))) < 1e-9
    sv = _sampled_singular_values(1, 13)[0]
    assert math.isclose(hopf._los_residual(sv, math.pi / 4), -0.2, abs_tol=1e-12)
    # limit theta -> 0+: every summand tends to 1
    assert abs(hopf._los_residual(sv, 1e-8)) < 1e-12


def test_los_root_unique():
    theta_star = math.acos(2 / 3)
    for x in _random_unit_vectors(5, seed=17):
        root = L.los_angle_root(x)
        assert abs(root - theta_star) < 1e-9
    # sign structure: negative below the root, positive above
    sv = _sampled_singular_values(1, 19)[0]
    assert hopf._los_residual(sv, theta_star - 0.2) < 0
    assert hopf._los_residual(sv, theta_star + 0.2) > 0


def _one_point_root(sv, tol):
    """A one-point bisection on Python floats, the reference for the closed form."""
    def residual(theta):
        c2, s2 = math.cos(theta) ** 2, math.sin(theta) ** 2
        return sum(1.0 / (c2 + s2 * lam**2) for lam in sv) - 3.0

    lo, hi = 1e-3, math.pi / 2 - 1e-6
    flo = residual(lo)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        fm = residual(mid)
        if (flo > 0) == (fm > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_los_angle_root_of_a_stack_is_the_per_point_roots():
    for seed in range(20):
        xs = _random_unit_vectors(10, seed)
        roots = L.los_angle_root(xs)
        assert isinstance(roots, np.ndarray) and roots.shape == (10,)
        points = [L.los_angle_root(x) for x in xs]
        assert all(isinstance(r, float) for r in points)
        assert roots.tolist() == points


def test_los_angle_root_takes_no_tol():
    x = _random_unit_vectors(1, seed=47)[0]
    with pytest.raises(TypeError):
        L.los_angle_root(x, tol=1e-10)


# three rows with Sum sv^2 > 3 and Sum 1/sv^2 > 3, whose roots lie apart
# (1.007, 0.723 and 0.841); the Hopf map's own rows all have the same root
_DIVERGING_SV = [[2.0, 1.5, 0.5], [3.0, 1.0, 0.0], [2.0, 2.0, 0.0]]


def test_closed_form_root_is_the_bisection_root():
    roots = hopf._los_root(np.array(_DIVERGING_SV))
    for root, row in zip(roots, _DIVERGING_SV):
        assert abs(root - _one_point_root(row, 1e-15)) <= 1e-14
    xs = _random_unit_vectors(200, seed=59)
    roots = L.los_angle_root(xs)
    sv = L.singular_value_sample(xs).singular_values
    worst = max(abs(root - _one_point_root(row.tolist(), 1e-15))
                for root, row in zip(roots, sv))
    assert worst <= 1e-14
    assert np.max(np.abs(roots - math.acos(2 / 3))) <= 2.3e-16


# every element drawn on its own: no fill value repeats one row down a stack
_SV = arrays(float, (40, 3), elements=st.floats(0.0, 10.0), fill=st.nothing())


@settings(max_examples=20, deadline=None)
@given(sv=_SV)
def test_closed_form_root_solves_the_condition(sv):
    # 20 stacks of 40 rows; the rows with a unique root are checked at once
    l1, l2, l3 = (sv * sv).T
    sv = sv[(l1 + l2 + l3 > 3.0) & (l1 * l2 + l1 * l3 + l2 * l3 > 3.0 * l1 * l2 * l3)]
    assume(len(sv) > 0)
    root = hopf._los_root(sv)
    assert np.all((0.0 < root) & (root < math.pi / 2))
    assert np.max(np.abs(hopf._los_residual(sv, root))) <= 1e-12


def test_rows_without_a_unique_root_give_nan():
    # (1,1,1) solves the condition at every angle; (1,1,0.5) has Sum sv^2 < 3,
    # so Q has two roots of one sign or none.  The next two rows sit on the
    # edges of the condition: their squares, in floats, give Q no constant
    # term (the root u = 0, theta = 0) and no square term (u = -1/4)
    rows = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.5], [1.2, 1.2489995996796797, 0.0],
                     [2.0, 2.0, 0.6324555320336759], [math.nan, 2.0, 0.0], [2.0, 2.0, 0.0]])
    roots = hopf._los_root(rows)
    assert np.isnan(roots[:5]).all() and abs(roots[5] - math.acos(2 / 3)) <= 2.3e-16


@pytest.mark.parametrize("row", [[1.0, 1.0, 1.0], [3.0, 1.0, 0.0]], ids=["no-root", "other-root"])
def test_report_fails_the_root_check_off_the_hopf_values(monkeypatch, row, profile_322):
    sample = L.singular_value_sample

    def shifted(x):
        s = sample(x)
        sv = np.broadcast_to(row, s.singular_values.shape)
        return hopf.SphereSample(s.x, s.fx, s.jacobian, sv)

    monkeypatch.setattr(hopf, "singular_value_sample", shifted)
    rep = L.hopf_verify_report(profile_322, n_samples=50)
    root = next(c for c in rep["checks"] if c["name"] == "unique LOS angle root")
    assert root["pass"] is False and rep["pass"] is False


def test_report_without_a_root_is_json(monkeypatch, profile_322):
    # a row without a unique root counts as pi/2 off, so the report has no NaN
    sample = L.singular_value_sample

    def no_root(x):
        s = sample(x)
        sv = np.broadcast_to([1.0, 1.0, 1.0], s.singular_values.shape)
        return hopf.SphereSample(s.x, s.fx, s.jacobian, sv)

    monkeypatch.setattr(hopf, "singular_value_sample", no_root)
    rep = L.hopf_verify_report(profile_322, n_samples=50)
    root = next(c for c in rep["checks"] if c["name"] == "unique LOS angle root")
    assert root["max_deviation"] == math.pi / 2
    assert root["pass"] is False and rep["pass"] is False
    json.dumps(rep, allow_nan=False)


def test_harmonic_degree():
    rep = L.harmonic_degree_check()
    assert rep["laplacians_zero"]
    assert rep["homogeneous_degree_2"]
    assert rep["pass"]


def test_harmonic_degree_detects_a_bad_table(monkeypatch):
    table = hopf._HOPF_Q
    q = table.copy()
    q[2] = np.diag([1, 1, -1, 1])  # trace 2: Laplacian 4, not harmonic
    monkeypatch.setattr(hopf, "_HOPF_Q", q)
    rep = L.harmonic_degree_check()
    assert rep["laplacians_zero"] is False
    assert rep["pass"] is False

    q = table.copy()
    q[0, 0, 1] = 1  # traceless, but not symmetric: 2 Q x is not its gradient
    monkeypatch.setattr(hopf, "_HOPF_Q", q)
    rep = L.harmonic_degree_check()
    assert rep["laplacians_zero"] is True
    assert rep["homogeneous_degree_2"] is False
    assert rep["pass"] is False


def test_import_loads_no_sympy():
    env = {**os.environ, "PYTHONPATH": str(Path(L.__file__).parents[1])}
    subprocess.run(
        [sys.executable, "-c", "import loclab, sys; assert 'sympy' not in sys.modules"],
        env=env, check=True,
    )


@pytest.fixture(scope="module")
def profile_542():
    p542 = L.validate_params(5, 4, 2)
    return L.extract_profile(L.integrate_orbit(p542, L.seed_unstable(p542)), p542)


def test_general_vs_reduced_on_profile(profile_322):
    for x in _random_unit_vectors(20, seed=23):
        assert L.general_vs_lomse_deviation(profile_322, x) < 1e-8
    assert L.general_vs_lomse_deviation(profile_322, _random_unit_vectors(20, 0)) < 1e-13


def test_general_vs_reduced_is_scale_free(profile_542):
    # the (5,4,2) profile solves its own equation, with lambda^2 = 3, not the
    # one of the Hopf values (2,2,0); in absolute form the gap was only 3.2e-9,
    # because the radii reach r_max ~ 4e15 where every term is tiny
    gap = L.general_vs_lomse_deviation(profile_542, _random_unit_vectors(20, 0))
    assert gap > 0.1


def test_general_residual_on_cone(cone_profile_322):
    # the cone solves the general equation on the sampled singular values, in
    # scale-free form r |gen| / (|phi| + |psi|), on radii in [0.5, 50]
    radii = np.geomspace(0.5, 50.0, 20)
    rho, rho_r, rho_rr = cone_profile_322.values_at(radii)
    phi = rho / radii
    size = np.abs(phi) + np.abs(rho_r - phi)
    for sv in _sampled_singular_values(5, 29):
        gen = radial_residual(rho, rho_r, rho_rr, radii, [(float(s) ** 2, 1) for s in sv])
        assert np.max(radii * np.abs(gen) / size) < 1e-14


def test_general_residual_is_scale_free(profile_322):
    # per point and radius, r |gen - red| / (|phi| + |psi|) with phi = rho/r,
    # psi = rho_r - phi
    sample = _sampled_singular_values(20, 0)
    want = 0.0
    for r in np.geomspace(profile_322.r_min, profile_322.r_max, 20).tolist():
        rho, rho_r, rho_rr = (float(v[0]) for v in profile_322.values_at([r]))
        phi = rho / r
        red = L.ode1_residual(rho, rho_r, rho_rr, r, profile_322.params)
        for sv in sample:
            gen = radial_residual(rho, rho_r, rho_rr, r, [(float(s) ** 2, 1) for s in sv])
            want = max(want, r * abs(gen - red) / (abs(phi) + abs(rho_r - phi)))
    assert math.isclose(hopf._reduced_gap(profile_322, sample), want, rel_tol=1e-12)


def test_report_fails_the_jet_check_for_a_perturbed_singular_value(monkeypatch, profile_322):
    # the general equation on the sampled singular values must agree with the
    # reduced one of (3,2,2); one value off by 1e-9 relative breaks that
    sample = L.singular_value_sample

    def perturbed(x):
        s = sample(x)
        sv = s.singular_values.copy()
        sv[3, 0] *= 1.0 + 1e-9
        return hopf.SphereSample(s.x, s.fx, s.jacobian, sv)

    name = "general vs reduced equation on random jets"
    rep = L.hopf_verify_report(profile_322, n_samples=50)
    assert next(c for c in rep["checks"] if c["name"] == name)["pass"] is True
    monkeypatch.setattr(hopf, "singular_value_sample", perturbed)
    rep = L.hopf_verify_report(profile_322, n_samples=50)
    jets = next(c for c in rep["checks"] if c["name"] == name)
    assert jets["max_deviation"] > 1e-12
    assert jets["pass"] is False and rep["pass"] is False


def test_full_report(profile_322, p322):
    rep = L.hopf_verify_report(profile=profile_322, params=p322, n_samples=200)
    assert rep["pass"], [c for c in rep["checks"] if not c["pass"]]
    names = {c["name"] for c in rep["checks"]}
    assert "singular values (2,2,0)" in names
    assert "unique LOS angle root" in names
    assert "general vs reduced equation on profile" in names


def test_report_with_a_profile_alone_checks_the_profile(profile_322, p322):
    # the profile carries its triple, so the profile check needs no params
    alone = L.hopf_verify_report(profile=profile_322, n_samples=50)
    both = L.hopf_verify_report(profile=profile_322, params=p322, n_samples=50)
    assert alone == both
    assert len(alone["checks"]) == 7 and alone["pass"]


def test_report_refuses_a_bad_sample_count(profile_322):
    for n in (0, -1, 2.0, True, "10"):
        with pytest.raises(ValueError, match="n_samples") as err:
            L.hopf_verify_report(profile_322, n_samples=n)
        assert str(err.value).endswith(f"got {n!r}")


def test_report_refuses_a_seed_that_is_no_integer(profile_322):
    for seed in (None, True, 1.5):
        with pytest.raises(ValueError, match="seed") as err:
            L.hopf_verify_report(profile_322, seed=seed)
        assert str(err.value).endswith(f"got {seed!r}")


def test_report_refuses_a_negative_seed(profile_322):
    for seed in (-1, -2**40):
        with pytest.raises(ValueError, match="seed") as err:
            L.hopf_verify_report(profile_322, seed=seed)
        assert str(err.value).endswith(f"got {seed!r}")


def test_report_refuses_a_triple_other_than_322(profile_322, p322, profile_542):
    p542 = profile_542.params
    for profile, params in ((profile_542, p542), (profile_322, p542),
                            (profile_542, p322), (profile_542, None)):
        with pytest.raises(L.WrongCase, match=r"\(5,4,2\)"):
            L.hopf_verify_report(profile, params, n_samples=50)
