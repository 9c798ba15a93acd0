"""The explicit Hopf map as a check of the general structure theory."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
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
    assert np.array_equal(L.singular_value_sample(xs).jacobian, _reference_jacobian(xs))
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


def _bound(s, lam2=4.0):
    """Per point, the larger of the two residuals: the report's bound on the
    deviation of the singular values from (lam, ..., lam, 0)."""
    return np.maximum(*hopf._submersion_residuals(s, lam2))


def _svd_deviation(s, lam=2.0):
    """Per point, max_j |s_j - (lam, ..., lam, 0)_j| over the SVD of the sampled J."""
    svd = np.linalg.svd(s.jacobian, compute_uv=False)
    return np.max(np.abs(svd - np.append(np.full(svd.shape[-1] - 1, lam), 0.0)), axis=-1)


def _with_gram(s, jac):
    return hopf.SphereSample(s.x, s.fx, jac, jac @ np.swapaxes(jac, -1, -2))


def _tilted_along_the_fiber(s, eps=1e-6):
    """J + eps f v^T, for v = (-x2, x1, -x4, x3) the unit tangent of the Hopf
    fiber through x, where J v = 0: the zero singular value becomes eps, while
    J J^T moves only by eps^2 f f^T, below the 1e-9 bound."""
    v = s.x[..., [1, 0, 3, 2]] * [-1.0, 1.0, -1.0, 1.0]
    return _with_gram(s, s.jacobian + eps * s.fx[..., :, None] * v[..., None, :])


def _scaled(s, eta=1e-8):
    """(1 + eta) J: the singular values (2, 2) move by 2 eta, J^T f stays 0 and
    J J^T stays proportional to I - f f^T."""
    return _with_gram(s, (1.0 + eta) * s.jacobian)


def _flipped_table():
    q = hopf._HOPF_Q.copy()
    q[0, 0, 2] = q[0, 2, 0] = -1
    return q


def _table_off_by_1e9():
    q = hopf._HOPF_Q.astype(float)
    q[0, 0, 2] = q[0, 2, 0] = 1.0 + 1e-9
    return q


def test_singular_values_constant():
    worst = 0.0
    for x in _random_unit_vectors(1000, seed=3):
        worst = max(worst, float(_bound(L.singular_value_sample(x))))
    assert worst < 1e-9
    # lambda = sqrt(k(k+n-1)/p) = 2 and Gram trace = 2 lambda^2 = 8
    p = L.validate_params(3, 2, 2)
    assert p.lam == 2.0
    x = _random_unit_vectors(1, seed=5)[0]
    assert math.isclose(float(np.trace(L.singular_value_sample(x).gram)), 8.0, rel_tol=1e-12)


def test_singular_values_match_the_svd():
    # the eigenvalues of the Gram matrix are the squared singular values of J,
    # within 1e-14 |G| = 4e-14
    s = L.singular_value_sample(_random_unit_vectors(1000, seed=61))
    svd = np.linalg.svd(s.jacobian, compute_uv=False)
    assert np.max(np.abs(np.linalg.eigvalsh(s.gram)[:, ::-1] - svd**2)) <= 4e-14


def test_singular_values_of_a_flipped_table_match_the_svd(monkeypatch):
    # the table of test_report_reads_a_patched_table_with_one_pair_flipped
    # gives a full-rank Gram matrix: s3 lies far above rounding level
    monkeypatch.setattr(hopf, "_HOPF_Q", _flipped_table())
    s = L.singular_value_sample(_random_unit_vectors(1000, 0))
    svd = np.linalg.svd(s.jacobian, compute_uv=False)
    assert np.min(svd[:, 2]) > 1e-4
    top = svd[:, :1] ** 2
    assert np.max(np.abs(np.linalg.eigvalsh(s.gram)[:, ::-1] - svd**2) / top) <= 1e-14


@pytest.mark.parametrize("scale", [1.0 + 9e-10, 1.0 - 9e-10], ids=["outside", "inside"])
def test_zero_singular_value_off_the_unit_sphere(scale):
    # |x| - 1 within SPHERE_TOL passes the sphere check, but there I - x x^T
    # is no projector: x/|x| is a right singular vector of the projected J,
    # with s3 = 2 |x| | 1 - |x|^2 | = 3.6e-9, and J^T f / |f| has that same
    # length.  So the tangent residual reads the SVD's s3, and the check
    # still fails
    xs = scale * _random_unit_vectors(1000, seed=67)
    s = L.singular_value_sample(xs)
    svd = np.linalg.svd(s.jacobian, compute_uv=False)
    tangent, _ = hopf._submersion_residuals(s, 4.0)
    assert np.min(svd[:, 2]) > 1e-9
    assert np.max(np.abs(tangent - svd[:, 2])) <= 1e-14
    assert np.min(_bound(s)) > 1e-9


# (table, radius of the sampled points, change to the sample) per case
_BOUND_CASES = {
    "hopf": (None, 1.0, None),
    "flipped-table": (_flipped_table, 1.0, None),
    "table-off-by-1e-9": (_table_off_by_1e9, 1.0, None),
    "off-the-sphere": (None, 1.0 + 9e-10, None),
    "tilted-along-the-fiber": (None, 1.0, _tilted_along_the_fiber),
    "scaled-by-1e-8": (None, 1.0, _scaled),
}


@pytest.mark.parametrize("case", _BOUND_CASES)
def test_bound_is_at_least_the_svd_deviation(case, monkeypatch):
    # by Weyl and Rayleigh the bound is never below the singular-value
    # deviation in exact arithmetic; in floats it is, on some rows, by a few
    # ulps.  It fails every case but the Hopf map
    table, radius, change = _BOUND_CASES[case]
    if table is not None:
        monkeypatch.setattr(hopf, "_HOPF_Q", table())
    s = L.singular_value_sample(radius * _random_unit_vectors(1000, seed=83))
    if change is not None:
        s = change(s)
    bound = _bound(s)
    assert np.all(bound >= _svd_deviation(s) - 1e-14)
    assert bool(np.max(bound) < 1e-9) is (case == "hopf")


def _singular_value_check(profile, table, monkeypatch) -> tuple[dict, bool, float]:
    """The report's singular-value check on ``table``, its pass flag, and the
    largest SVD deviation on the report's sample."""
    monkeypatch.setattr(hopf, "_HOPF_Q", table)
    rep = L.hopf_verify_report(profile)
    check = next(c for c in rep["checks"] if c["name"] == "singular values (2,2,0)")
    svd_dev = np.max(_svd_deviation(L.singular_value_sample(_random_unit_vectors(1000, 0))))
    return check, rep["pass"], float(svd_dev)


def test_report_reads_a_patched_table_with_one_pair_flipped(monkeypatch, profile_322):
    check, passed, svd_dev = _singular_value_check(profile_322, _flipped_table(), monkeypatch)
    assert math.isclose(svd_dev, 1.9708, rel_tol=1e-4)
    assert check["max_deviation"] >= svd_dev
    assert check["pass"] is False and passed is False


def test_report_reads_a_patched_table_with_one_pair_off_by_1e9(monkeypatch, profile_322):
    # the singular values move by about 2e-9, past the 1e-9 bound, and the
    # bound reads at least that
    check, passed, svd_dev = _singular_value_check(profile_322, _table_off_by_1e9(), monkeypatch)
    assert svd_dev > 1.9e-9
    assert check["max_deviation"] >= svd_dev
    assert check["pass"] is False and passed is False


def test_report_reads_lambda_from_the_triple(monkeypatch, profile_322):
    # a sample scaled by 1 + 1e-8 keeps both identities up to the factor, so
    # only lambda^2 = 4 of the (3,2,2) triple, not one read from the sample,
    # sees its singular values 2 (1 + 1e-8)
    sample = L.singular_value_sample
    monkeypatch.setattr(hopf, "singular_value_sample", lambda x: _scaled(sample(x)))
    rep = L.hopf_verify_report(profile_322, n_samples=50)
    check = next(c for c in rep["checks"] if c["name"] == "singular values (2,2,0)")
    assert check["max_deviation"] >= 2e-8
    assert check["pass"] is False and rep["pass"] is False


def _quaternion_product(p, q):
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return np.array([a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2, a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
                     a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2, a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2])


def _quaternionic_hopf_table():
    """The (5,8,8) table of S^7 -> S^4, (u, v) -> (|u|^2 - |v|^2, 2 u conj(v)).
    Entry c of 2 u conj(v) is 2 u^T B_c v, with B_c[i, j] entry c of
    e_i conj(e_j), so its form on x = (u, v) is [[0, B_c], [B_c^T, 0]]."""
    eye, zero = np.eye(4, dtype=int), np.zeros((4, 4), dtype=int)
    conj = np.array([1, -1, -1, -1])
    b = np.array([[_quaternion_product(eye[i], conj * eye[j]) for j in range(4)]
                  for i in range(4)])
    return np.array([np.block([[eye, zero], [zero, -eye]]),
                     *(np.block([[zero, bc], [bc.T, zero]]) for bc in b.transpose(2, 0, 1))])


def test_the_same_code_runs_the_quaternionic_hopf_table(monkeypatch):
    q = _quaternionic_hopf_table()
    assert q.shape == (5, 8, 8) and np.issubdtype(q.dtype, np.integer)
    assert np.all(np.trace(q, axis1=1, axis2=2) == 0)
    monkeypatch.setattr(hopf, "_HOPF_Q", q)
    assert L.harmonic_degree_check()["pass"]
    s = L.singular_value_sample(_random_unit_vectors(1000, seed=97))
    assert s.x.shape == (1000, 8) and s.gram.shape == (1000, 5, 5)
    assert np.max(np.abs(np.linalg.norm(s.fx, axis=-1) - 1.0)) <= 1e-14
    tangent, normal = hopf._submersion_residuals(s, 4.0)
    assert np.max(tangent) <= 1e-14 and np.max(normal) <= 1e-14
    assert np.all(_bound(s) >= _svd_deviation(s) - 1e-14)
    # at lambda^2 = 28 the Frobenius residual reads 24 |I - f f^T|_F / sqrt(28) = 9.07
    assert math.isclose(np.min(_bound(s, 28.0)), 48 / math.sqrt(28), rel_tol=1e-12)

    flipped = q.copy()
    flipped[1, 0, 4] = flipped[1, 4, 0] = -flipped[1, 0, 4]
    monkeypatch.setattr(hopf, "_HOPF_Q", flipped)
    s = L.singular_value_sample(_random_unit_vectors(1000, seed=97))
    assert np.max(_bound(s)) > 1e-9
    assert np.all(_bound(s) >= _svd_deviation(s) - 1e-14)


def _sampled_squares(n_samples, seed):
    """The squared singular values of the sampled points, one row per point."""
    return np.linalg.eigvalsh(L.singular_value_sample(_random_unit_vectors(n_samples, seed)).gram)


def test_los_condition():
    theta_star = math.acos(2 / 3)
    assert np.max(np.abs(hopf._los_residual(_sampled_squares(100, 11), theta_star))) < 1e-9
    l2 = _sampled_squares(1, 13)[0]
    assert math.isclose(hopf._los_residual(l2, math.pi / 4), -0.2, abs_tol=1e-12)
    # limit theta -> 0+: every summand tends to 1
    assert abs(hopf._los_residual(l2, 1e-8)) < 1e-12


def test_los_root_unique():
    theta_star = math.acos(2 / 3)
    for x in _random_unit_vectors(5, seed=17):
        root = L.los_angle_root(x)
        assert abs(root - theta_star) < 1e-9
    # sign structure: negative below the root, positive above
    l2 = _sampled_squares(1, 19)[0]
    assert hopf._los_residual(l2, theta_star - 0.2) < 0
    assert hopf._los_residual(l2, theta_star + 0.2) > 0


def _one_point_root(l2, tol):
    """A one-point bisection on Python floats, the reference for the closed form."""
    def residual(theta):
        c2, s2 = math.cos(theta) ** 2, math.sin(theta) ** 2
        return sum(1.0 / (c2 + s2 * lj) for lj in l2) - 3.0

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
    rows = np.square(_DIVERGING_SV)
    for root, row in zip(hopf._los_root(rows), rows.tolist()):
        assert abs(root - _one_point_root(row, 1e-15)) <= 1e-14
    xs = _random_unit_vectors(200, seed=59)
    roots = L.los_angle_root(xs)
    worst = max(abs(root - _one_point_root(row.tolist(), 1e-15))
                for root, row in zip(roots, _sampled_squares(200, 59)))
    assert worst <= 1e-14
    # eigvalsh reads the zero eigenvalue of G within a few ulps of |G| = 4,
    # and the root moves by 0.67 times that
    assert np.max(np.abs(roots - math.acos(2 / 3))) <= 2e-15


@pytest.mark.parametrize("big", [1e8, 1e10, 1e12])
def test_los_root_takes_the_form_without_cancellation(big):
    # on rows (L, L, 0), b = 2 (2L - L^2) < 0 and 4 a |c| / b^2 ~ 2/L, so
    # -2c / (b + d) would lose about log10(L) digits; the reference root is
    # the same quadratic formula in 50-digit arithmetic
    root = hopf._los_root(np.array([big, big, 0.0]))
    with mpmath.workdps(50):
        el = mpmath.mpf(big)
        a, b, c = el * el, 2 * (2 * el - el * el), 3 - 2 * el
        want = mpmath.atan(mpmath.sqrt((mpmath.sqrt(b * b - 4 * a * c) - b) / (2 * a)))
    assert abs(root - want) <= 1e-15 * want


# every element drawn on its own: no fill value repeats one row down a stack
_SV = arrays(float, (40, 3), elements=st.floats(0.0, 10.0), fill=st.nothing())


@settings(max_examples=20, deadline=None)
@given(sv=_SV)
def test_closed_form_root_solves_the_condition(sv):
    # 20 stacks of 40 rows; the rows with a unique root are checked at once
    squares = sv * sv
    l1, l2, l3 = squares.T
    squares = squares[(l1 + l2 + l3 > 3.0) & (l1 * l2 + l1 * l3 + l2 * l3 > 3.0 * l1 * l2 * l3)]
    assume(len(squares) > 0)
    root = hopf._los_root(squares)
    assert np.all((0.0 < root) & (root < math.pi / 2))
    assert np.max(np.abs(hopf._los_residual(squares, root))) <= 1e-12


def test_rows_without_a_unique_root_give_nan():
    # (1,1,1) solves the condition at every angle; (1,1,0.5) has Sum sv^2 < 3,
    # so Q has two roots of one sign or none.  The next two rows sit on the
    # edges of the condition: their squares, in floats, give Q no constant
    # term (the root u = 0, theta = 0) and no square term (u = -1/4)
    rows = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.5], [1.2, 1.2489995996796797, 0.0],
                     [2.0, 2.0, 0.6324555320336759], [math.nan, 2.0, 0.0], [2.0, 2.0, 0.0]])
    roots = hopf._los_root(np.square(rows))
    assert np.isnan(roots[:5]).all() and abs(roots[5] - math.acos(2 / 3)) <= 2.3e-16


def _with_singular_values(row):
    """``singular_value_sample`` with every Gram matrix diag(row^2), whose
    eigenvalues eigvalsh reads back exactly."""
    sample = L.singular_value_sample

    def patched(x):
        s = sample(x)
        gram = np.broadcast_to(np.diag(np.square(row)), s.gram.shape)
        return hopf.SphereSample(s.x, s.fx, s.jacobian, gram)

    return patched


@pytest.mark.parametrize("row", [[1.0, 1.0, 1.0], [3.0, 1.0, 0.0]], ids=["no-root", "other-root"])
def test_report_fails_the_root_check_off_the_hopf_values(monkeypatch, row, profile_322):
    monkeypatch.setattr(hopf, "singular_value_sample", _with_singular_values(row))
    rep = L.hopf_verify_report(profile_322, n_samples=50)
    root = next(c for c in rep["checks"] if c["name"] == "unique LOS angle root")
    assert root["pass"] is False and rep["pass"] is False


def test_report_without_a_root_is_json(monkeypatch, profile_322):
    # a row without a unique root counts as pi/2 off, so the report has no NaN
    monkeypatch.setattr(hopf, "singular_value_sample", _with_singular_values([1.0, 1.0, 1.0]))
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


def test_deviation_of_a_stack_of_stacks_is_that_of_its_rows(profile_322):
    xs = _random_unit_vectors(6, seed=89)
    deviation = L.general_vs_lomse_deviation(profile_322, xs)
    assert L.general_vs_lomse_deviation(profile_322, xs.reshape(2, 3, 4)) == deviation


def test_deviation_refuses_an_empty_stack(profile_322):
    with pytest.raises(ValueError, match=r"^x must hold at least one point, got shape \(0, 4\)$"):
        L.general_vs_lomse_deviation(profile_322, np.empty((0, 4)))


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
    for l2 in _sampled_squares(5, 29):
        gen = radial_residual(rho, rho_r, rho_rr, radii, [(float(lj), 1) for lj in l2])
        assert np.max(radii * np.abs(gen) / size) < 1e-14


def test_general_residual_is_scale_free(profile_322):
    # per point and radius, r |gen - red| / (|phi| + |psi|) with phi = rho/r,
    # psi = rho_r - phi
    sample = _sampled_squares(20, 0)
    want = 0.0
    for r in np.geomspace(profile_322.r_min, profile_322.r_max, 20).tolist():
        rho, rho_r, rho_rr = (float(v[0]) for v in profile_322.values_at([r]))
        phi = rho / r
        red = L.ode1_residual(rho, rho_r, rho_rr, r, profile_322.params)
        for l2 in sample:
            gen = radial_residual(rho, rho_r, rho_rr, r, [(float(lj), 1) for lj in l2])
            want = max(want, r * abs(gen - red) / (abs(phi) + abs(rho_r - phi)))
    assert math.isclose(hopf._reduced_gap(profile_322, sample), want, rel_tol=1e-12)


def test_report_fails_the_jet_check_for_a_perturbed_singular_value(monkeypatch, profile_322):
    # the general equation on the sampled singular values must agree with the
    # reduced one of (3,2,2); one value off by 1e-9 relative breaks that
    sample = L.singular_value_sample

    def perturbed(x):
        s = sample(x)
        gram = s.gram.copy()
        gram[3] = np.diag(np.square([2.0 * (1.0 + 1e-9), 2.0, 0.0]))
        return hopf.SphereSample(s.x, s.fx, s.jacobian, gram)

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
