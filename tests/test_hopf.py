"""The explicit Hopf map as a check of the general structure theory."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import loclab as L
from loclab import hopf
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


def test_los_condition():
    theta_star = math.acos(2 / 3)
    for x in _random_unit_vectors(100, seed=11):
        assert abs(L.los_condition_b(x, theta_star)) < 1e-9
    x = _random_unit_vectors(1, seed=13)[0]
    assert math.isclose(L.los_condition_b(x, math.pi / 4), -0.2, abs_tol=1e-12)
    # limit theta -> 0+: every summand tends to 1
    assert abs(L.los_condition_b(x, 1e-8)) < 1e-12
    with pytest.raises(ValueError):
        L.los_condition_b(x, 2.0)


def test_los_root_unique():
    theta_star = math.acos(2 / 3)
    for x in _random_unit_vectors(5, seed=17):
        root = L.los_angle_root(x, tol=1e-10)
        assert abs(root - theta_star) < 1e-9
    # sign structure: negative below the root, positive above
    x = _random_unit_vectors(1, seed=19)[0]
    assert L.los_condition_b(x, theta_star - 0.2) < 0
    assert L.los_condition_b(x, theta_star + 0.2) > 0


def test_harmonic_degree():
    rep = L.harmonic_degree_check()
    assert rep["laplacians_zero"]
    assert rep["homogeneous_degree_2"]
    assert rep["eigenvalue"] == 8
    assert rep["lambda2_times_p"] == 8
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


def test_general_vs_reduced_on_profile(profile_322, p322):
    for x in _random_unit_vectors(20, seed=23):
        assert L.general_vs_lomse_deviation(profile_322, p322, x) < 1e-8


def test_general_residual_on_cone(cone_profile_322, p322):
    cone = cone_profile_322
    cone_bounded = type(cone)(cone.phi0)
    cone_bounded.r_min, cone_bounded.r_max = 0.5, 50.0
    for x in _random_unit_vectors(5, seed=29):
        assert L.general_ode_residual(cone_bounded, x) < 1e-9


def test_ode4_equivalence(p322):
    rng = np.random.default_rng(31)
    for _ in range(100):
        r, rho, rho_r, rho_rr = rng.uniform(0.3, 3.0, 4)
        a = L.ode4_residual(rho, rho_r, rho_rr, r, m=2)
        b = L.ode1_residual(rho, rho_r, rho_rr, r, p322)
        assert abs(a - b) < 1e-12


def test_full_report(profile_322, p322):
    rep = L.hopf_verify_report(profile=profile_322, params=p322, n_samples=200)
    assert rep["pass"], [c for c in rep["checks"] if not c["pass"]]
    names = {c["name"] for c in rep["checks"]}
    assert "singular values (2,2,0)" in names
    assert "general vs reduced equation on profile" in names
