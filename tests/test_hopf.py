"""The explicit Hopf map as a check of the general structure theory."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

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


_EVERY_ENTRY = (L.hopf_map, L.singular_value_sample,
                lambda x: L.los_condition_b(x, 0.5), L.los_angle_root)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", _EVERY_ENTRY,
                         ids=["hopf_map", "singular_value_sample", "los_condition_b",
                              "los_angle_root"])
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


def test_los_condition_of_a_stack_is_the_per_point_calls():
    xs = _random_unit_vectors(50, seed=41)
    for theta in (1e-8, math.pi / 4, math.acos(2 / 3), 1.5):
        stack = L.los_condition_b(xs, theta)
        assert isinstance(stack, np.ndarray) and stack.shape == (50,)
        points = [L.los_condition_b(x, theta) for x in xs]
        assert all(isinstance(b, float) for b in points)
        assert stack.tolist() == points


def _one_point_root(sv, tol):
    """The one-point bisection on Python floats, the reference for the batch."""
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
        sv = L.singular_value_sample(xs).singular_values
        assert points == [_one_point_root(row.tolist(), 1e-10) for row in sv]


# three rows with Sum l^2 > 3 and Sum 1/l^2 > 3, whose roots lie apart
# (1.007, 0.723 and 0.841); the Hopf map's own rows all have the same root
_DIVERGING_SV = [[2.0, 1.5, 0.5], [3.0, 1.0, 0.0], [2.0, 2.0, 0.0]]


def test_los_angle_root_rows_that_diverge(monkeypatch):
    # near the spacing of the doubles the brackets round to different widths,
    # so at a tolerance of a few ulps the rows stop after different numbers
    # of steps: each must stop on its own
    sv = np.array(_DIVERGING_SV)
    monkeypatch.setattr(hopf, "singular_value_sample",
                        lambda x: SimpleNamespace(singular_values=sv))
    xs = _random_unit_vectors(3, seed=43)
    for tol in (1e-4, 1e-10, 1.4e-15, 7e-16, 4e-16):
        roots = L.los_angle_root(xs, tol=tol)
        assert roots.tolist() == [_one_point_root(row, tol) for row in _DIVERGING_SV]


_HANG_PROBE = """
import json, math, sys
from types import SimpleNamespace
import numpy as np
import loclab as L
from loclab import hopf
from loclab.hopf import _random_unit_vectors

xs = _random_unit_vectors(10, seed=47)
refused = []
for tol in (0.0, -1e-10, math.nan, math.inf):
    try:
        L.los_angle_root(xs[0], tol=tol)
    except ValueError:
        refused.append(True)
    else:
        refused.append(False)
roots = [L.los_angle_root(xs[0], tol=tol) for tol in (1e-16, 5e-324)]
roots += L.los_angle_root(xs, tol=1e-16).tolist()
sv = np.array(json.loads(sys.argv[1]))
hopf.singular_value_sample = lambda x: SimpleNamespace(singular_values=sv)
diverging = [L.los_angle_root(xs[:3], tol=tol).tolist() for tol in json.loads(sys.argv[2])]
print(json.dumps({"refused": refused, "roots": roots, "diverging": diverging}))
"""


def test_los_angle_root_ends_below_the_spacing_of_doubles():
    # once lo and hi are adjacent doubles the midpoint rounds onto one of
    # them; a regression here loops for ever, so it runs in a child with a
    # timeout
    tols = [1.5e-16, 1e-16, 5e-324]
    env = {**os.environ, "PYTHONPATH": str(Path(L.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", _HANG_PROBE, json.dumps(_DIVERGING_SV), json.dumps(tols)],
        env=env, check=True, capture_output=True, text=True, timeout=60)
    rep = json.loads(out.stdout)
    assert rep["refused"] == [True, True, True, True]
    assert len(rep["roots"]) == 12
    assert all(abs(r - math.acos(2 / 3)) < 1e-9 for r in rep["roots"])
    assert rep["diverging"] == [[_one_point_root(row, tol) for row in _DIVERGING_SV]
                                for tol in tols]


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


def test_general_vs_reduced_on_profile(profile_322):
    for x in _random_unit_vectors(20, seed=23):
        assert L.general_vs_lomse_deviation(profile_322, x) < 1e-8


def test_general_residual_on_cone(cone_profile_322, p322):
    cone = cone_profile_322
    cone_bounded = type(cone)(cone.params)
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


def test_report_with_a_profile_alone_checks_the_profile(profile_322, p322):
    # the profile carries its triple, so the profile check needs no params
    alone = L.hopf_verify_report(profile=profile_322, n_samples=50)
    both = L.hopf_verify_report(profile=profile_322, params=p322, n_samples=50)
    assert alone == both
    assert len(alone["checks"]) == 7 and alone["pass"]


def test_report_refuses_a_bad_sample_count():
    for n in (0, -1):
        with pytest.raises(ValueError, match="n_samples"):
            L.hopf_verify_report(n_samples=n)


def test_report_refuses_a_triple_other_than_322(profile_322, p322):
    p542 = L.validate_params(5, 4, 2)
    profile_542 = L.extract_profile(L.integrate_orbit(p542, L.seed_unstable(p542)), p542)
    for profile, params in ((profile_542, p542), (profile_322, p542),
                            (profile_542, p322), (None, p542), (profile_542, None)):
        with pytest.raises(L.WrongCase, match=r"\(5,4,2\)"):
            L.hopf_verify_report(profile, params, n_samples=50)
