"""loclab's own copies of scipy's numerics: the DOP853 tableau it ships and
the port of ``brentq``, each against scipy itself, to the bit."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import DOP853
from scipy.optimize import brentq as scipy_brentq

import loclab as L
from loclab import dirichlet, dop853, dynamics, geometry, roots
from conftest import SWEEP, TIGHT

_EPS = float(np.finfo(float).eps)


# -- the DOP853 tableau ----------------------------------------------------------


@pytest.mark.parametrize("name", ["A", "B", "E3", "E5", "D", "A_EXTRA"])
def test_shipped_tableau_equals_scipys(name):
    ours, theirs = getattr(dop853, name), getattr(DOP853, name)
    assert ours.shape == theirs.shape and ours.dtype == theirs.dtype
    assert np.array_equal(ours, theirs)


def test_shipped_constants_equal_scipys():
    assert dop853.N_STAGES == DOP853.n_stages
    assert dop853.ERROR_ESTIMATOR_ORDER == DOP853.error_estimator_order
    assert dop853.TOO_SMALL_STEP == DOP853.TOO_SMALL_STEP


# -- brentq ----------------------------------------------------------------------


@pytest.fixture
def both_brentqs(monkeypatch):
    """Every ``brentq`` call of dynamics, dirichlet and geometry runs the port
    and scipy on the same function and bracket; the pairs of results are
    recorded and the port's is used."""
    pairs = []

    def both(f, a, b, **kwargs):
        ours = roots.brentq(f, a, b, **kwargs)
        pairs.append((ours, scipy_brentq(f, a, b, **kwargs)))
        return ours

    for module in (dynamics, dirichlet, geometry):
        monkeypatch.setattr(module, "brentq", both)
    return pairs


@pytest.mark.parametrize("tol", [L.Tolerances(), TIGHT], ids=["default", "tight"])
@pytest.mark.parametrize("triple", SWEEP)
def test_brentq_equals_scipy_on_event_roots_and_crossings(triple, tol, both_brentqs):
    p = L.validate_params(*triple)
    orbit = L.integrate_orbit(p, L.seed_unstable(p), tolerances=tol)
    n_roots = len(both_brentqs)
    assert n_roots >= len(orbit.events) + 1  # and the terminal root
    top = float(np.max(orbit.phi))
    for level in [*np.linspace(0.05, 0.95, 7) * p.phi0, 0.5 * (p.phi0 + top)]:
        L.dirichlet_multiplicity(orbit, p, float(level))
    assert len(both_brentqs) > n_roots
    for ours, theirs in both_brentqs:
        assert type(ours) is float and ours == theirs


def _horner(coefficients):
    def f(x):
        y = 0.0
        for c in coefficients:
            y = y * x + c
        return y
    return f


def test_brentq_equals_scipy_on_random_polynomial_brackets():
    rng = np.random.default_rng(1973)
    tolerances = [{}, {"xtol": 4 * _EPS, "rtol": 4 * _EPS}, {"xtol": 1e-13, "rtol": 1e-15},
                  {"xtol": 1e-3}]
    compared = 0
    while compared < 400:
        f = _horner(rng.normal(size=rng.integers(2, 9)).tolist())
        a, b = rng.uniform(-3.0, 3.0, 2).tolist()
        if (f(a) < 0) == (f(b) < 0):
            continue
        kwargs = tolerances[compared % len(tolerances)]
        assert roots.brentq(f, a, b, **kwargs) == scipy_brentq(f, a, b, **kwargs)
        compared += 1


@pytest.mark.parametrize("coefficients, a, b", [
    ([-0.23, 0.262, 0.1, -0.324], -2.197, -0.056),
    ([0.576, -0.046, -0.836, 0.57, 0.579, -1.269], -0.896, 2.055),
])
def test_brentq_equals_scipy_where_the_step_bound_binds(coefficients, a, b):
    # at xtol = 0.1 a short step here lies between 3|sbis| - delta and 3|sbis|,
    # so the bound's "- delta" decides whether it is taken
    f = _horner(coefficients)
    assert roots.brentq(f, a, b, xtol=0.1) == scipy_brentq(f, a, b, xtol=0.1)


def test_brentq_returns_an_endpoint_that_is_a_root():
    assert roots.brentq(lambda x: x, 0.0, 1.0) == scipy_brentq(lambda x: x, 0.0, 1.0) == 0.0
    assert roots.brentq(lambda x: x - 2, 0, 2) == 2.0


def _nan_at(x0):
    return lambda x: math.nan if x == x0 else x - 1.0


@pytest.mark.parametrize("f, a, b, kwargs", [
    pytest.param(lambda x: x - 5.0, 0.0, 2.0, {}, id="no-sign-change"),
    pytest.param(_nan_at(0.0), 0.0, 2.0, {}, id="nan-at-a"),
    pytest.param(_nan_at(2.0), 0.0, 2.0, {}, id="nan-at-b"),
    pytest.param(lambda x: math.nan if 0.9 < x < 1.1 else x - 1.0, 0.0, 2.0, {},
                 id="nan-inside"),
    pytest.param(lambda x: x ** 3 - 2.0, 0.0, 2.0, {"maxiter": 3}, id="maxiter-exhausted"),
    pytest.param(lambda x: x ** 3 - 2.0, 0.0, 2.0, {"maxiter": 0}, id="maxiter-0"),
    pytest.param(lambda x: x ** 3 - 2.0, 0.0, 2.0, {"maxiter": -1}, id="maxiter-negative"),
    pytest.param(lambda x: x ** 3 - 2.0, 0.0, 2.0, {"xtol": 0.0}, id="xtol-0"),
    pytest.param(lambda x: x ** 3 - 2.0, 0.0, 2.0, {"xtol": -1.0}, id="xtol-negative"),
    pytest.param(lambda x: x ** 3 - 2.0, 0.0, 2.0, {"rtol": 3.9 * _EPS}, id="rtol-below-4eps"),
])
def test_brentq_raises_scipys_errors(f, a, b, kwargs):
    with pytest.raises(Exception) as theirs:
        scipy_brentq(f, a, b, **kwargs)
    with pytest.raises(type(theirs.value)) as ours:
        roots.brentq(f, a, b, **kwargs)
    assert str(ours.value) == str(theirs.value)
