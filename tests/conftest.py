"""Shared fixtures: parameter triples and the expensive orbit integrations
are session-scoped so each is computed once."""

from __future__ import annotations

import math

import numpy as np
import pytest

import loclab as L
from loclab.dynamics import Tolerances

# tight enough to resolve the fourth oscillation of the (3,2,4) spiral
TIGHT = Tolerances(abs_tol=1e-13, rel_tol=1e-13, conv_radius=1e-11)
# a backward run from the seed to t = -5 resolves phi down to about 1e-12
BACKWARD = Tolerances(abs_tol=1e-16, rel_tol=1e-12)


@pytest.fixture(scope="session")
def p322():
    return L.validate_params(3, 2, 2)


@pytest.fixture(scope="session")
def p324():
    return L.validate_params(3, 2, 4)


@pytest.fixture(scope="session")
def p546():
    return L.validate_params(5, 4, 6)


@pytest.fixture(scope="session")
def orbit_322(p322):
    return L.integrate_orbit(p322, L.seed_unstable(p322, 1e-8))


@pytest.fixture(scope="session")
def orbit_324(p324):
    return L.integrate_orbit(p324, L.seed_unstable(p324, 1e-8), tolerances=TIGHT)


@pytest.fixture(scope="session")
def orbit_324_backward(p324):
    return L.integrate_orbit(p324, L.seed_unstable(p324, 1e-8), t_max=-5.0,
                             tolerances=BACKWARD)


@pytest.fixture(scope="session")
def orbit_546(p546):
    tol = Tolerances(abs_tol=1e-13, rel_tol=1e-13, conv_radius=1e-12)
    return L.integrate_orbit(p546, L.seed_unstable(p546, 1e-8), tolerances=tol)


@pytest.fixture(scope="session")
def profile_322(orbit_322, p322):
    return L.extract_profile(orbit_322, p322)


@pytest.fixture(scope="session")
def profile_324(orbit_324, p324):
    return L.extract_profile(orbit_324, p324)


class ConeProfile:
    """Exact cone rho = phi0 r of a triple, defined on all of (0, inf);
    ``slope`` replaces the triple's phi0 (0 gives the flat plane)."""

    def __init__(self, params, slope: float | None = None):
        self.params = params
        self.phi0 = params.phi0 if slope is None else slope
        self.r_min = 0.0
        self.r_max = math.inf

    def values_at(self, r):
        r = np.asarray(r, dtype=float)
        return self.phi0 * r, np.full_like(r, self.phi0), np.zeros_like(r)


@pytest.fixture(scope="session")
def cone_profile_322(p322):
    return ConeProfile(p322)


SWEEP = [
    (3, 2, 2),
    (3, 2, 4),
    (3, 2, 6),
    (5, 4, 2),
    (5, 4, 4),
    (5, 4, 6),
    (7, 4, 2),
    (15, 8, 2),
]
