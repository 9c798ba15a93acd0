"""Shared fixtures: parameter triples and the expensive orbit integrations
are session-scoped so each is computed once."""

from __future__ import annotations

import math

import numpy as np
import pytest

import loclab as L
from loclab.dop853 import StepTable
from loclab.dynamics import EventKind, Tolerances

# tight enough to resolve the fourth oscillation of the (3,2,4) spiral
TIGHT = Tolerances(abs_tol=1e-13, rel_tol=1e-13, conv_radius=1e-11)


def step_table(sol) -> StepTable:
    """The step table of an ``OdeSolution`` of ``Dop853DenseOutput`` steps."""
    return StepTable(*(np.array([getattr(s, name) for s in sol.interpolants])
                       for name in ("t_old", "t", "y_old", "F")))


def holding_branches(orbit, level: float) -> list[tuple[float, float]]:
    """The time spans, ascending, of the orbit's monotone branches (seed node,
    each psi-zero event, last node) whose phi-range holds ``level``: closed at
    the seed and at the last node, open at the events."""
    events = orbit.events_of(EventKind.PSI_ZERO)
    ends = [(orbit.t[0], orbit.phi[0]), *((e.t, e.point.phi) for e in events),
            (orbit.t[-1], orbit.phi[-1])]
    spans = []
    for j, ((ta, pa), (tb, pb)) in enumerate(zip(ends, ends[1:])):
        if (min(pa, pb) < level < max(pa, pb) or (j == 0 and pa == level)
                or (j == len(ends) - 2 and pb == level)):
            spans.append((float(ta), float(tb)))
    return spans


def assert_branch_roots(orbit, level: float, roots: list[float], oracle=()) -> None:
    """``roots`` are one crossing, ascending, on each branch that holds
    ``level``, each within 1e-12 of it in phi; every ``oracle`` root is one of
    them within |dt| |psi| <= 1e-12.  A TypeI orbit's tail, within
    100 rel_tol of phi0, is exempt from the oracle match: there the solver's
    sub-step wiggles cross the level with no psi-zero event between them, so a
    grid scan counts each wiggle and the branch count does not."""
    spans = holding_branches(orbit, level)
    assert roots == sorted(roots) and len(roots) == len(spans)
    for t, (a, b) in zip(roots, spans):
        assert a <= t <= b
    if roots:
        assert np.all(np.abs(orbit.read(np.array(roots))[0][0] - level) <= 1e-12)
    p = orbit.params
    if (p.stability is L.Stability.TYPE_I
            and abs(level - p.phi0) <= 100 * orbit.tolerances.rel_tol * p.phi0):
        return
    if len(oracle):
        psi = orbit.read(np.array(oracle))[0][1]
        for t_o, s in zip(oracle, psi):
            assert min((abs(t - t_o) for t in roots), default=math.inf) * abs(s) <= 1e-12


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
