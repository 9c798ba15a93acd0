"""The shape of the public API: a stage that takes an orbit or a profile
reads the (n, p, k) triple from it, so it takes no second copy, and every
parameter with a default is one that a caller outside the tests sets."""

from __future__ import annotations

import inspect

import loclab as L
from loclab import serialize

# entry points that keep a ``params`` argument and refuse one that differs
# from the orbit's (or, for the Hopf report, anything but (3,2,2))
KEEPS_PARAMS = {"extract_profile", "dirichlet_multiplicity", "nonminimizing_verdict",
                "hopf_verify_report"}

# each public parameter with a default, and the caller outside the tests that
# sets it; a value that no such caller sets is a constant, not a parameter
SETTABLE = {
    ("barrier_certificate_A3", "grid_resolution"):
        "perfbench/test_perfbench.py: 64 points in the tracer self-test",
    ("hopf_verify_report", "params"): "perfbench/workloads.py: hopf-battery",
    ("hopf_verify_report", "n_samples"): "perfbench/workloads.py: hopf-battery",
    ("hopf_verify_report", "seed"): "perfbench/workloads.py: one seed per hopf-battery op",
    ("integrate_orbit", "t_max"): "cli: --t-max",
    ("integrate_orbit", "tolerances"):
        "cli: --abs-tol and --rel-tol; tools/orbit_digest.py; perfbench/workloads.py",
    ("seed_unstable", "epsilon"): "cli: --seed-epsilon",
    ("validate_params", "relaxed"): "cli: --relaxed",
}


def _public_functions():
    for name in dir(L):
        obj = getattr(L, name)
        if not name.startswith("_") and inspect.isfunction(obj):
            yield name, obj


def test_no_public_function_takes_params_beside_an_orbit_or_profile():
    # the dataclasses Orbit and Profile hold both as fields; they are records,
    # not stages, and are left out
    both = set()
    for name, obj in _public_functions():
        names = set(inspect.signature(obj).parameters)
        if "params" in names and names & {"orbit", "profile"}:
            both.add(name)
    # equality, not inclusion, so the walk is seen to reach the exceptions
    assert both == KEEPS_PARAMS


def test_every_default_is_set_by_a_caller_outside_the_tests():
    walked = [*_public_functions(), ("serialize.dumps", serialize.dumps)]
    defaulted = {(name, p.name) for name, obj in walked
                 for p in inspect.signature(obj).parameters.values()
                 if p.default is not p.empty}
    assert defaulted == set(SETTABLE)
