"""The shape of the public API: a stage that takes an orbit or a profile
reads the (n, p, k) triple from it, so it takes no second copy."""

from __future__ import annotations

import inspect

import loclab as L

# entry points that keep a ``params`` argument and refuse one that differs
# from the orbit's (or, for the Hopf report, anything but (3,2,2))
KEEPS_PARAMS = {"extract_profile", "dirichlet_multiplicity", "nonminimizing_verdict",
                "hopf_verify_report"}


def test_no_public_function_takes_params_beside_an_orbit_or_profile():
    # the dataclasses Orbit and Profile hold both as fields; they are records,
    # not stages, and are left out
    both = set()
    for name in dir(L):
        obj = getattr(L, name)
        if name.startswith("_") or not inspect.isfunction(obj):
            continue
        names = set(inspect.signature(obj).parameters)
        if "params" in names and names & {"orbit", "profile"}:
            both.add(name)
    # equality, not inclusion, so the walk is seen to reach the exceptions
    assert both == KEEPS_PARAMS
