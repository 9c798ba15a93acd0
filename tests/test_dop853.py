"""The DOP853 solver module on its own: its two step-polynomial readers, and
a field that is not loclab's."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import loclab as L
from loclab import dop853
from conftest import SWEEP, TIGHT, step_table

_TOLERANCES = {"default": L.Tolerances(), "tight": TIGHT,
               "1e-8": L.Tolerances(abs_tol=1e-8, rel_tol=1e-8)}


@pytest.mark.parametrize("tol", _TOLERANCES.values(), ids=_TOLERANCES.keys())
@pytest.mark.parametrize("triple", SWEEP)
def test_array_and_scalar_step_readers_agree_bit_for_bit(triple, tol):
    # StepTable.read serves the arrays, _step_state serves brentq one float
    # at a time; both must give the same state inside every step
    p = L.validate_params(*triple)
    steps = L.integrate_orbit(p, L.seed_unstable(p), tolerances=tol).steps
    h = steps.t_new - steps.t_old
    for x in (0.25, 0.5, 0.75):
        t = steps.t_old + x * h
        (phi, psi), _ = steps.read(t)
        scalar = [dop853._step_state(*row)(ti) for row, ti in zip(
            zip(steps.t_old.tolist(), h.tolist(), steps.y_old.tolist(), steps.F), t.tolist())]
        assert phi.tolist() == [a for a, _ in scalar]
        assert psi.tolist() == [b for _, b in scalar]


def _oscillator(x, y, args):
    """The linear oscillator x' = y, y' = -x; takes arrays."""
    return y, -x


@pytest.mark.parametrize("rtol, atol", [(1e-10, 1e-10), (1e-6, 1e-8)])
def test_solve_integrates_a_field_that_is_not_loclabs(rtol, atol):
    # y = 0 twice a turn, non-terminal; x rising through 0.5 ends the run
    # within the first turn, after both of them
    events = [(lambda x, y: y, 0, False), (lambda x, y: x - 0.5, 1, True)]
    t, y, steps, t_events, status, _ = dop853.solve(
        _oscillator, None, 0.0, (1.0, 0.25), 20.0, rtol, atol, events)
    wrapped = []
    for g, direction, terminal in events:
        def ev(t, y, g=g):
            return g(*y)
        ev.direction, ev.terminal = direction, terminal
        wrapped.append(ev)
    ref = solve_ivp(lambda t, y: _oscillator(*y.tolist(), None), (0.0, 20.0), [1.0, 0.25],
                    method="DOP853", dense_output=True, rtol=rtol, atol=atol, events=wrapped)
    assert status == ref.status == 1
    assert np.array_equal(t, ref.t) and np.array_equal(y, ref.y)
    assert all(np.array_equal(a, b) for a, b in zip(steps, step_table(ref.sol)))
    assert t_events == [list(te) for te in ref.t_events]
    assert len(t_events[0]) == 2 and len(t_events[1]) == 1
