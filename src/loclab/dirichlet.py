"""Multiplicity of the radial Dirichlet problem on the unit ball.

A converged orbit encodes, through its level crossings phi(t) = phi_b, the
rescaled solutions rho_d(r) = rho(d r)/d with boundary slope phi_b at r = 1.
Counting crossings therefore counts analytic solutions; at phi_b = phi0 the
spiral (TypeII) produces an accumulating sequence d_i = e^{t_i}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import geometry
from .dynamics import EventKind, Orbit, Profile, Terminal, _check_params
from .errors import DomainTooShort, NotConverged, WrongType
from .params import LomseParams, Stability
from .roots import brentq

PHI0_MATCH_TOL = 1e-9


class MultiplicityKind(Enum):
    ZERO = "Zero"
    FINITE = "Finite"
    UNBOUNDED_SEQUENCE = "UnboundedSequence"


@dataclass(frozen=True)
class Multiplicity:
    kind: MultiplicityKind
    count: int | None = None

    def __str__(self) -> str:
        if self.kind is MultiplicityKind.FINITE:
            return f"Finite({self.count})"
        return self.kind.value


@dataclass(frozen=True)
class DirichletReport:
    phi_boundary: float
    crossing_ts: list[float]
    d_values: list[float]
    multiplicity: Multiplicity
    phi1: float
    phi2: float | None
    epsilon_window: float | None
    decay_rate: float | None
    cone_solution: bool


def _find_crossings(orbit: Orbit, level: float, refine: int = 8) -> list[float]:
    """All t with phi(t) = level, located by root-finding on the dense output.

    Each solver step is subdivided so that sign changes inside long steps are
    not missed, and ``brentq`` runs only on the bracketing subintervals.
    Duplicate roots from adjacent subintervals are merged.

    Only the steps whose polynomial can reach the level are read
    (``Orbit.steps_reaching_phi``, an exact bound), each with both of its
    neighbours, because ``OdeSolution`` reads a step's end nodes from an
    adjacent segment (the one before it under its default tie rule, in either
    direction of integration).  The grid of the kept steps is read in one
    interpolant call.  Each value read equals its value in a scan of every
    step, and no other step has a grid value on or across the level, so the
    crossings equal those of a scan of every step.  The grid and the polish
    read ``orbit.interpolant``, whose first read imports scipy, because the
    benchmark's tracer counts the reads of that object (ROADMAP item 1).
    """
    ts = orbit.t
    if len(ts) < 2:
        return []
    near = orbit.steps_reaching_phi(level)
    keep = near.copy()
    keep[1:] |= near[:-1]
    keep[:-1] |= near[1:]
    if not keep.any():
        return []
    grid = np.linspace(ts[:-1], ts[1:], refine + 1, axis=1)[keep]
    vals = orbit.interpolant(grid.ravel())[0].reshape(grid.shape) - level
    fa, fb = vals[:, :-1], vals[:, 1:]
    roots = [float(a) for a in grid[:, :-1][fa == 0.0]]
    for i, j in zip(*np.nonzero(fa * fb < 0.0)):
        roots.append(float(brentq(lambda t: orbit.interpolant(t)[0] - level, grid[i, j],
                                  grid[i, j + 1], xtol=1e-13, rtol=1e-15)))
    if keep[-1] and vals[-1, -1] == 0.0:
        roots.append(float(ts[-1]))
    merged: list[float] = []
    for t in sorted(roots):
        if not merged or t - merged[-1] > 1e-10:
            merged.append(t)
    return merged


def _phi_extrema(orbit: Orbit) -> tuple[float, float | None]:
    """phi1 = max phi over the orbit; phi2 = min phi after the first psi-zero
    event (TypeII only, None otherwise).  Some node is at or after that event:
    a forward run's last node, a backward run's seed node."""
    psi_events = orbit.events_of(EventKind.PSI_ZERO)
    phi1 = float(np.max(orbit.phi))
    if psi_events:
        phi1 = max(phi1, max(e.point.phi for e in psi_events))
    if orbit.params.stability is Stability.TYPE_I or not psi_events:
        return phi1, None
    phi2 = float(np.min(orbit.phi[orbit.t >= psi_events[0].t]))
    phi2 = min(phi2, min(e.point.phi for e in psi_events))
    return phi1, phi2


def _decay_rate(orbit: Orbit) -> float | None:
    """Geometric decay rate of |phi(T_i) - phi0| fitted over the resolvable
    psi-zero events; None when fewer than two are resolvable."""
    amps = [
        abs(e.point.phi - orbit.params.phi0)
        for e in orbit.events_of(EventKind.PSI_ZERO)
    ]
    amps = [a for a in amps if a > 0.0]
    if len(amps) < 2:
        return None
    slope = np.polyfit(np.arange(len(amps)), np.log(amps), 1)[0]
    return float(math.exp(slope))


def dirichlet_multiplicity(
    orbit: Orbit, params: LomseParams, phi_boundary: float
) -> DirichletReport:
    """Count analytic solutions to the Dirichlet problem with boundary slope
    ``phi_boundary``.

    Zero when the amplitude exceeds the orbit maximum phi1; Finite(count)
    from the located crossings otherwise; UnboundedSequence when the
    amplitude equals phi0 within tolerance and the equilibrium is a spiral,
    in which case only the resolvable prefix of d_i is listed together with
    the fitted geometric decay rate.  The Lipschitz cone solution existing
    exactly at phi0 is flagged separately; it is not an orbit crossing.
    ``params`` must be the orbit's own triple (``ValueError`` otherwise).
    A level strictly between 0 and the seed's phi is refused with
    ``DomainTooShort``: its crossing lies below r_min, off the orbit.
    """
    _check_params(orbit, params)
    if not math.isfinite(phi_boundary):
        raise ValueError(f"phi_boundary must be finite, got {phi_boundary}")
    if phi_boundary < 0:
        raise ValueError("phi_boundary must be nonnegative")
    if orbit.terminal is not Terminal.CONVERGED_TO_P1:
        raise NotConverged(f"orbit terminal is {orbit.terminal.value}")
    if 0.0 < phi_boundary < orbit.phi[0]:
        raise DomainTooShort(
            f"phi_boundary {phi_boundary} is below the seed's phi {orbit.phi[0]}: its "
            "crossing lies in the power-law piece below r_min, which the orbit does "
            "not cover; seed the orbit closer to the origin (--seed-epsilon)")

    phi0 = params.phi0
    phi1, phi2 = _phi_extrema(orbit)
    is_type2 = params.stability is Stability.TYPE_II
    at_phi0 = abs(phi_boundary - phi0) < PHI0_MATCH_TOL
    eps_window = (phi1 - phi0) if is_type2 else None

    if at_phi0 and is_type2:
        crossings = [e.t for e in orbit.events_of(EventKind.PHI_EQUALS_PHI0)]
        if not crossings:
            crossings = _find_crossings(orbit, phi0)
        mult = Multiplicity(MultiplicityKind.UNBOUNDED_SEQUENCE)
        rate = _decay_rate(orbit)
    elif phi_boundary > phi1:
        crossings = []
        mult = Multiplicity(MultiplicityKind.ZERO)
        rate = None
    else:
        crossings = _find_crossings(orbit, phi_boundary)
        mult = Multiplicity(MultiplicityKind.FINITE, count=len(crossings))
        rate = None

    return DirichletReport(
        phi_boundary=phi_boundary,
        crossing_ts=crossings,
        d_values=[math.exp(t) for t in crossings],
        multiplicity=mult,
        phi1=phi1,
        phi2=phi2,
        epsilon_window=eps_window,
        decay_rate=rate,
        cone_solution=at_phi0,
    )


def nonminimizing_verdict(
    profile: Profile, orbit: Orbit, params: LomseParams, rel_tol: float = 1e-8
) -> geometry.DensityReport:
    """Density comparison certifying that the cone is not area-minimizing.

    The rescaling radii are the d_i = e^{t_i} at the phi0 crossings; the
    density at the first of them sits strictly below the cone density.
    ``ValueError`` unless ``profile`` is from ``orbit`` and ``params`` its triple.
    """
    if orbit is not profile.orbit:
        raise ValueError("the profile was not extracted from this orbit")
    _check_params(orbit, params)
    if params.stability is not Stability.TYPE_II:
        raise WrongType(f"{params} is TypeI; no density gap is expected")
    report = dirichlet_multiplicity(orbit, params, params.phi0)
    radii = [d for d in report.d_values if d <= profile.r_max]
    if not radii:
        raise NotConverged("no phi0 crossings within the profile range")
    return geometry.density_report(profile, radii, rel_tol=rel_tol)
