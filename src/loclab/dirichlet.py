"""Multiplicity of the radial Dirichlet problem on the unit ball.

A converged orbit encodes, through its level crossings phi(t) = phi_b, the
rescaled solutions rho_d(r) = rho(d r)/d with boundary slope phi_b at r = 1.
Counting crossings therefore counts analytic solutions; at phi_b = phi0 the
spiral (TypeII) produces an accumulating sequence d_i = e^{t_i}.  Since
phi_t = psi, phi is monotone between consecutive psi-zero events, so each
branch of the orbit between them crosses a level at most once, and the count
is over the branches whose phi-range holds the level (``_find_crossings``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import geometry
from .dynamics import EventKind, Orbit, Profile, Terminal, _check_params
from .errors import DomainTooShort, InsufficientEvents, NotConverged, WrongType
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


def _find_crossings(orbit: Orbit, level: float) -> list[float]:
    """All t with phi(t) = level, ascending: one on each monotone branch of
    the orbit that holds the level.

    phi_t = psi, so phi is monotone between consecutive psi-zero events, and
    the orbit is a chain of branches: seed node, each psi-zero event, last
    node.  A branch holds the level when its phi-range does, closed at the
    seed and at the last node (a level there is crossed at that node) and
    open at the events (a level equal to an extremum is a tangency, not a
    crossing).  Its bracket is the first passage: the first node of the
    branch, in integration order, at or past the level, and the node or
    branch start before it.  Node values need not be sorted on a branch,
    because solver chatter near (phi0, 0) wiggles them within a step.  The
    bracket ends are read in one ``orbit.interpolant`` call; ``brentq``
    polishes a sign change there, and otherwise (a level on a node, up to
    the rounding of the read) the end nearer the level is the root.  Reads
    and polish use ``orbit.interpolant``, whose first read imports scipy,
    because the benchmark's tracer counts its reads (ROADMAP item 1).
    """
    ts, phi = orbit.t, orbit.phi
    evs = orbit.events_of(EventKind.PSI_ZERO)
    end_t = np.array([ts[0], *(e.t for e in evs), ts[-1]])
    end_phi = np.array([phi[0], *(e.point.phi for e in evs), phi[-1]])
    start, stop = end_phi[:-1], end_phi[1:]
    holds = (np.minimum(start, stop) < level) & (level < np.maximum(start, stop))
    holds[0] |= start[0] == level
    holds[-1] |= stop[-1] == level
    first = np.searchsorted(ts, end_t[:-1], side="right")
    last = np.searchsorted(ts, end_t[1:], side="left")
    brackets = []
    for j in np.flatnonzero(holds):
        bt = np.r_[end_t[j], ts[first[j]:last[j]], end_t[j + 1]]
        bphi = np.r_[start[j], phi[first[j]:last[j]], stop[j]]
        k = int(np.argmax((bphi - level) * (stop[j] - start[j]) >= 0.0))
        brackets.append((bt[max(k - 1, 0)], bt[k]))
    if not brackets:
        return []
    ta, tb = np.array(brackets).T
    fa, fb = (orbit.interpolant(np.r_[ta, tb])[0] - level).reshape(2, -1)
    roots = []
    for a, b, f_a, f_b in zip(ta.tolist(), tb.tolist(), fa.tolist(), fb.tolist()):
        if f_a * f_b < 0.0:
            roots.append(brentq(lambda t: orbit.interpolant(t)[0] - level, a, b,
                                xtol=1e-13, rtol=1e-15))
        else:
            roots.append(a if abs(f_a) < abs(f_b) else b)
    return sorted(roots)


def _phi_extrema(orbit: Orbit) -> tuple[float, float | None]:
    """phi1 = max phi over the orbit; phi2 = min phi after the first psi-zero
    event (TypeII only, None otherwise).  The last node is at or after that
    event."""
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

    Zero when the amplitude exceeds the orbit maximum phi1, and for a TypeI
    triple from phi0 (within ``PHI0_MATCH_TOL``) up, since the A3 invariant
    region keeps a TypeI orbit below phi0; Finite(count) from the located
    crossings otherwise; UnboundedSequence when the amplitude equals phi0
    within tolerance and the equilibrium is a spiral, in which case only the
    resolvable prefix of d_i (the ``PhiEqualsPhi0`` events) is listed with the
    fitted geometric decay rate.  The Lipschitz cone solution existing exactly
    at phi0 is flagged separately; it is not an orbit crossing.
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
    eps_window = None if phi2 is None else phi1 - phi0

    if at_phi0 and is_type2:
        crossings = [e.t for e in orbit.events_of(EventKind.PHI_EQUALS_PHI0)]
        mult = Multiplicity(MultiplicityKind.UNBOUNDED_SEQUENCE)
        rate = _decay_rate(orbit)
    elif phi_boundary > phi1 or (not is_type2 and phi_boundary > phi0 - PHI0_MATCH_TOL):
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
    profile: Profile, orbit: Orbit, params: LomseParams
) -> geometry.DensityReport:
    """Density comparison certifying that the cone is not area-minimizing.

    The rescaling radii are the d_i = e^{t_i} at the phi0 crossings; the
    density at the first of them sits strictly below the cone density.
    ``InsufficientEvents`` when the orbit converges before its first phi0
    crossing, as (5,4,6) does at the default tolerance.  ``ValueError``
    unless ``profile`` is from ``orbit`` and ``params`` its triple.
    """
    if orbit is not profile.orbit:
        raise ValueError("the profile was not extracted from this orbit")
    _check_params(orbit, params)
    if params.stability is not Stability.TYPE_II:
        raise WrongType(f"{params} is TypeI; no density gap is expected")
    report = dirichlet_multiplicity(orbit, params, params.phi0)
    radii = [d for d in report.d_values if d <= profile.r_max]
    if not radii:
        raise InsufficientEvents(
            "no phi0 crossings within the profile range: the orbit entered the "
            f"convergence ball (conv_radius {orbit.tolerances.conv_radius}) before "
            "its first phi = phi0 crossing")
    return geometry.density_report(profile, radii)
