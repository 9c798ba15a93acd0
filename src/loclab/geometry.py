"""Closed-form geometric quantities of the twisted spheres/cones and the
density functionals used by the non-minimizing argument.

Conventions: ``sphere_volume(n)`` is the volume of the unit n-sphere (the
normalization of the closed-form volume ratio), ``ball_volume(d)`` the volume
of the unit ball in R^d (the normalization of the density functional).  Both
appear in the source material under the same symbol; they are kept apart here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .errors import DomainTooShort
from .params import LomseParams


def quad(func, a, b, **kwargs):
    """scipy's ``quad``, imported on first call and called nowhere in loclab.  Until ROADMAP
    item 1 the benchmark's tracer (``perfbench/tracing.py``) wraps it by name: ``install``, in
    the tracer self-test and every ``--trace 1`` run, raises AttributeError without it."""
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(func, a, b, **kwargs)


def sphere_volume(n: int) -> float:
    """Volume of the unit n-sphere: 2 pi^{(n+1)/2} / Gamma((n+1)/2)."""
    return 2.0 * math.pi ** ((n + 1) / 2) / math.gamma((n + 1) / 2)


def ball_volume(d: int) -> float:
    """Volume of the unit ball in R^d: pi^{d/2} / Gamma(d/2 + 1)."""
    return math.pi ** (d / 2) / math.gamma(d / 2 + 1)


def _half_power(base: Fraction, twice_exponent: int) -> float:
    """base^(twice_exponent/2) with the integer part done in exact rationals."""
    whole, rem = divmod(twice_exponent, 2)
    out = float(base**whole)
    if rem:
        out *= math.sqrt(float(base))
    return out


def normal_angle_cos(params: LomseParams) -> float:
    """Cosine of the constant acute angle between normal planes and the
    reference plane: cos(theta) * ((n-p)/(K-p))^(p/2)."""
    n, p, K = params.n, params.p, params.K
    cos2_theta = Fraction((n - p) * K, n * (K - p))
    return math.sqrt(float(cos2_theta)) * _half_power(Fraction(n - p, K - p), p)


def _volume_ratio(n: int, p: int, K: Fraction) -> float:
    return _half_power(Fraction(K, n), p) * _half_power(
        Fraction((n - p) * K, n * (K - p)), n - p
    )


def los_volume_ratio(params: LomseParams) -> float:
    """Volume of the twisted sphere divided by the volume of the unit n-sphere:
    (K/n)^(p/2) * ((1-p/n)/(1-p/K))^((n-p)/2)."""
    return _volume_ratio(params.n, params.p, Fraction(params.K))


def volume_ratio_product(theta: float, lam2: float, n: int, p: int) -> float:
    """Volume ratio as the product of the per-direction stretch factors
    sqrt(cos^2 t + sin^2 t l_j^2): an oracle independent of the closed form,
    valid for any twist angle and singular value (1 when lambda = 1)."""
    c2 = math.cos(theta) ** 2
    s2 = math.sin(theta) ** 2
    return (c2 + lam2 * s2) ** (p / 2) * math.cos(theta) ** (n - p)


def jordan_angles(params: LomseParams) -> list[tuple[float, int]]:
    """Tangent Jordan angles of the cone with multiplicities (p, 1, n-p)."""
    n, p, K = params.n, params.p, params.K
    return [
        (math.acos(math.sqrt((n - p) / (K - p))), p),
        (params.theta, 1),
        (0.0, n - p),
    ]


def slope_function(params: LomseParams) -> float:
    """Constant slope of the cone graph: sec of the normal-plane angle."""
    return 1.0 / normal_angle_cos(params)


@dataclass(frozen=True)
class GeometryReport:
    cos_alpha: float
    volume_ratio: float
    jordan_angles: list[tuple[float, int]]
    slope_W: float


def geometry_report(params: LomseParams) -> GeometryReport:
    return GeometryReport(
        cos_alpha=normal_angle_cos(params),
        volume_ratio=los_volume_ratio(params),
        jordan_angles=jordan_angles(params),
        slope_W=slope_function(params),
    )


def cone_density(params: LomseParams) -> float:
    """Density of the cone: (1+lambda^2 phi0^2)^(p/2) / (1+phi0^2)^(n/2).

    Not stated in closed form in the source material; derived here and
    cross-checked against the volume ratio and direct quadrature in tests.
    """
    one_plus_l2p2 = 1 + params.lambda2 * params.phi0_sq
    one_plus_p2 = 1 + params.phi0_sq
    return _half_power(one_plus_l2p2, params.p) / _half_power(one_plus_p2, params.n)


def _volume_weight(profile, r: np.ndarray) -> np.ndarray:
    """The volume integrand sqrt(1+rho_r^2) (r^2 + lambda^2 rho^2)^(p/2) r^(n-p)
    in dr at an array of radii, with one read of the profile."""
    params = profile.params
    n, p = params.n, params.p
    rho, rho_r, _ = profile.values_at(r)
    return (np.sqrt(1.0 + rho_r * rho_r)
            * (r * r + params.lambda2_float * rho * rho) ** (p / 2) * r ** (n - p))


@functools.cache
def _unit_gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes on [0, 1] and weights summing to 1, built on
    first use: ``numpy.polynomial`` is not loaded until a density needs it.
    Every caller shares the cached arrays, so they are read-only."""
    x, w = np.polynomial.legendre.leggauss(order)
    rule = 0.5 * (x + 1.0), 0.5 * w
    for a in rule:
        a.setflags(write=False)
    return rule


_MAX_BISECTIONS = 20
_SPLIT_TOL = 1e-10
_VERDICT_MARGIN = 1e-7


def _panel_sums(profile, a: np.ndarray, b: np.ndarray):
    """The 8- and 12-point Gauss-Legendre sums of the volume integrand in
    t = log r, w(r) r dt, over the panels [a_i, b_i], with one profile read."""
    (x_low, w_low), (x_high, w_high) = _unit_gauss_legendre(8), _unit_gauss_legendre(12)
    width = (b - a)[:, None]
    t = a[:, None] + width * np.concatenate([x_low, x_high])
    r = np.exp(t)
    f = _volume_weight(profile, r.ravel()).reshape(r.shape) * r * width
    return f[:, :8] @ w_low, f[:, 8:] @ w_high


def _graph_volumes(profile, radii: np.ndarray) -> np.ndarray:
    """Integral of the volume integrand over (0, d] for each d in the sorted,
    positive, non-empty array ``radii``, without the omega_n factor.

    The integral is taken in t = log r, over panels at most 1/(n+1) wide (the
    integrand grows like e^{(n+1)t}) with edges at every requested radius, from
    40/(n+1) e-folds below r_lo, the seed radius r_min or the smallest radius if
    that is less (the smallest radius for a profile that starts at r = 0).  Below
    r_lo the integrand in t is e^{(n+1)t} g, with g nondecreasing for the power
    law c r^k (k >= 2) and constant for a cone, so the piece left out is under
    e^-40 ~ 4.2e-18 of the total, below rounding.  Panels where the 8- and
    12-point rules differ by more than ``_SPLIT_TOL`` of the total are bisected
    and read again, at most 20 times.  One cumulative sum of the 12-point
    values gives every radius.
    """
    if radii[-1] > profile.r_max:
        raise DomainTooShort(f"radius d={radii[-1]} exceeds the profile's r_max={profile.r_max}")
    n = profile.params.n
    t_lo = math.log(min(profile.r_min, radii[0]) if profile.r_min > 0.0 else radii[0])
    knots = np.unique(np.concatenate([[t_lo - 40 / (n + 1), t_lo], np.log(radii)]))
    edges = [np.linspace(lo, hi, math.ceil((hi - lo) * (n + 1)) + 1)
             for lo, hi in zip(knots[:-1], knots[1:])]
    a = np.concatenate([e[:-1] for e in edges])
    b = np.concatenate([e[1:] for e in edges])
    owner = np.repeat(np.arange(len(edges)), [len(e) - 1 for e in edges])
    values, owners, threshold = [], [], None
    for depth in range(_MAX_BISECTIONS + 1):
        if a.size == 0:
            break
        low, high = _panel_sums(profile, a, b)
        if threshold is None:
            threshold = _SPLIT_TOL * abs(np.sum(high))
        split = (np.abs(high - low) > threshold) & (depth < _MAX_BISECTIONS)
        values.append(high[~split])
        owners.append(owner[~split])
        mid = 0.5 * (a[split] + b[split])
        a, b = np.concatenate([a[split], mid]), np.concatenate([mid, b[split]])
        owner = np.tile(owner[split], 2)
    per_interval = np.bincount(np.concatenate(owners), weights=np.concatenate(values),
                               minlength=len(edges))
    cumulative = np.concatenate([[0.0], np.cumsum(per_interval)])
    return cumulative[np.searchsorted(knots, np.log(radii))]


class Verdict(Enum):
    NON_MINIMIZING = "NonMinimizing"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class DensityReport:
    theta_seq: list[float]
    theta_cone: float
    verdict: Verdict


def density_report(profile, radii: list[float]) -> DensityReport:
    """Densities Vol(M cap B(R_i)) / (ball_{n+1} R_i^{n+1}) at
    R_i = sqrt(d_i^2 + rho(d_i)^2) for the rescaling radii d_i, in ascending
    order of d_i whatever the order of ``radii``, against the cone density.

    r^2 + rho^2 increases along the profile, so M cap B(R_i) is the graph
    over 0 < r <= d_i.  The cone is declared non-minimizing when the first
    density sits below the cone density by more than ``_VERDICT_MARGIN``.
    ``ValueError`` for an empty ``radii`` or a d_i that is not finite and
    positive; ``DomainTooShort`` for a d_i past r_max.
    """
    n = profile.params.n
    d = np.sort(np.asarray(radii, dtype=float))
    if d.size == 0:
        raise ValueError("density_report needs at least one radius")
    for r in d:
        if not (math.isfinite(r) and r > 0.0):
            raise ValueError(f"radius must be finite and positive, got {r}")
    R = np.hypot(d, profile.values_at(d)[0])
    vols = sphere_volume(n) * _graph_volumes(profile, d)
    thetas = (vols / (ball_volume(n + 1) * R ** (n + 1))).tolist()
    theta0 = cone_density(profile.params)
    if thetas[0] < theta0 - _VERDICT_MARGIN:
        verdict = Verdict.NON_MINIMIZING
    else:
        verdict = Verdict.INCONCLUSIVE
    return DensityReport(theta_seq=thetas, theta_cone=theta0, verdict=verdict)
