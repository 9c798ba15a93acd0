"""Closed-form geometric quantities of the twisted spheres/cones and the
density functionals used by the non-minimizing argument.

Conventions: ``sphere_volume(n)`` is the volume of the unit n-sphere (the
normalization of the closed-form volume ratio), ``ball_volume(d)`` the volume
of the unit ball in R^d (the normalization of the density functional).  Both
appear in the source material under the same symbol; they are kept apart here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .errors import DomainTooShort
from .params import LomseParams
from .roots import brentq


def quad(func, a, b, **kwargs):
    """scipy's adaptive ``quad``, imported on the first call: importing
    ``scipy.integrate`` is most of the start-up time of a command, and only
    the density quadrature needs it."""
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


def _unit_gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes on [0, 1] and weights summing to 1."""
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w


_GL_LOW, _GL_HIGH = _unit_gauss_legendre(8), _unit_gauss_legendre(12)
_MAX_BISECTIONS = 20


def _panel_sums(profile, a: np.ndarray, b: np.ndarray):
    """The 8- and 12-point Gauss-Legendre sums of the volume integrand in
    t = log r, w(r) r dt, over the panels [a_i, b_i], with one profile read."""
    width = (b - a)[:, None]
    t = a[:, None] + width * np.concatenate([_GL_LOW[0], _GL_HIGH[0]])
    r = np.exp(t)
    f = _volume_weight(profile, r.ravel()).reshape(r.shape) * r * width
    return f[:, :8] @ _GL_LOW[1], f[:, 8:] @ _GL_HIGH[1]


def _graph_volumes(profile, radii: np.ndarray, rel_tol: float) -> np.ndarray:
    """Integral of the volume integrand over (0, R] for each R in the sorted,
    positive array ``radii``, without the omega_n factor.

    ``quad`` takes the piece below r_lo, the seed radius r_min or the
    smallest radius if that is less (1e-12 of the smallest radius for a
    profile that starts at r = 0); there the profile is its closed-form
    power law.  Above r_lo the integral is taken in t = log r, over panels
    at most 1/(n+1) wide (the integrand grows like e^{(n+1)t}) with edges at
    every requested radius.  Panels where the 8- and 12-point rules differ
    by more than a hundredth of ``rel_tol`` (capped at 1e-8) of the total
    are bisected and read again, at most 20 times.  One cumulative sum of
    the 12-point values gives every radius.
    """
    if radii.size == 0:
        return radii
    if radii[-1] > profile.r_max:
        raise DomainTooShort(f"R={radii[-1]} exceeds profile range r_max={profile.r_max}")
    eps = min(rel_tol, 1e-8) * 1e-2
    r_lo = min(profile.r_min if profile.r_min > 0.0 else radii[0] * 1e-12, radii[0])
    # quad refuses an epsrel below 50 eps; this piece is about r_lo^(n+1)
    # of the total, so the floor costs nothing at any rel_tol
    base = quad(lambda r: _volume_weight(profile, np.array([r]))[0],
                0.0, r_lo, epsabs=0.0, epsrel=max(eps, 50 * np.finfo(float).eps),
                limit=200)[0]
    knots = np.unique(np.log(np.concatenate([[r_lo], radii])))
    edges = [np.linspace(lo, hi, math.ceil((hi - lo) * (profile.params.n + 1)) + 1)
             for lo, hi in zip(knots[:-1], knots[1:])]
    a = np.concatenate([[]] + [e[:-1] for e in edges])
    b = np.concatenate([[]] + [e[1:] for e in edges])
    owner = np.repeat(np.arange(len(edges)), [len(e) - 1 for e in edges])
    values, owners, threshold = [np.zeros(0)], [np.zeros(0, dtype=int)], None
    for depth in range(_MAX_BISECTIONS + 1):
        if a.size == 0:
            break
        low, high = _panel_sums(profile, a, b)
        if threshold is None:
            threshold = eps * abs(base + np.sum(high))
        split = (np.abs(high - low) > threshold) & (depth < _MAX_BISECTIONS)
        values.append(high[~split])
        owners.append(owner[~split])
        mid = 0.5 * (a[split] + b[split])
        a, b = np.concatenate([a[split], mid]), np.concatenate([mid, b[split]])
        owner = np.tile(owner[split], 2)
    per_interval = np.bincount(np.concatenate(owners), weights=np.concatenate(values),
                               minlength=len(edges))
    cumulative = base + np.concatenate([[0.0], np.cumsum(per_interval)])
    return cumulative[np.searchsorted(knots, np.log(radii))]


def _check_radius(R: float) -> None:
    if not (math.isfinite(R) and R > 0.0):
        raise ValueError(f"radius must be finite and positive, got {R}")


def graph_volume(profile, R: float, rel_tol: float = 1e-8) -> float:
    """Volume of the graph over the radial slab 0 < r <= R:
    omega_n * integral_0^R sqrt(1+rho_r^2) (r^2 + lambda^2 rho^2)^(p/2)
    r^(n-p) dr, by the panel rule of ``_graph_volumes``; 0 for R <= 0, where
    the slab is empty, and ``ValueError`` for a non-finite R."""
    if math.isfinite(R) and R <= 0.0:
        return 0.0
    _check_radius(R)
    return sphere_volume(profile.params.n) * float(
        _graph_volumes(profile, np.array([R]), rel_tol)[0])


def density_at(profile, R: float, rel_tol: float = 1e-8) -> float:
    """Density at extrinsic radius R: Vol(M cap B(R)) / (ball_{n+1} R^{n+1});
    ``ValueError`` unless R is finite and positive, and ``DomainTooShort``
    when the ball reaches past the profile's last point (r_max, rho(r_max)),
    where the part of M inside it is not known."""
    _check_radius(R)
    n = profile.params.n

    def radius_excess(r: float) -> float:
        rho = profile.values_at([r])[0][0]
        return r * r + rho * rho - R * R

    r_end = min(R, profile.r_max)
    excess = radius_excess(r_end)
    if excess < 0.0:  # only when R > r_max: at R itself the excess is rho^2
        raise DomainTooShort(f"the ball of radius R={R} reaches past the profile's "
                             f"range r_max={profile.r_max}")
    if excess == 0.0:
        r_star = r_end
    else:
        r_star = brentq(radius_excess, 0.0, r_end, xtol=1e-14 * R)
    vol = graph_volume(profile, r_star, rel_tol=rel_tol)
    return vol / (ball_volume(n + 1) * R ** (n + 1))


class Verdict(Enum):
    NON_MINIMIZING = "NonMinimizing"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class DensityReport:
    theta_seq: list[float]
    theta_cone: float
    verdict: Verdict


def density_report(profile, radii: list[float], rel_tol: float = 1e-8) -> DensityReport:
    """Density sequence at R_i = sqrt(d_i^2 + rho(d_i)^2) for the rescaling
    radii d_i, compared against the cone density.

    The cone is declared non-minimizing when the first density sits strictly
    below the cone density by more than ten quadrature tolerances.  Each d_i
    must be finite and positive (``ValueError`` otherwise).
    """
    n = profile.params.n
    d = np.sort(np.asarray(radii, dtype=float))
    for r in d:
        _check_radius(r)
    R = np.hypot(d, profile.values_at(d)[0])
    vols = sphere_volume(n) * _graph_volumes(profile, d, rel_tol)
    thetas = (vols / (ball_volume(n + 1) * R ** (n + 1))).tolist()
    theta0 = cone_density(profile.params)
    if thetas and thetas[0] < theta0 - 10.0 * rel_tol:
        verdict = Verdict.NON_MINIMIZING
    else:
        verdict = Verdict.INCONCLUSIVE
    return DensityReport(theta_seq=thetas, theta_cone=theta0, verdict=verdict)
