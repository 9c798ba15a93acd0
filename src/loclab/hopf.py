"""Desk-scale checks of the structure theory on the explicit Hopf map S^3 -> S^2.

The quadratic realization H(x) = (2(x1 x3 + x2 x4), 2(x2 x3 - x1 x4),
x1^2 + x2^2 - x3^2 - x4^2) is the one closed-form LOMSE available, of
(3,2,2)-type with constant singular values (2, 2, 0).  Its components are
stated once, as the integer quadratic forms x^T Q_c x of ``_HOPF_Q``.
Everything the general theory predicts for it (singular values, harmonicity,
the LOS angle condition, agreement of the general and reduced minimality
equations) is verified here by direct computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import Profile, ode1_residual, radial_residual
from .errors import NotOnSphere, WrongCase
from .params import LomseParams, _integer

SPHERE_TOL = 1e-9
_N_RADII = 20


def _check_unit(x) -> np.ndarray:
    """A 4-vector, or a stack of them along the last axis, on the unit sphere."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != 4:
        raise NotOnSphere(f"expected 4-vectors, got shape {x.shape}")
    norms = np.linalg.norm(x, axis=-1)
    off = np.flatnonzero(~(np.abs(norms - 1.0) <= SPHERE_TOL))  # also refuses NaN
    if off.size:  # name the first point off the sphere, and its row in a stack
        at = f"row {off[0]} of {norms.size}: " if norms.ndim else ""
        raise NotOnSphere(f"{at}|x| = {float(norms.flat[off[0]])} is not 1 within {SPHERE_TOL}")
    return x


# H_c(x) = x^T Q_c x, one symmetric integer matrix per component of H
_HOPF_Q = np.array(
    [
        [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]],
        [[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]],
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
    ]
)
_HOPF_Q.setflags(write=False)


def _gradients(x: np.ndarray) -> np.ndarray:
    """The gradients 2 Q_c x of the quadratic forms, shape (..., 3, 4) for x of
    shape (..., 4), as one product with the table laid out as a (4, 12) matrix.
    Each row of each Q_c holds one entry of +-1, so every entry is exact."""
    table = 2 * _HOPF_Q.transpose(2, 0, 1).reshape(4, 12)
    return (x @ table).reshape(*x.shape[:-1], 3, 4)


def hopf_map(x) -> np.ndarray:
    """The Hopf map S^3 -> S^2 in quadratic coordinates; ``x`` is a 4-vector
    or a stack of them along the last axis."""
    x = _check_unit(x)
    return 0.5 * (_gradients(x) @ x[..., None])[..., 0]


def _tangent_jacobian(x: np.ndarray) -> np.ndarray:
    """Ambient Jacobian 2 Q_c x of the quadratic forms projected onto
    T_x S^3, shape (..., 3, 4) for x of shape (..., 4)."""
    return _gradients(x) @ (np.eye(4) - x[..., :, None] * x[..., None, :])


def _det_with_row(jac: np.ndarray, x: np.ndarray) -> np.ndarray:
    """det [J; x^T] for J of shape (..., 3, 4) and x of shape (..., 4), by
    Laplace expansion along the rows a, b of J: over the six column pairs
    (i, j), the signed minor a_i b_j - a_j b_i times the minor of the row c
    of J and x on the complementary pair (k, l).  Elementwise, so one point
    gives bit for bit its row of a stack."""
    a, b, c = np.moveaxis(jac, -2, 0)

    def minor(u, v, i, j):
        return u[..., i] * v[..., j] - u[..., j] * v[..., i]

    return (minor(a, b, 0, 1) * minor(c, x, 2, 3) - minor(a, b, 0, 2) * minor(c, x, 1, 3)
            + minor(a, b, 0, 3) * minor(c, x, 1, 2) + minor(a, b, 1, 2) * minor(c, x, 0, 3)
            - minor(a, b, 1, 3) * minor(c, x, 0, 2) + minor(a, b, 2, 3) * minor(c, x, 0, 1))


def _top_two_eigenvalues(g00, g11, g22, g10, g20, g21):
    """The two largest eigenvalues, in descending order, of the symmetric 3x3
    matrices G with these entries (arrays that broadcast, or floats).
    Elementwise, so one matrix gives bit for bit its entry of a stack.

    1. The eigenvalue mu farthest from the mean q = tr G / 3, by the
       trigonometric formula (Smith 1961): with p^2 = |G - qI|_F^2 / 6 and
       r = det(G - qI) / (2 p^3), mu = q + 2p sgn(r) cos(arccos|r| / 3).
       That eigenvalue is well conditioned there even where the other two
       meet; read from the same formula, those two lose half the digits.
    2. Its eigenvector n: the column of adj(G - mu I) with the largest
       diagonal entry, normalized, or e3 where that column is 0.
    3. Rayleigh-Ritz on n and its orthogonal complement: rho = n^T G n, and
       the other two are tau/2 +- h with tau = tr G - rho and h the half-gap,
       h^2 = |D|_F^2 / 2 for D = (I - n n^T) G (I - n n^T) - (tau/2)(I - n n^T).
       Their error is quadratic in the error of n, and h is a root of a sum
       of squares, so a double eigenvalue loses no digits to cancellation.
    G is first scaled, exactly, by the power of two that brings its largest
    entry into [1/2, 1), so no square, cube or cofactor over- or underflows.
    """
    _, power = np.frexp(np.max(np.abs([g00, g11, g22, g10, g20, g21]), axis=0))
    scale = np.ldexp(1.0, -power)
    g00, g11, g22, g10, g20, g21 = (g * scale for g in (g00, g11, g22, g10, g20, g21))
    trace = g00 + g11 + g22
    q = trace / 3.0
    a, b, c = g00 - q, g11 - q, g22 - q
    p2 = (a * a + b * b + c * c + 2.0 * (g10 * g10 + g20 * g20 + g21 * g21)) / 6.0
    p = np.sqrt(p2)
    det = a * (b * c - g21 * g21) - g10 * (g10 * c - g21 * g20) + g20 * (g10 * g21 - b * g20)
    p3 = p * p2  # where p3 is 0 so is det, and r reads 0
    r = np.clip(det / (2.0 * np.where(p3 > 0.0, p3, 1.0)), -1.0, 1.0)
    mu = q + 2.0 * p * np.copysign(np.cos(np.arccos(np.abs(r)) / 3.0), r)

    a, b, c = g00 - mu, g11 - mu, g22 - mu  # the diagonal of G - mu I, then its cofactors
    d0, d1, d2 = b * c - g21 * g21, a * c - g20 * g20, a * b - g10 * g10
    c01, c02, c12 = g20 * g21 - g10 * c, g10 * g21 - b * g20, g10 * g20 - a * g21
    first, second = (d0 >= d1) & (d0 >= d2), d1 >= d2
    v0 = np.where(first, d0, np.where(second, c01, c02))
    v1 = np.where(first, c01, np.where(second, d1, c12))
    v2 = np.where(first, c02, np.where(second, c12, d2))
    norm = np.sqrt(v0 * v0 + v1 * v1 + v2 * v2)
    safe = np.where(norm > 0.0, norm, 1.0)  # where norm is 0 so is v, and n is e3
    n0, n1, n2 = v0 / safe, v1 / safe, np.where(norm > 0.0, v2 / safe, 1.0)

    w0 = g00 * n0 + g10 * n1 + g20 * n2
    w1 = g10 * n0 + g11 * n1 + g21 * n2
    w2 = g20 * n0 + g21 * n1 + g22 * n2
    rho = n0 * w0 + n1 * w1 + n2 * w2
    half = (trace - rho) / 2.0
    k = rho + half
    # D = G - n w^T - w n^T + (rho + tau/2) n n^T - (tau/2) I, entry by entry
    e00 = g00 - 2.0 * n0 * w0 + k * n0 * n0 - half
    e11 = g11 - 2.0 * n1 * w1 + k * n1 * n1 - half
    e22 = g22 - 2.0 * n2 * w2 + k * n2 * n2 - half
    e10 = g10 - n1 * w0 - w1 * n0 + k * n1 * n0
    e20 = g20 - n2 * w0 - w2 * n0 + k * n2 * n0
    e21 = g21 - n2 * w1 - w2 * n1 + k * n2 * n1
    h = np.sqrt((e00 * e00 + e11 * e11 + e22 * e22
                 + 2.0 * (e10 * e10 + e20 * e20 + e21 * e21)) / 2.0)
    upper, lower = half + h, half - h
    return (np.ldexp(np.maximum(rho, upper), power),
            np.ldexp(np.maximum(np.minimum(rho, upper), lower), power))


@dataclass(frozen=True)
class SphereSample:
    x: np.ndarray
    fx: np.ndarray
    jacobian: np.ndarray
    singular_values: np.ndarray


def singular_value_sample(x) -> SphereSample:
    """Singular values of the differential restricted to the tangent space.

    The ambient Jacobian of the quadratic polynomials is projected onto
    T_x S^3 as J.  The two largest eigenvalues of the 3x3 Gram matrix J J^T,
    six row products passed entry by entry to ``_top_two_eigenvalues`` (in
    closed form, with no eigensolver), give the two largest singular values
    as their square roots.  The square root of the smallest eigenvalue
    would lose half the digits of the zero singular value to the squaring
    (3.7e-8, not within the 1e-9 constancy bound), so the third is read from
    a determinant instead: J x = 0 for a unit x, so
    [J; x^T] [J; x^T]^T = diag(J J^T, 1) and |det [J; x^T]| = s1 s2 s3,
    with the determinant expanded in 2x2 minors (``_det_with_row``).
    Within ``SPHERE_TOL`` of the sphere but off it, I - x x^T is no
    projector.  There s1 and s2 still match the SVD of J, and read 2 |x|,
    which misses the 1e-9 bound as before.  s3 no longer does: it reads the
    zero of dH on its kernel in T_x at rounding level, since
    det [J; x^T] = det [2 Q_c x; x^T] has dependent rows at any |x|, where
    the SVD of J reads 4 | |x| - 1 |.
    ``x`` may be a stack of points (N, 4): every field then has a leading
    axis of length N.
    """
    x = _check_unit(x)
    jac = _tangent_jacobian(x)
    rows = np.moveaxis(jac, -2, 0)
    gram = [np.einsum("...k,...k->...", rows[i], rows[j])
            for i, j in ((0, 0), (1, 1), (2, 2), (1, 0), (2, 0), (2, 1))]
    s1, s2 = np.sqrt(_top_two_eigenvalues(*gram))
    s3 = np.abs(_det_with_row(jac, x)) / (s1 * s2)
    sv = np.stack([s1, s2, s3], axis=-1)
    return SphereSample(x=x, fx=hopf_map(x), jacobian=jac, singular_values=sv)


def _los_residual(sv: np.ndarray, theta):
    """sum_j 1/(cos^2 t + sin^2 t l_j^2) - 3 for singular values ``sv`` of
    shape (..., 3) and angles ``theta`` broadcasting against ``sv[..., 0]``."""
    theta = np.asarray(theta, dtype=float)[..., None]
    c2, s2 = np.cos(theta) ** 2, np.sin(theta) ** 2
    return np.sum(1.0 / (c2 + s2 * sv**2), axis=-1) - 3.0


def _los_root(sv: np.ndarray) -> np.ndarray:
    """The LOS angle root in (0, pi/2) of each row of singular values ``sv``
    (..., 3) in closed form, NaN for a row without a unique root.  For u =
    tan^2 t and e1, e2, e3 the elementary symmetric functions of l_j = sv_j^2
    the condition is u Q(u) = 0, Q(u) = (e2 - 3 e3) u^2 + 2 (e1 - e2) u + 3 - e1.
    If 3 - e1 < 0 < e2 - 3 e3 (sum l_j > 3 and sum 1/l_j > 3), Q has one positive
    root, taken by the quadratic formula in its form without cancellation."""
    l1, l2, l3 = np.moveaxis(np.asarray(sv, dtype=float) ** 2, -1, 0)
    e1, e2, e3 = l1 + l2 + l3, l1 * l2 + l1 * l3 + l2 * l3, l1 * l2 * l3
    a, b, c = e2 - 3.0 * e3, 2.0 * (e1 - e2), 3.0 - e1
    with np.errstate(invalid="ignore", divide="ignore"):
        d = np.sqrt(b * b - 4.0 * a * c)
        u = np.where(b < 0.0, (d - b) / (2.0 * a), -2.0 * c / (b + d))
        return np.where((c < 0.0) & (a > 0.0), np.arctan(np.sqrt(u)), np.nan)


def los_angle_root(x):
    """Unique root of the LOS condition in (0, pi/2) by ``_los_root``, else NaN:
    a float for one point, an array for a stack (N, 4) from one batched
    ``singular_value_sample``."""
    root = _los_root(singular_value_sample(x).singular_values)
    return float(root) if root.ndim == 0 else root


def _reduced_gap(profile: Profile, sv: np.ndarray) -> float:
    """Max of r |gen - red| / (|phi| + |psi|) over the general equation at singular
    values ``sv`` (a row per point) and the reduced one, at ``_N_RADII`` log-spaced
    radii of the profile, read once, with phi = rho/r and psi = rho_r - phi.  Every
    term of either equation is of size (|phi| + |psi|)/r, so the gap is scale-free."""
    radii = np.geomspace(profile.r_min, profile.r_max, _N_RADII)
    values = profile.values_at(radii)
    spectrum = [(l2[:, None], 1) for l2 in np.atleast_2d(sv).T ** 2]
    gen = radial_residual(*values, radii, spectrum)
    red = ode1_residual(*values, radii, profile.params)
    phi = values[0] / radii
    return float(np.max(radii * np.abs(gen - red) / (np.abs(phi) + np.abs(values[1] - phi))))


def general_vs_lomse_deviation(profile: Profile, x) -> float:
    """Scale-free gap (``_reduced_gap``) between the general equation, with singular
    values sampled at ``x`` (a 4-vector or a stack), and the reduced one."""
    return _reduced_gap(profile, singular_value_sample(x).singular_values)


def harmonic_degree_check() -> dict:
    """Exact check that each component of the map is a homogeneous degree-2
    harmonic polynomial, hence a spherical harmonic with Laplace eigenvalue
    k(k+n-1) = 8.  A quadratic form x^T Q x is homogeneous of degree 2 when Q
    is a symmetric table, and its Laplacian is the integer 2 tr Q."""
    q = _HOPF_Q
    laplacians_zero = all(2 * int(np.trace(qc)) == 0 for qc in q)
    homogeneous = (np.issubdtype(q.dtype, np.integer)
                   and np.array_equal(q, q.transpose(0, 2, 1)))
    return {
        "laplacians_zero": laplacians_zero,
        "homogeneous_degree_2": homogeneous,
        "pass": laplacians_zero and homogeneous,
    }


def _random_unit_vectors(n_samples: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n_samples, 4))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def require_hopf_type(params: LomseParams, name: str = "params") -> None:
    """Raise ``WrongCase`` unless ``params`` (called ``name`` in the message) are
    of (3,2,2)-type, the type of the Hopf map."""
    if (params.n, params.p, params.k) != (3, 2, 2):
        raise WrongCase(f"the Hopf map is of (3,2,2)-type; {name} are "
                        f"({params.n},{params.p},{params.k})")


def hopf_verify_report(
    profile: Profile,
    params: LomseParams | None = None,
    n_samples: int = 1000,
    seed: int = 0,
) -> dict:
    """Full verification report of seven checks: per-check name, max deviation,
    tolerance, pass flag, from one batched ``singular_value_sample`` of the
    sample (one gradient product, the two largest Gram eigenvalues in closed
    form and a determinant in 2x2 minors).  ``n_samples`` must be an integer
    of at least 1 and ``seed`` one of at least 0, else ``ValueError`` before
    any sampling.  A sampled row without a unique LOS angle root counts as
    pi/2 off in that check, so every deviation is finite.  The profile
    carries its triple; ``params``, when given, must be of the same type.
    The Hopf map is of (3,2,2)-type, so a profile or params of another
    triple raise ``WrongCase``: its singular values (2,2,0) are not that
    triple's, and the comparison would prove nothing."""
    n_samples, seed = _integer(n_samples, "n_samples"), _integer(seed, "seed")
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    if seed < 0:
        raise ValueError(f"seed must be at least 0, got {seed}")
    if params is not None:
        require_hopf_type(params)
    require_hopf_type(profile.params, "profile.params")
    checks = []

    def add(name: str, deviation: float, tol: float):
        checks.append({"name": name, "max_deviation": float(deviation),
                       "tolerance": tol, "pass": bool(deviation < tol)})

    xs = _random_unit_vectors(n_samples, seed)
    s = singular_value_sample(xs)
    image_dev = np.abs(np.linalg.norm(s.fx, axis=1) - 1.0)
    add("image on unit sphere", np.max(image_dev), 1e-12)
    add("singular values (2,2,0)", np.max(np.abs(s.singular_values - [2, 2, 0])), 1e-9)

    theta_star = math.acos(2.0 / 3.0)
    cond_dev = np.max(np.abs(_los_residual(s.singular_values[:100], theta_star)))
    add("LOS condition at arccos(2/3)", cond_dev, 1e-9)
    # a row without a unique root (NaN) counts as pi/2 off, more than any root in
    # (0, pi/2) can be, so the check fails and the report stays valid JSON
    root_dev = np.max(np.nan_to_num(np.abs(_los_root(s.singular_values[:10]) - theta_star),
                                    nan=math.pi / 2))
    add("unique LOS angle root", root_dev, 1e-9)

    hd = harmonic_degree_check()
    add("harmonic degree-2 components", 0.0 if hd["pass"] else 1.0, 0.5)

    # one random jet (r, rho, rho_r, rho_rr) per sampled row of singular values
    sv = s.singular_values[:min(100, n_samples)]
    r, rho, rho_r, rho_rr = np.random.default_rng(seed + 1).uniform(0.5, 2.0, (len(sv), 4)).T
    gen = radial_residual(rho, rho_r, rho_rr, r, [(l2, 1) for l2 in sv.T ** 2])
    red = ode1_residual(rho, rho_r, rho_rr, r, profile.params)
    add("general vs reduced equation on random jets", np.max(np.abs(gen - red)), 1e-12)

    gap = _reduced_gap(profile, s.singular_values[:20])
    add("general vs reduced equation on profile", gap, 1e-8)

    return {"checks": checks, "pass": all(c["pass"] for c in checks)}
