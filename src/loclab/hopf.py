"""Desk-scale checks of the structure theory on the explicit Hopf map S^3 -> S^2.

The quadratic realization H(x) = (2(x1 x3 + x2 x4), 2(x2 x3 - x1 x4),
x1^2 + x2^2 - x3^2 - x4^2) is the one closed-form LOMSE available, of
(3,2,2)-type with constant singular values (2, 2, 0).  Its components are
stated once, as the integer quadratic forms x^T Q_c x of ``_HOPF_Q``, and
every shape here is read from that table, so the sample and the identities
run on any quadratic table, such as the quaternionic Hopf map S^7 -> S^4.
Everything the general theory predicts for it (the image on the sphere, the
two identities J^T f = 0 and J J^T = lambda^2 (I - f f^T) of f = i o pi,
harmonicity, the LOS angle condition, agreement of the general and reduced
minimality equations) is verified here by direct computation.
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
    """A point of the table's domain, or a stack of them along the last axis,
    on the unit sphere."""
    x = np.asarray(x, dtype=float)
    dim = _HOPF_Q.shape[-1]
    if x.ndim == 0 or x.shape[-1] != dim:
        raise NotOnSphere(f"expected {dim}-vectors, got shape {x.shape}")
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
    """The gradients 2 Q_c x of the m quadratic forms, shape (..., m, d) for x
    of shape (..., d), as one product with the table laid out as a (d, m d)
    matrix.  In the Hopf table each row of each Q_c holds one entry of +-1, so
    every gradient entry is exact."""
    m, dim, _ = _HOPF_Q.shape
    table = 2 * _HOPF_Q.transpose(2, 0, 1).reshape(dim, m * dim)
    return (x @ table).reshape(*x.shape[:-1], m, dim)


def hopf_map(x) -> np.ndarray:
    """The Hopf map S^3 -> S^2 in quadratic coordinates; ``x`` is a point or a
    stack of them along the last axis."""
    x = _check_unit(x)
    return 0.5 * (_gradients(x) @ x[..., None])[..., 0]


@dataclass(frozen=True)
class SphereSample:
    x: np.ndarray
    fx: np.ndarray
    jacobian: np.ndarray
    gram: np.ndarray


def singular_value_sample(x) -> SphereSample:
    """The map f, its differential J restricted to T_x S^(d-1), and the Gram
    matrix G = J J^T, whose eigenvalues are the squared singular values.

    One gradient product gives both f = x^T Q_c x and the ambient Jacobian
    2 Q_c x, which is projected onto the tangent space as J.  The shapes are
    read from the table ``_HOPF_Q``, so any quadratic table runs.  No
    eigenvalue is taken here: ``_submersion_residuals`` bounds the singular
    values from f, J and G, and the LOS and equation checks read
    ``np.linalg.eigvalsh(G)`` on the few rows they use.  ``x`` may be a stack
    of points: every field then has its leading axes.
    """
    x = _check_unit(x)
    grads = _gradients(x)
    jac = grads @ (np.eye(x.shape[-1]) - x[..., :, None] * x[..., None, :])
    return SphereSample(x=x, fx=0.5 * (grads @ x[..., None])[..., 0], jacobian=jac,
                        gram=jac @ np.swapaxes(jac, -1, -2))


def _submersion_residuals(s: SphereSample, lam2: float) -> tuple[np.ndarray, np.ndarray]:
    """Per point, the residuals |J^T f| / |f| and
    |G - lam2 (I - f f^T / |f|^2)|_F / lam of the two identities of f = i o pi.

    Their max bounds the largest deviation of the singular values of J from
    (lam, ..., lam, 0) with no eigenvalue taken: by Weyl each eigenvalue of G
    lies within the Frobenius norm of the eigenvalues lam2 and 0 of
    lam2 (I - f f^T / |f|^2), and |s - lam| = |s^2 - lam2| / (s + lam); by
    Rayleigh the smallest squared singular value is at most |J^T f|^2 / |f|^2.
    """
    f = s.fx / np.linalg.norm(s.fx, axis=-1, keepdims=True)
    tangent = np.linalg.norm((f[..., None, :] @ s.jacobian)[..., 0, :], axis=-1)
    target = lam2 * (np.eye(f.shape[-1]) - f[..., :, None] * f[..., None, :])
    return tangent, np.linalg.norm(s.gram - target, axis=(-2, -1)) / math.sqrt(lam2)


def _los_residual(squares: np.ndarray, theta):
    """sum_j 1/(cos^2 t + sin^2 t l_j) - 3 for squared singular values l_j, the
    rows of ``squares`` (..., 3), and angles ``theta`` broadcasting against
    ``squares[..., 0]``."""
    theta = np.asarray(theta, dtype=float)[..., None]
    c2, s2 = np.cos(theta) ** 2, np.sin(theta) ** 2
    return np.sum(1.0 / (c2 + s2 * squares), axis=-1) - 3.0


def _los_root(squares: np.ndarray) -> np.ndarray:
    """The LOS angle root in (0, pi/2) of each row of squared singular values
    ``squares`` (..., 3) in closed form, NaN for a row without a unique root.  For
    u = tan^2 t and e1, e2, e3 the elementary symmetric functions of the l_j the
    condition is u Q(u) = 0, Q(u) = (e2 - 3 e3) u^2 + 2 (e1 - e2) u + 3 - e1.
    If 3 - e1 < 0 < e2 - 3 e3 (sum l_j > 3 and sum 1/l_j > 3), Q has one positive
    root, taken by the quadratic formula in its form without cancellation."""
    l1, l2, l3 = np.moveaxis(np.asarray(squares, dtype=float), -1, 0)
    e1, e2, e3 = l1 + l2 + l3, l1 * l2 + l1 * l3 + l2 * l3, l1 * l2 * l3
    a, b, c = e2 - 3.0 * e3, 2.0 * (e1 - e2), 3.0 - e1
    with np.errstate(invalid="ignore", divide="ignore"):
        d = np.sqrt(b * b - 4.0 * a * c)
        u = np.where(b < 0.0, (d - b) / (2.0 * a), -2.0 * c / (b + d))
        return np.where((c < 0.0) & (a > 0.0), np.arctan(np.sqrt(u)), np.nan)


def los_angle_root(x):
    """Unique root of the LOS condition in (0, pi/2) by ``_los_root``, else NaN:
    a float for one point, an array for a stack of points from one batched
    ``singular_value_sample``."""
    root = _los_root(np.linalg.eigvalsh(singular_value_sample(x).gram))
    return float(root) if root.ndim == 0 else root


def _reduced_gap(profile: Profile, squares: np.ndarray) -> float:
    """Max of r |gen - red| / (|phi| + |psi|) over the general equation at squared
    singular values ``squares`` (a row per point) and the reduced one, at ``_N_RADII``
    log-spaced radii of the profile, read once, with phi = rho/r and psi = rho_r - phi.
    Every term of either equation is of size (|phi| + |psi|)/r, so the gap is scale-free."""
    radii = np.geomspace(profile.r_min, profile.r_max, _N_RADII)
    values = profile.values_at(radii)
    gen = radial_residual(*values, radii, [(lj[:, None], 1) for lj in squares.T])
    red = ode1_residual(*values, radii, profile.params)
    phi = values[0] / radii
    return float(np.max(radii * np.abs(gen - red) / (np.abs(phi) + np.abs(values[1] - phi))))


def general_vs_lomse_deviation(profile: Profile, x) -> float:
    """Scale-free gap (``_reduced_gap``) between the general equation, with the
    squared singular values sampled at ``x`` (a point or a stack of them), and
    the reduced one.  An empty stack raises ``ValueError``."""
    s = singular_value_sample(x)
    if s.x.size == 0:
        raise ValueError(f"x must hold at least one point, got shape {s.x.shape}")
    return _reduced_gap(profile, np.linalg.eigvalsh(s.gram).reshape(-1, s.gram.shape[-1]))


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
    v = rng.standard_normal((n_samples, _HOPF_Q.shape[-1]))
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
    sample.  The "singular values (2,2,0)" check reads the bound of
    ``_submersion_residuals`` at the profile's lambda^2, so it takes no
    eigenvalue; the LOS and equation checks read ``np.linalg.eigvalsh`` of the
    first 100 Gram matrices.  ``n_samples`` must be an integer of at least 1
    and ``seed`` one of at least 0, else ``ValueError`` before any sampling.
    A sampled row without a unique LOS angle root counts as pi/2 off in that
    check, so every deviation is finite.  The profile carries its triple;
    ``params``, when given, must be of the same type.  The Hopf map is of
    (3,2,2)-type, so a profile or params of another triple raise
    ``WrongCase``: its singular values (2,2,0) are not that triple's, and the
    comparison would prove nothing."""
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
    bound = np.maximum(*_submersion_residuals(s, profile.params.lambda2_float))
    add("singular values (2,2,0)", np.max(bound), 1e-9)

    l2 = np.linalg.eigvalsh(s.gram[:100])  # squared singular values, ascending
    theta_star = math.acos(2.0 / 3.0)
    cond_dev = np.max(np.abs(_los_residual(l2, theta_star)))
    add("LOS condition at arccos(2/3)", cond_dev, 1e-9)
    # a row without a unique root (NaN) counts as pi/2 off, more than any root in
    # (0, pi/2) can be, so the check fails and the report stays valid JSON
    root_dev = np.max(np.nan_to_num(np.abs(_los_root(l2[:10]) - theta_star), nan=math.pi / 2))
    add("unique LOS angle root", root_dev, 1e-9)

    hd = harmonic_degree_check()
    add("harmonic degree-2 components", 0.0 if hd["pass"] else 1.0, 0.5)

    # one random jet (r, rho, rho_r, rho_rr) per sampled row of squared singular values
    r, rho, rho_r, rho_rr = np.random.default_rng(seed + 1).uniform(0.5, 2.0, (len(l2), 4)).T
    gen = radial_residual(rho, rho_r, rho_rr, r, [(lj, 1) for lj in l2.T])
    red = ode1_residual(rho, rho_r, rho_rr, r, profile.params)
    add("general vs reduced equation on random jets", np.max(np.abs(gen - red)), 1e-12)

    gap = _reduced_gap(profile, l2[:20])
    add("general vs reduced equation on profile", gap, 1e-8)

    return {"checks": checks, "pass": all(c["pass"] for c in checks)}
