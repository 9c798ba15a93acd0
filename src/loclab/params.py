"""Validation of (n, p, k) triples and the closed-form scalars attached to them.

All derived quantities that are rational in the inputs (lambda^2, phi0^2,
the spiral discriminant, the linearization entries) are carried as exact
``Fraction`` values and only converted to floating point at the boundary.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import InvalidDegree, InvalidFamily


class FamilyKind(Enum):
    COMPLEX_PROJECTIVE = "ComplexProjective"
    QUATERNIONIC_PROJECTIVE = "QuaternionicProjective"
    OCTONIONIC_LINE = "OctonionicLine"


@dataclass(frozen=True)
class Family:
    """Hopf-fibration family of the submersion factor, with its index l."""

    kind: FamilyKind
    l: int | None = None

    def __str__(self) -> str:
        if self.kind is FamilyKind.OCTONIONIC_LINE:
            return self.kind.value
        return f"{self.kind.value}({self.l})"


class Stability(Enum):
    TYPE_I = "TypeI"
    TYPE_II = "TypeII"


def classify_family(n: int, p: int) -> Family | None:
    """Match (n, p) against the three admissible families, or return None.

    The families are (2l+1, 2l), (4l+3, 4l) and (15, 8); they are pairwise
    disjoint, so the first match is the only one.
    """
    if (n, p) == (15, 8):
        return Family(FamilyKind.OCTONIONIC_LINE)
    if p >= 2 and p % 2 == 0 and n == p + 1:
        return Family(FamilyKind.COMPLEX_PROJECTIVE, p // 2)
    if p >= 4 and p % 4 == 0 and n == p + 3:
        return Family(FamilyKind.QUATERNIONIC_PROJECTIVE, p // 4)
    return None


def _discriminant(n: int, K: int) -> Fraction:
    return Fraction(n * n - 6 * n + 1) + Fraction(8 * n * n, K)


@dataclass(frozen=True)
class LomseParams:
    """A validated (n, p, k) triple together with every derived scalar."""

    n: int
    p: int
    k: int
    family: Family | None
    lambda2: Fraction
    lam: float  # the nonzero singular value sqrt(k(k+n-1)/p)
    theta: float  # the twist angle in (0, pi/2) making the graph minimal
    phi0_sq: Fraction
    phi0: float  # the cone's constant slope, tan(theta)
    stability: Stability
    relaxed: bool = False

    @property
    def K(self) -> int:
        """The Laplace eigenvalue k(k+n-1) = lambda^2 p."""
        return self.k * (self.k + self.n - 1)

    @cached_property
    def lambda2_float(self) -> float:  # converted once: read per call
        return float(self.lambda2)

    @cached_property
    def field_constants(self) -> tuple[float, float, float, float]:
        """(lambda^2, n - p, p, (lambda^2 - 1) p) as floats, converted once for
        the field and its parts, which read them on every call.  Each is the
        value its expression takes with the ints n and p, which Python
        converts exactly, so the field rounds as the int expressions do."""
        lam2, n, p = self.lambda2_float, self.n, self.p
        return lam2, float(n - p), float(p), (lam2 - 1.0) * p

    @property
    def discriminant(self) -> Fraction:
        """Sign decides spiral (negative) vs node (nonnegative) at the cone slope."""
        return _discriminant(self.n, self.K)

    def __str__(self) -> str:
        return f"({self.n},{self.p},{self.k})-type [{self.stability.value}]"


def _integer(value, name: str) -> int:
    """``value`` as an int; a float, a string or a bool is refused."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def validate_params(n: int, p: int, k: int, relaxed: bool = False) -> LomseParams:
    """Check a triple and populate all derived fields.

    With ``relaxed=True`` the family membership and evenness of k are skipped
    (the phase-plane dynamics is well defined for any p < n and k >= 2); such
    parameter sets are exploratory only and carry ``relaxed=True``.  Each of
    n, p, k must be an integer: 4.0 is refused with ``ValueError``, not
    truncated.
    """
    n, p, k = _integer(n, "n"), _integer(p, "p"), _integer(k, "k")
    family = classify_family(n, p)
    if relaxed:
        if not (1 <= p < n):
            raise InvalidFamily(f"need 1 <= p < n, got (n,p)=({n},{p})")
        if k < 2:
            raise InvalidDegree(f"need k >= 2, got k={k}")
    else:
        if family is None:
            raise InvalidFamily(
                f"(n,p)=({n},{p}) is not of the form (2l+1,2l), (4l+3,4l) or (15,8)"
            )
        if k < 2 or k % 2 != 0:
            raise InvalidDegree(f"k must be a positive even integer >= 2, got k={k}")

    K = k * (k + n - 1)
    lambda2 = Fraction(K, p)
    # lambda > sqrt(n/p) <=> K > n, automatic for integer k >= 2
    phi0_sq = Fraction(p * (K - n), K * (n - p))
    cos2_theta = Fraction((n - p) * K, n * (K - p))
    theta = math.acos(math.sqrt(float(cos2_theta)))
    phi0 = math.sqrt(float(phi0_sq))
    stability = Stability.TYPE_II if _discriminant(n, K) < 0 else Stability.TYPE_I

    return LomseParams(
        n=n,
        p=p,
        k=k,
        family=family,
        lambda2=lambda2,
        lam=math.sqrt(float(lambda2)),
        theta=theta,
        phi0_sq=phi0_sq,
        phi0=phi0,
        stability=stability,
        relaxed=relaxed,
    )


@dataclass(frozen=True)
class SpectralData:
    """Linearizations at the two equilibria of the phase-plane system."""

    A: np.ndarray
    mu1: int
    mu2: int
    V1: np.ndarray
    V2: np.ndarray
    B: np.ndarray
    a: Fraction
    b: int
    mu3: complex
    mu4: complex
    discriminant: Fraction


def spectra(params: LomseParams) -> SpectralData:
    """Matrices A (origin) and B (cone slope) with exact eigendata."""
    n, k, K = params.n, params.k, params.K
    mu1 = k - 1
    mu2 = -n - k
    A = np.array([[0.0, 1.0], [float(K - n), float(-n - 1)]])
    a = Fraction(2 * n * (n - K), K)
    b = -n - 1
    B = np.array([[0.0, 1.0], [float(a), float(b)]])
    disc = params.discriminant
    root = cmath.sqrt(complex(float(disc)))
    mu3 = (b + root) / 2
    mu4 = (b - root) / 2
    return SpectralData(
        A=A,
        mu1=mu1,
        mu2=mu2,
        V1=np.array([1.0, float(mu1)]),
        V2=np.array([1.0, float(mu2)]),
        B=B,
        a=a,
        b=b,
        mu3=mu3,
        mu4=mu4,
        discriminant=disc,
    )
