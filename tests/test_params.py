"""Validation, closed-form scalars and linearization spectra."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import loclab as L
from conftest import SWEEP

ADMISSIBLE_NP = st.one_of(
    st.integers(1, 20).map(lambda l: (2 * l + 1, 2 * l)),
    st.integers(1, 10).map(lambda l: (4 * l + 3, 4 * l)),
    st.just((15, 8)),
)
EVEN_K = st.integers(1, 25).map(lambda j: 2 * j)


def test_families():
    assert L.classify_family(3, 2).kind is L.FamilyKind.COMPLEX_PROJECTIVE
    assert L.classify_family(7, 4).kind is L.FamilyKind.QUATERNIONIC_PROJECTIVE
    assert L.classify_family(15, 8).kind is L.FamilyKind.OCTONIONIC_LINE
    assert L.classify_family(4, 2) is None
    assert L.classify_family(15, 14).kind is L.FamilyKind.COMPLEX_PROJECTIVE


def test_validate_examples():
    p = L.validate_params(3, 2, 2)
    assert p.family == L.Family(L.FamilyKind.COMPLEX_PROJECTIVE, 1)
    assert p.lam == 2.0
    assert p.stability is L.Stability.TYPE_I

    p = L.validate_params(5, 4, 6)
    assert math.isclose(p.lam, math.sqrt(15), rel_tol=1e-15)
    assert p.stability is L.Stability.TYPE_II

    with pytest.raises(L.InvalidDegree):
        L.validate_params(3, 2, 3)
    with pytest.raises(L.InvalidDegree):
        L.validate_params(3, 2, 0)
    with pytest.raises(L.InvalidFamily):
        L.validate_params(4, 2, 2)


@pytest.mark.parametrize("relaxed", [False, True])
@pytest.mark.parametrize("npk, name", [((3, 2, 4.5), "k"), ((3.9, 2, 2), "n"),
                                       (("3", "2", "2"), "n"), ((3, 2.0, 2), "p"),
                                       ((3, True, 2), "p")])
def test_validate_refuses_a_non_integer(npk, name, relaxed):
    # int() would truncate 4.5 to 4 and read "3" and True as integers
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        L.validate_params(*npk, relaxed=relaxed)


def test_validate_takes_numpy_integers():
    p = L.validate_params(np.int64(3), np.int32(2), np.uint8(4))
    assert p == L.validate_params(3, 2, 4) and type(p.n) is int


def test_relaxed_mode():
    p = L.validate_params(4, 2, 3, relaxed=True)
    assert p.relaxed and p.family is None
    with pytest.raises(L.InvalidFamily):
        L.validate_params(2, 4, 2, relaxed=True)
    # relaxed still computes a discriminant-based classification
    assert p.stability in (L.Stability.TYPE_I, L.Stability.TYPE_II)


def test_relaxed_stability_is_the_discriminant_sign():
    # the stability lists cover admissible triples (even k) only; a relaxed
    # triple of a family with odd k, such as (3, 2, 3), is a spiral
    for n in range(2, 12):
        for p in range(1, n):
            for k in range(2, 9):
                params = L.validate_params(n, p, k, relaxed=True)
                assert (params.stability is L.Stability.TYPE_II) == (params.discriminant < 0)
    params = L.validate_params(3, 2, 3, relaxed=True)
    assert params.discriminant == Fraction(-16, 5)
    assert params.stability is L.Stability.TYPE_II


def test_singular_values():
    assert L.validate_params(3, 2, 2).lam == 2.0
    assert math.isclose(
        L.validate_params(5, 4, 2).lam, math.sqrt(3), rel_tol=1e-15
    )
    assert L.validate_params(15, 8, 2).lam == 2.0


def test_cone_angle_examples():
    assert math.isclose(
        L.validate_params(3, 2, 2).theta, math.acos(2 / 3), rel_tol=1e-15
    )
    assert math.isclose(
        L.validate_params(7, 4, 2).theta,
        math.acos(2 / math.sqrt(7)),
        rel_tol=1e-15,
    )
    assert math.isclose(
        L.validate_params(3, 2, 4).theta,
        math.acos(2 / math.sqrt(11)),
        rel_tol=1e-15,
    )


def test_slope_examples():
    assert math.isclose(
        L.validate_params(3, 2, 2).phi0, math.sqrt(5) / 2, rel_tol=1e-15
    )
    assert math.isclose(
        L.validate_params(3, 2, 4).phi0, math.sqrt(7) / 2, rel_tol=1e-15
    )
    assert math.isclose(
        L.validate_params(5, 4, 2).phi0, math.sqrt(7 / 3), rel_tol=1e-15
    )


def test_stability_lists():
    expected = {
        (3, 2, 2): "TypeI",
        (3, 2, 4): "TypeII",
        (3, 2, 6): "TypeII",
        (5, 4, 2): "TypeI",
        (5, 4, 4): "TypeI",
        (5, 4, 6): "TypeII",
        (7, 4, 2): "TypeI",
        (15, 8, 2): "TypeI",
    }
    for npk, want in expected.items():
        assert L.validate_params(*npk).stability.value == want


def test_spectra_examples():
    s = L.spectra(L.validate_params(3, 2, 2))
    assert s.mu1 == 1 and s.mu2 == -5
    assert s.discriminant == 1

    s = L.spectra(L.validate_params(3, 2, 4))
    assert s.mu1 == 3 and s.mu2 == -7
    assert s.discriminant == -5
    assert s.mu3.imag != 0.0


@given(np_pair=ADMISSIBLE_NP, k=EVEN_K)
def test_angle_slope_consistency(np_pair, k):
    n, p = np_pair
    params = L.validate_params(n, p, k)
    assert math.isclose(math.tan(params.theta), params.phi0, rel_tol=1e-12)
    # lambda^2 p = k(k+n-1) exactly
    assert params.lambda2 * p == k * (k + n - 1)
    assert params.lam > math.sqrt(n / p)
    assert 0.0 < params.theta < math.pi / 2


@given(np_pair=ADMISSIBLE_NP, k=EVEN_K)
def test_characteristic_polynomial_exact(np_pair, k):
    n, p = np_pair
    params = L.validate_params(n, p, k)
    s = L.spectra(params)
    K = k * (k + n - 1)
    for mu in (s.mu1, s.mu2):
        assert mu * mu + (n + 1) * mu - (K - n) == 0
    assert s.b == -n - 1
    assert Fraction(s.mu3.real * 2) == Fraction(s.b) if s.discriminant < 0 else True


@given(np_pair=ADMISSIBLE_NP, k=EVEN_K)
def test_spectral_matrices(np_pair, k):
    n, p = np_pair
    params = L.validate_params(n, p, k)
    s = L.spectra(params)
    assert np.max(np.abs(s.A @ s.V1 - s.mu1 * s.V1)) < 1e-12 * max(1, abs(s.mu1))
    assert np.max(np.abs(s.A @ s.V2 - s.mu2 * s.V2)) < 1e-12 * abs(s.mu2)
    assert np.trace(s.B) == -(n + 1)
    assert float(-s.a) > 0
    assert math.isclose(np.linalg.det(s.B), float(-s.a), rel_tol=1e-12)
    # eigenvalue pair consistency
    assert math.isclose((s.mu3 + s.mu4).real, s.b, rel_tol=0, abs_tol=1e-12)
    assert math.isclose((s.mu3 * s.mu4).real, float(-s.a), rel_tol=1e-12)


def _paper_stability(n: int, p: int, k: int) -> L.Stability:
    """The paper's lists: (3,2,k) spirals for k >= 4 and (5,4,k) for k >= 6;
    every other admissible triple is a node."""
    if ((n, p) == (3, 2) and k >= 4) or ((n, p) == (5, 4) and k >= 6):
        return L.Stability.TYPE_II
    return L.Stability.TYPE_I


def test_stability_matches_discriminant():
    # validate_params reads stability off the discriminant's sign; over the
    # admissible triples that must reproduce the paper's lists
    pairs = [*((2 * l + 1, 2 * l) for l in range(1, 21)),
             *((4 * l + 3, 4 * l) for l in range(1, 11)), (15, 8)]
    for n, p in pairs:
        for k in range(2, 51, 2):
            params = L.validate_params(n, p, k)
            assert params.stability is _paper_stability(n, p, k), (n, p, k)
            assert (params.stability is L.Stability.TYPE_II) == (params.discriminant < 0)


def test_cone_slope_is_a_sink_for_every_relaxed_triple():
    # tr B < 0 and det B > 0 exactly: (phi0, 0) is a hyperbolic sink for every
    # triple, nodes and spirals alike, so an orbit entering a small ball around
    # it converges
    for n in range(2, 12):
        for p in range(1, n):
            for k in range(2, 9):
                params = L.validate_params(n, p, k, relaxed=True)
                s = L.spectra(params)
                assert s.b == -(n + 1) < 0
                assert -s.a == Fraction(2 * n * (params.K - n), params.K) > 0


def test_sweep_list_valid():
    for npk in SWEEP:
        L.validate_params(*npk)
