"""Barrier certificates for both stability types."""

from __future__ import annotations

from fractions import Fraction

import pytest

import loclab as L
from loclab import dynamics
from loclab.dynamics import CaseId

IDENTITY = "F(s) - 32/27 - 4(5s-1)^2(55s+43)/(675(s+1)^2(10s+1)) exact"


def _check(cert, name):
    matches = [c for c in cert.checks if c.name == name]
    assert matches, f"no check named {name!r}"
    return matches[0]


def test_case1_rationals():
    cert = L.barrier_certificate_A3(L.validate_params(3, 2, 2))
    assert cert.case_id is CaseId.A3_CASE1
    assert cert.c == 1
    assert _check(cert, "F(0)").value == Fraction(1, 12)
    assert _check(cert, "G(0)").value == Fraction(3, 4)
    assert cert.passed


def test_case2_rationals():
    cert = L.barrier_certificate_A3(L.validate_params(5, 4, 2))
    assert cert.case_id is CaseId.A3_CASE2
    assert _check(cert, "F(0)").value == Fraction(11, 12)
    assert _check(cert, "G(0)").value == Fraction(13, 6)
    assert cert.passed


def test_case3_rationals():
    cert = L.barrier_certificate_A3(L.validate_params(5, 4, 4))
    assert cert.case_id is CaseId.A3_CASE3
    assert cert.c == Fraction(6, 7)
    assert _check(cert, "F(0)").value == 0
    assert _check(cert, "F(0)").passed  # >= 0 suffices here
    assert _check(cert, "G(0)").value == Fraction(5, 7)
    assert cert.passed


def test_case4_families():
    for npk in ((7, 4, 2), (15, 8, 2), (9, 8, 2), (11, 8, 4)):
        params = L.validate_params(*npk)
        cert = L.barrier_certificate_A3(params)
        assert cert.case_id is CaseId.A3_CASE4
        assert cert.c == Fraction(1, 2)
        assert cert.passed, [c for c in cert.checks if not c.passed]


def test_a3_wrong_case():
    with pytest.raises(L.WrongCase):
        L.barrier_certificate_A3(L.validate_params(3, 2, 4))


def test_a4_wrong_case():
    with pytest.raises(L.WrongCase):
        L.barrier_certificate_A4(L.validate_params(3, 2, 2))


@pytest.mark.parametrize("npk", [(3, 1, 3), (4, 1, 8), (5, 1, 6)])
def test_a4_needs_a_real_strip_threshold(npk):
    # relaxed TypeII triples with 3p < n + 1 have no real sqrt((3p-n-1)/(3(n-p)))
    params = L.validate_params(*npk, relaxed=True)
    assert params.stability is L.Stability.TYPE_II
    with pytest.raises(L.WrongCase, match=r"3p >= n \+ 1"):
        L.barrier_certificate_A4(params)


def test_a4_certificates():
    for npk in ((3, 2, 4), (3, 2, 6), (5, 4, 6)):
        cert = L.barrier_certificate_A4(L.validate_params(*npk))
        assert cert.case_id is CaseId.A4
        assert cert.c is None
        assert _check(cert, "F(1/5) - 32/27 exact").value == 0
        assert _check(cert, IDENTITY).value == 0
        assert cert.passed, [c for c in cert.checks if not c.passed]


@pytest.mark.parametrize("c, a, b, d", [(5, 55, 43, 675), (4, 56, 43, 675),
                                        (4, 55, 42, 675), (4, 55, 43, 676)])
def test_a4_identity_fails_for_a_perturbed_coefficient(c, a, b, d, monkeypatch):
    monkeypatch.setattr(dynamics, "_spiral_gap", lambda s: c * (5 * s - 1) ** 2 * (
        a * s + b) / (d * (s + 1) ** 2 * (10 * s + 1)))
    cert = L.barrier_certificate_A4(L.validate_params(3, 2, 4))
    check = _check(cert, IDENTITY)
    assert check.value > 0
    assert not check.passed and not cert.passed


@pytest.mark.parametrize("resolution", [0, -5])
@pytest.mark.parametrize("certificate, npk", [(L.barrier_certificate_A3, (3, 2, 2))])
def test_certificate_refuses_an_empty_grid(certificate, npk, resolution):
    # a grid of no points samples nothing: both margins would read inf and pass
    with pytest.raises(ValueError, match=f"grid_resolution must be at least 1, got {resolution}"):
        certificate(L.validate_params(*npk), grid_resolution=resolution)


@pytest.mark.parametrize("resolution", [2.5, True, "64"])
def test_certificate_refuses_a_grid_size_that_is_not_an_integer(resolution):
    # read as given, 2.5 would sample 3 points and report 2.5, True would
    # sample 1 point, and "64" would fail inside numpy
    with pytest.raises(ValueError, match=f"grid_resolution must be an integer, got {resolution!r}"):
        L.barrier_certificate_A3(L.validate_params(3, 2, 2), grid_resolution=resolution)


def test_certificate_pass_is_conjunction():
    cert = L.barrier_certificate_A3(L.validate_params(3, 2, 2))
    assert cert.passed == all(c.passed for c in cert.checks)
    assert cert.grid_resolution >= 1000


def test_inward_margins_positive():
    # the invariant-region property: the flow points inward everywhere on
    # the sampled boundary, for every admissible TypeI triple in range
    for npk in ((3, 2, 2), (5, 4, 2), (5, 4, 4), (7, 4, 2), (7, 4, 4), (15, 8, 2)):
        cert = L.barrier_certificate_A3(L.validate_params(*npk))
        for c in cert.checks:
            if "margin" in c.name or "edge" in c.name:
                assert c.value > 0, (npk, c.name, c.value)
