"""Acceptance gate: ten criteria, one printed pass/fail line each.

Every criterion is asserted at its stated tolerance; a failure both fails the
test and prints a FAIL line, so the summary is readable either way.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np

import loclab as L
from loclab.dynamics import CaseId, EventKind, Terminal, radial_residual
from loclab.hopf import _los_residual, _random_unit_vectors
from conftest import SWEEP, ConeProfile


def _report(number: int, label: str, ok: bool) -> None:
    print(f"[acceptance {number:2d}] {'PASS' if ok else 'FAIL'}: {label}")
    assert ok, f"acceptance criterion {number} failed: {label}"


def test_criterion_01_closed_form_constants():
    t0 = time.perf_counter()
    ok = abs(L.normal_angle_cos(L.validate_params(3, 2, 2)) - 1 / 9) < 1e-12
    ok &= (
        abs(L.normal_angle_cos(L.validate_params(7, 4, 2)) - 1 / (8 * math.sqrt(7)))
        < 1e-12
    )
    ok &= (
        abs(
            L.normal_angle_cos(L.validate_params(15, 8, 2))
            - 7**4 * 2**-11 * 3**-5 * math.sqrt(7 / 5)
        )
        < 1e-12
    )
    p322 = L.validate_params(3, 2, 2)
    ok &= abs(p322.theta - math.acos(2 / 3)) < 1e-12
    # same angle from the Hopf-family formula arccos sqrt(4(m-1)/(3(2m-1)))
    ok &= abs(p322.theta - math.acos(math.sqrt(4 * 1 / (3 * 3)))) < 1e-12
    ok &= p322.lam == 2.0 and p322.lambda2 * p322.p == 8
    ok &= time.perf_counter() - t0 < 1.0
    _report(1, "closed-form constants at 1e-12", ok)


def test_criterion_02_barrier_rationals():
    c1 = L.barrier_certificate_A3(L.validate_params(3, 2, 2), grid_resolution=1000)
    c2 = L.barrier_certificate_A3(L.validate_params(5, 4, 2), grid_resolution=1000)
    c3 = L.barrier_certificate_A3(L.validate_params(5, 4, 4), grid_resolution=1000)
    c4 = L.barrier_certificate_A4(L.validate_params(3, 2, 4))

    def val(cert, name):
        return next(c.value for c in cert.checks if c.name == name)

    ok = val(c1, "F(0)") == Fraction(1, 12) and val(c1, "G(0)") == Fraction(3, 4)
    ok &= val(c2, "F(0)") == Fraction(11, 12) and val(c2, "G(0)") == Fraction(13, 6)
    ok &= c3.c == Fraction(6, 7)
    ok &= val(c3, "F(0)") == 0 and val(c3, "G(0)") == Fraction(5, 7)
    ok &= c4.case_id is CaseId.A4
    ok &= val(c4, "F(1/5) - 32/27 exact") == 0
    ok &= val(c4, "F(s) - 32/27 - 4(5s-1)^2(55s+43)/(675(s+1)^2(10s+1)) exact") == 0
    _report(2, "barrier constants in exact rational arithmetic", ok)


def test_criterion_03_spectra_sweep():
    ok = True
    expected_type2 = {(3, 2, 4), (3, 2, 6), (5, 4, 6)}
    for npk in SWEEP:
        params = L.validate_params(*npk)
        s = L.spectra(params)
        eigs = sorted(np.linalg.eigvals(s.A).real)
        ok &= abs(eigs[0] - s.mu2) < 1e-10 and abs(eigs[1] - s.mu1) < 1e-10
        ok &= s.mu1 == npk[2] - 1 and s.mu2 == -npk[0] - npk[2]
        is_type2 = params.stability is L.Stability.TYPE_II
        ok &= is_type2 == (npk in expected_type2)
    _report(3, "spectra and Type I/II classification over the sweep list", ok)


def test_criterion_04_type1_orbit(orbit_322, profile_322, p322):
    ok = orbit_322.terminal is Terminal.CONVERGED_TO_P1
    end_phi, end_psi = orbit_322.read(orbit_322.t[-1])[0]
    ok &= math.hypot(end_phi - math.sqrt(5) / 2, end_psi) < 1e-8
    ok &= bool(np.all(np.diff(orbit_322.phi) > 0))
    ok &= bool(np.all(orbit_322.psi[:-1] > 0))
    ok &= float(np.max(np.abs(profile_322.residuals))) < 1e-8
    ok &= abs(profile_322.small_r_slope - 2) / 2 < 0.05
    _report(4, "TypeI (3,2,2) orbit, residual and small-r slope", ok)


def test_criterion_05_type2_orbit(orbit_324, p324):
    phi0 = p324.phi0
    evs = orbit_324.events_of(EventKind.PSI_ZERO)
    ok = len(evs) >= 4
    phiT = [e.point.phi for e in evs]
    odd, even = phiT[0::2], phiT[1::2]
    ok &= all(v > phi0 for v in odd) and all(a > b for a, b in zip(odd, odd[1:]))
    ok &= all(v < phi0 for v in even) and all(a < b for a, b in zip(even, even[1:]))
    amps = np.abs(np.array(phiT) - phi0)
    ratios = amps[1:] / amps[:-1]
    ok &= bool(np.all(ratios < 0.05)) and ratios.std() / ratios.mean() < 0.2
    ok &= phi0 < phiT[0] <= 1.2 * phi0
    ok &= 0.8 * phi0 <= phiT[1] < phi0
    ok &= bool(np.all(orbit_324.phi + orbit_324.psi > 0))
    _report(5, "TypeII (3,2,4) oscillation structure", ok)


def test_criterion_06_lemma_triples(orbit_324, orbit_546):
    ok = True
    checked = 0
    for orbit in (orbit_324, orbit_546):
        p = orbit.params
        thr = math.sqrt((3 * p.p - p.n - 1) / (3 * (p.n - p.p)))
        evs = orbit.events_of(EventKind.PSI_ZERO)
        for e0, e1, e2 in zip(evs, evs[1:], evs[2:]):
            if e0.point.phi < thr or e0.point.phi >= p.phi0:
                continue
            checked += 1
            ok &= e1.point.phi > p.phi0
            ok &= e0.point.phi < e2.point.phi < p.phi0
    ok &= checked >= 1  # (5,4,6) has one resolvable event: its triples are vacuous
    _report(6, f"event-triple ordering, {checked} triple(s) checked", ok)


def test_criterion_07_dirichlet_multiplicity(orbit_324, orbit_322, p324, p322):
    rep = L.dirichlet_multiplicity(orbit_324, p324, p324.phi0)
    ok = rep.multiplicity.kind.value == "UnboundedSequence"
    ok &= len(rep.d_values) >= 3
    mid = 0.5 * (p324.phi0 + rep.phi1)
    rep_mid = L.dirichlet_multiplicity(orbit_324, p324, mid)
    ok &= rep_mid.multiplicity.kind.value == "Finite"
    ok &= rep_mid.multiplicity.count >= 2
    rep1 = L.dirichlet_multiplicity(orbit_322, p322, p322.phi0 / 2)
    ok &= rep1.multiplicity.kind.value == "Finite"
    ok &= rep1.multiplicity.count == 1
    _report(7, "Dirichlet multiplicity at phi0, inside the window, and TypeI", ok)


def test_criterion_08_nonminimizing(profile_324, orbit_324, p324):
    rep = L.nonminimizing_verdict(profile_324, orbit_324, p324)
    ok = rep.verdict is L.Verdict.NON_MINIMIZING
    ok &= rep.theta_seq[0] < rep.theta_cone
    ok &= bool(np.all(np.diff(rep.theta_seq) > -1e-6))
    cone = ConeProfile(p324)
    crep = L.density_report(cone, [1.0, 3.0, 9.0])
    ok &= all(abs(t - crep.theta_cone) < 1e-6 for t in crep.theta_seq)
    ok &= crep.verdict is L.Verdict.INCONCLUSIVE
    _report(8, "non-minimizing density gap and constant cone density", ok)


def test_criterion_09_hopf(profile_322, p322):
    xs = _random_unit_vectors(1000, seed=0)
    sv_dev = 0.0
    for x in xs:
        sv = L.singular_value_sample(x).singular_values
        sv_dev = max(sv_dev, abs(sv[0] - 2), abs(sv[1] - 2), abs(sv[2]))
    ok = sv_dev < 1e-9
    theta_star = math.acos(2 / 3)
    sv100 = L.singular_value_sample(xs[:100]).singular_values
    ok &= float(np.max(np.abs(_los_residual(sv100, theta_star)))) < 1e-9
    ok &= abs(L.los_angle_root(xs[0]) - theta_star) < 1e-9
    ok &= max(
        L.general_vs_lomse_deviation(profile_322, x) for x in xs[:20]
    ) < 1e-8
    # the general equation on each sampled spectrum, at a random jet, is the
    # reduced (3,2,2) equation
    rng = np.random.default_rng(1)
    jet_dev = 0.0
    for x in xs[:100]:
        sv = L.singular_value_sample(x).singular_values
        r, rho, rho_r, rho_rr = rng.uniform(0.3, 3.0, 4)
        gen = radial_residual(rho, rho_r, rho_rr, r, [(float(s) ** 2, 1) for s in sv])
        jet_dev = max(jet_dev, abs(gen - L.ode1_residual(rho, rho_r, rho_rr, r, p322)))
    ok &= jet_dev < 1e-12
    _report(9, "Hopf singular values, angle condition and equation agreement", ok)


def test_criterion_10_jacobians():
    ok = True
    h = 1e-6
    for npk in SWEEP:
        params = L.validate_params(*npk)
        s = L.spectra(params)
        for point, want in (((0.0, 0.0), s.A), ((params.phi0, 0.0), s.B)):
            jac = np.empty((2, 2))
            for j, dv in enumerate(((h, 0.0), (0.0, h))):
                plus = L.vector_field(point[0] + dv[0], point[1] + dv[1], params)
                minus = L.vector_field(point[0] - dv[0], point[1] - dv[1], params)
                jac[:, j] = (np.array(plus) - np.array(minus)) / (2 * h)
            ok &= bool(np.max(np.abs(jac - want)) < 1e-6)
    _report(10, "finite-difference Jacobians match A and B over the sweep", ok)
