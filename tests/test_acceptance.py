"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import time

import numpy as np
import pytest

from hessian_radial import (AdmissibilityError, Nonlinearity, ProblemParams,
                            binom, ddphi_at_zero, ddphi_from_ode,
                            detect_blowup, euler_break_line, existence_verdict,
                            in_gamma_k, ko_classify_analytic,
                            ko_classify_numeric, mu_zero,
                            picard_solve, radial_spectrum, refinement_order,
                            gaussian_threshold, gaussian_threshold_negative_mu,
                            default_radii, verify_subsolution)
from hessian_radial.keller_osserman import CONVERGES, DIVERGES, INCONCLUSIVE
from hessian_radial.solver import ADMISSIBILITY_FAILURE, FINITE_BLOWUP, GLOBAL

PAIRS = [(2, 1), (3, 2), (4, 4), (5, 3)]
CONST1 = Nonlinearity.constant(1.0)
EXP1 = Nonlinearity.exponential(1.0)


def _report(criterion: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def closed_form(p, a):
    c = binom(p.n, p.k) ** (1.0 / p.k)
    return lambda r: a + np.asarray(r, dtype=float) ** 2 / (2 * c)


def test_criterion_1_closed_form_cauchy_solution():
    t0 = time.perf_counter()
    worst_rel = 0.0
    orders = []
    for n, k in PAIRS:
        p = ProblemParams(n, k, 0.0)
        for a in (0.0, 1.0):
            exact = closed_form(p, a)
            prof = picard_solve(p, CONST1, a, 10.0, 1e-3, tol=1e-10)
            want = exact(prof.grid)
            scale = np.maximum(np.abs(want), 1e-300)
            rel = np.abs(prof.phi - want) / scale
            rel[0] = 0.0
            worst_rel = max(worst_rel, float(np.max(rel)))
            orders.append(refinement_order(
                lambda h: euler_break_line(p, CONST1, a, 10.0, h),
                [1e-2, 5e-3, 2.5e-3], reference=exact))
    elapsed = time.perf_counter() - t0
    ok = (worst_rel <= 1e-6
          and all(abs(o - 1.0) <= 0.2 for o in orders)
          and elapsed < 10.0)
    _report(1, ok, f"picard max rel err {worst_rel:.2e} (tol 1e-6); euler "
                   f"orders {min(orders):.3f}..{max(orders):.3f} "
                   f"(1.0 +- 0.2); runtime {elapsed:.1f}s < 10s")


def test_criterion_2_second_derivative_at_origin():
    worst = 0.0
    h = 1e-4
    for n, k in PAIRS:
        p = ProblemParams(n, k, 0.0)
        for f in (CONST1, EXP1):
            for a in (0.0, 1.0):
                prof = picard_solve(p, f, a, 0.02, h, tol=1e-12)
                second = (prof.phi[2] - 2 * prof.phi[1] + prof.phi[0]) / h ** 2
                exact = ddphi_at_zero(p, f, a)
                worst = max(worst, abs(second - exact) / exact)
    _report(2, worst <= 1e-4,
            f"second-difference phi''(0) worst rel err {worst:.2e} (tol 1e-4)")


def test_criterion_3_ko_dichotomy():
    ok = True
    notes = []
    for k in (1, 2, 3):
        for alpha in (0.0, 0.5, 1.0, 2.0):
            verdict = ko_classify_analytic(Nonlinearity.exponential(alpha), k)
            want = DIVERGES if alpha == 0 else CONVERGES
            ok &= verdict.classification == want
        for q in (0.0, 0.5, 1.0, 1.5, 2.0):
            f = Nonlinearity.power_cutoff(q)
            analytic = ko_classify_analytic(f, k)
            want = DIVERGES if q <= 1 else CONVERGES
            ok &= analytic.classification == want
            numeric = ko_classify_numeric(f, k)
            if numeric.classification != INCONCLUSIVE:
                ok &= numeric.classification == analytic.classification
            exponent_err = abs(numeric.tail_exponent - (k * q + 1) / (k + 1))
            ok &= exponent_err <= 0.02
            notes.append(exponent_err)
        for alpha in (0.5, 1.0, 2.0):
            numeric = ko_classify_numeric(Nonlinearity.exponential(alpha), k)
            ok &= numeric.classification == CONVERGES
    _report(3, ok, f"analytic dichotomies exact; numeric tail exponent max "
                   f"err {max(notes):.2e} (tol 0.02)")


def test_criterion_4_global_vs_blowup():
    t0 = time.perf_counter()
    ok = True
    details = []
    # constant source: global out to r_max = 50 for every pair
    for n, k in PAIRS:
        p = ProblemParams(n, k, 0.0)
        for a in (0.0, 1.0):
            rep = detect_blowup(p, CONST1, a, r_max=50.0, phi_cap=1e8, h0=2e-3)
            ok &= rep.status == GLOBAL
    # linear power source: global; phi grows superexponentially for k >= 2 so
    # the cap must sit above the true phi(50).  (4,4) is excluded: there
    # phi(50) pushes f^k past float64 range, so no cap can witness it.
    for (n, k), cap in [((2, 1), 1e30), ((3, 2), 1e60), ((5, 3), 1e70)]:
        p = ProblemParams(n, k, 0.0)
        f = Nonlinearity.power_cutoff(1.0)
        for a in (0.0, 1.0):
            rep = detect_blowup(p, f, a, r_max=50.0, phi_cap=cap, h0=2e-3)
            ok &= rep.status == GLOBAL
    # exponential source: finite blow-up with a tight bracket
    for n, k in PAIRS:
        p = ProblemParams(n, k, 0.0)
        for a in (0.0, 1.0):
            rep = detect_blowup(p, EXP1, a, r_max=50.0, phi_cap=1e8, h0=2e-3)
            ok &= rep.status == FINITE_BLOWUP
            if rep.status == FINITE_BLOWUP:
                lo, hi = rep.bracket
                width = (hi - lo) / rep.r_estimate
                details.append(width)
                ok &= width < 0.01
    # superlinear power source from a positive start (a = 0 is the trivial
    # global zero profile of the cutoff)
    for n, k in PAIRS:
        p = ProblemParams(n, k, 0.0)
        f = Nonlinearity.power_cutoff(2.0)
        rep = detect_blowup(p, f, 1.0, r_max=50.0, phi_cap=1e8, h0=2e-3)
        ok &= rep.status == FINITE_BLOWUP
        if rep.status == FINITE_BLOWUP:
            lo, hi = rep.bracket
            width = (hi - lo) / rep.r_estimate
            details.append(width)
            ok &= width < 0.01
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    _report(4, ok, f"global/blow-up dichotomy as classified; worst bracket "
                   f"width {max(details):.2e} of R (tol 1e-2); "
                   f"runtime {elapsed:.1f}s < 60s")


def test_criterion_5_admissibility_invariants():
    rng = np.random.default_rng(20260811)
    checked_nodes = 0
    ok = True
    for _ in range(200):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, n + 1))
        mu = float(rng.uniform(0.0, 1.0)) if k >= 2 \
            else float(rng.uniform(-0.5, 1.0))
        family = rng.choice(["const", "exp", "pow"])
        if family == "const":
            f = Nonlinearity.constant(float(rng.uniform(0.5, 2.0)))
            a = float(rng.uniform(0.0, 2.0))
        elif family == "exp":
            f = Nonlinearity.exponential(float(rng.uniform(0.0, 1.0)))
            a = float(rng.uniform(0.0, 2.0))
        else:
            f = Nonlinearity.power_cutoff(float(rng.uniform(0.25, 2.0)))
            a = float(rng.uniform(0.2, 2.0))
        p = ProblemParams(n, k, mu)
        prof = euler_break_line(p, f, a, 1.5, 1 / 64)
        for i in range(1, len(prof.grid)):
            dd = ddphi_from_ode(p, f, float(prof.grid[i]),
                                float(prof.phi[i]), float(prof.dphi[i]))
            spec = radial_spectrum(p, float(prof.grid[i]),
                                   float(prof.dphi[i]), dd)
            ok &= in_gamma_k(spec, k)
            checked_nodes += 1
    rejections = True
    for _ in range(20):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(2, n + 1)) if n > 2 else 2
        mu = float(rng.uniform(-2.0, -1e-6))
        p = ProblemParams(n, k, mu)
        rep = detect_blowup(p, CONST1, 0.0, r_max=5.0)
        rejections &= rep.status == ADMISSIBILITY_FAILURE
        try:
            euler_break_line(p, CONST1, 0.0, 1.0, 0.25)
            rejections = False
        except AdmissibilityError:
            pass
    _report(5, ok and rejections,
            f"Gamma_k holds at {checked_nodes} interior nodes over 200 "
            f"random tuples; 20/20 inadmissible tuples rejected")


def test_criterion_6_gaussian_verification():
    ok = True
    first_failures = []
    for n in range(2, 6):
        for k in range(1, n + 1):
            thr = gaussian_threshold(n, k)
            for mu in (0.0, 0.1, 0.3):
                p = ProblemParams(n, k, mu)
                radii = default_radii(p, thr, 10.0)
                for alpha in (-1.0, 0.0, 1.0):
                    ok &= verify_subsolution(p, thr, alpha, radii).passed
                    # origin sharpness: 1% below the threshold fails at r = 0
                    below = verify_subsolution(p, 0.99 * thr, alpha, [0.0])
                    ok &= not below.passed
                    first_failures.append(below.first_failure)
    for n in (2, 3, 4):
        for mu in (-1.0, -0.5):
            p = ProblemParams(n, 1, mu)
            A = gaussian_threshold_negative_mu(n, mu)
            radii = default_radii(p, A, 10.0)
            ok &= verify_subsolution(p, A, 1.0, radii).passed
    ok &= all(r == 0.0 for r in first_failures)
    _report(6, ok, "thresholds pass on 512 radii for n <= 5 and the k=1 "
                   "negative-mu family; 0.99x threshold fails exactly at r=0")


def test_criterion_7_mu0_regime_bookkeeping():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    worst = 0.0
    for n in range(1, 9):
        for k in range(1, n + 1):
            if n < 2:
                continue
            reference = mp.sqrt(k / (n * (k + 1)
                                     * mp.binomial(n, k) ** (mp.mpf(1) / k)))
            worst = max(worst, abs(mu_zero(n, k) - float(reference))
                        / float(reference))
    mu0_21, mu0_32 = mu_zero(2, 1), mu_zero(3, 2)
    div, conv = CONST1, EXP1
    cases = [
        (ProblemParams(2, 1, 0.0), div, "exists", True),
        (ProblemParams(2, 1, -3.0), div, "exists", True),
        (ProblemParams(2, 1, mu0_21 + 0.1), div, "exists", False),
        (ProblemParams(2, 1, 0.0), conv, "not_exists", True),
        (ProblemParams(2, 1, -3.0), conv, "not_exists", True),
        (ProblemParams(2, 1, mu0_21 + 0.1), conv, "outside_theory", False),
        (ProblemParams(3, 2, 0.1), div, "exists", True),
        (ProblemParams(3, 2, mu0_32 + 0.1), div, "exists", False),
        (ProblemParams(3, 2, 0.1), conv, "not_exists", True),
        (ProblemParams(3, 2, mu0_32 + 0.1), conv, "outside_theory", False),
        (ProblemParams(3, 2, -0.2), div, "not_exists", None),
        (ProblemParams(3, 2, -0.2), conv, "not_exists", None),
    ]
    table_ok = True
    for p, f, want, sharp in cases:
        rep = existence_verdict(p, f, ko_classify_analytic(f, p.k))
        table_ok &= rep.verdict == want and rep.sharp == sharp
    _report(7, worst <= 1e-12 and table_ok,
            f"mu0 worst rel dev {worst:.2e} vs 50-digit evaluation "
            f"(tol 1e-12); 12-case verdict table exact")


def test_criterion_8_ordering_property():
    ok = True
    f = EXP1
    for mu in (-0.2, 0.0, 0.2):
        p = ProblemParams(2, 1, mu)
        radii = []
        for a in (0.0, 0.5, 1.0, 1.5, 2.0):
            rep = detect_blowup(p, f, a, r_max=20.0, phi_cap=1e8, h0=1e-3)
            ok &= rep.status == FINITE_BLOWUP
            radii.append(rep.r_estimate)
        ok &= all(r1 <= r0 + 1e-12 for r0, r1 in zip(radii, radii[1:]))
        r_end = 0.6 * radii[2]  # safely inside the a=1 existence interval
        lo = picard_solve(p, f, 0.0, r_end, 1e-3)
        hi = picard_solve(p, f, 1.0, r_end, 1e-3)
        ok &= bool(np.all(lo.phi <= hi.phi + 1e-14))
    _report(8, ok, "profiles ordered in the initial value node-wise and "
                   "blow-up radius non-increasing in a for mu in "
                   "{-0.2, 0, 0.2}")
