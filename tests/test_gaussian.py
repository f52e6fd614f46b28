"""Gaussian candidate verification: spectrum, thresholds, slack bound."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hessian_radial import (GaussianCandidate, ProblemParams, RadiusCheck,
                            default_radii, elem_sym, elem_sym_all,
                            gaussian_spectrum,
                            gaussian_threshold, gaussian_threshold_negative_mu,
                            verify_subsolution)


def scalar_check(p, A, alpha, r, rel_tol=1e-12):
    """Reference: the per-radius verifier, elem_sym_all on the scaled
    spectrum one radius at a time.  None where some S_j overflows."""
    lam1 = 4.0 * A * A * (r * r + (1.0 + p.mu * r) / (2.0 * A))
    lam2 = 2.0 * A * (1.0 + p.mu * r)
    sums = elem_sym_all([lam1] + [lam2] * (p.n - 1), p.k)
    if not all(map(math.isfinite, sums)):
        return None
    gamma_ok = all(s > 0.0 for s in sums)
    if sums[-1] <= 0.0:
        ok, margin, log_domain = False, -math.inf, True
    else:
        log_lhs = p.k * A * r * r + math.log(sums[-1])
        log_rhs = p.k * alpha * A * r * r
        log_margin = (p.k * A * r * r - log_rhs) + math.log(sums[-1])
        ok = log_margin >= -rel_tol
        log_domain = max(log_lhs, log_rhs) >= math.log(1e300)
        if log_domain:
            margin = log_margin
        else:
            margin = math.exp(log_lhs) - math.exp(log_rhs)
    return RadiusCheck(r, bool(ok and gamma_ok), margin, gamma_ok, log_domain)


def mp_log_margin(mp, p, A, alpha, r):
    """log S_k(spectrum) - log u^(k alpha), S_k by the recurrence at 50 digits,
    and whether S_1..S_k are all positive."""
    mp.mp.dps = 50
    A, r, mu = mp.mpf(A), mp.mpf(r), mp.mpf(p.mu)
    lam1 = 4 * A * A * (r * r + (1 + mu * r) / (2 * A))
    lam2 = 2 * A * (1 + mu * r)
    e = [mp.mpf(1)] + [mp.mpf(0)] * p.k
    for v in [lam1] + [lam2] * (p.n - 1):
        for j in range(p.k, 0, -1):
            e[j] += v * e[j - 1]
    log_margin = p.k * A * r * r * (1 - alpha) + mp.log(e[-1])
    return log_margin, all(s > 0 for s in e[1:])


def assert_margins_against_mpmath(mp, p, A, r):
    """A log-domain row at alpha = 2 fails and at alpha = 1 passes, each
    with the log margin of the 50-digit recurrence to 1e-12."""
    for alpha, passed in ((2.0, False), (1.0, True)):
        want, gamma = mp_log_margin(mp, p, A, alpha, r)
        check = verify_subsolution(p, A, alpha, [r]).checks[0]
        assert gamma and check.gamma_k_ok
        assert check.passed == passed and check.log_domain
        assert check.margin == pytest.approx(float(want), rel=1e-12)


class TestSpectrum:
    def test_origin_all_entries_2A(self):
        p = ProblemParams(4, 2, 0.7)
        spec = gaussian_spectrum(p, 0.9, 0.0)
        assert spec.tolist() == pytest.approx([1.8] * 4)

    def test_positive_radius(self):
        p = ProblemParams(2, 1, 0.0)
        spec = gaussian_spectrum(p, 0.5, 1.0)
        e = math.exp(0.5)
        assert spec.tolist() == pytest.approx([2 * e, e])

    def test_negative_mu_second_entry_negative(self):
        p = ProblemParams(2, 1, -1.0)
        spec = gaussian_spectrum(p, 1.0, 2.0)
        e4 = math.exp(4.0)
        assert spec.tolist() == pytest.approx([4 * e4 * 3.5, -2 * e4])

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError, match="radius must be >= 0"):
            gaussian_spectrum(ProblemParams(2, 1, 0.0), 0.5, -1.0)

    def test_candidate_validation(self):
        with pytest.raises(ValueError):
            GaussianCandidate(0.0)
        with pytest.raises(ValueError):
            gaussian_spectrum(ProblemParams(2, 1, 0.0), -1.0, 0.0)

    # e^(A r^2) overflows at r = 30 (math.exp raised OverflowError), its
    # product with the scaled spectrum at r = sqrt(709) (numpy warned)
    @pytest.mark.parametrize("r", [30.0, math.sqrt(709.0)])
    def test_overflowing_spectrum_is_value_error(self, r):
        with pytest.raises(ValueError, match="not finite"):
            gaussian_spectrum(ProblemParams(3, 2, 0.1), 1.0, r)

    def test_large_finite_spectrum_keeps_its_bits(self):
        spec = gaussian_spectrum(ProblemParams(3, 2, 0.1), 1.0, 26.0)
        assert [v.hex() for v in spec.tolist()] == [
            "0x1.9658795698023p+986", "0x1.1440ae58a1f5ep+978",
            "0x1.1440ae58a1f5ep+978"]


class TestThresholds:
    @pytest.mark.parametrize("n,k,expected", [
        (2, 1, 0.25),
        (3, 3, 0.5),
        (3, 2, 1 / (2 * math.sqrt(3))),
    ])
    def test_gaussian_threshold(self, n, k, expected):
        assert gaussian_threshold(n, k) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("n,mu,expected", [
        (2, -1.0, 0.5),
        (2, 0.0, 0.25),
        (4, -0.5, 0.25),
    ])
    def test_negative_mu_threshold(self, n, mu, expected):
        assert gaussian_threshold_negative_mu(n, mu) == \
            pytest.approx(expected, rel=1e-14)

    def test_mu_zero_consistency_between_variants(self):
        # at n=2, k=1, mu=0 both formulas give 0.25
        assert gaussian_threshold(2, 1) == \
            pytest.approx(gaussian_threshold_negative_mu(2, 0.0))


class TestSlack:
    """The trace margin 4 A^2 r^2 + 2 A n + 2 A n mu r - 1 of the Gaussian
    for k = 1 is nonnegative for all r at or above the mu < 0 threshold."""

    def test_minimum_nonnegative_at_threshold(self):
        # oracle: one-dimensional minimization of the quadratic in r
        minimize_scalar = pytest.importorskip("scipy.optimize").minimize_scalar
        for n in (2, 3, 4):
            for mu in (-1.0, -0.5, -0.25):
                A = gaussian_threshold_negative_mu(n, mu)
                res = minimize_scalar(
                    lambda r: 4 * A * A * r * r + 2 * A * n
                    + 2 * A * n * mu * r - 1.0,
                    bounds=(0.0, 100.0), method="bounded")
                assert res.fun >= -1e-9
                # the analytic minimizer is r* = -mu n / (4A)
                assert res.x == pytest.approx(-mu * n / (4 * A), abs=1e-4)

    def test_nonnegative_on_dense_sample_above_threshold(self):
        rs = np.linspace(0.0, 100.0, 2001)
        for n in (2, 3, 4):
            for mu in (-1.0, -0.5):
                for scale in (1.0, 1.3):
                    A = scale * gaussian_threshold_negative_mu(n, mu)
                    vals = 4 * A * A * rs ** 2 + 2 * A * n \
                        + 2 * A * n * mu * rs - 1.0
                    assert np.min(vals) >= -1e-9


class TestVerify:
    def test_passes_at_threshold(self):
        p = ProblemParams(3, 2, 0.1)
        A = gaussian_threshold(3, 2)
        report = verify_subsolution(p, A, 1.0, default_radii(p, A, 10.0))
        assert report.passed
        assert report.first_failure is None

    def test_below_threshold_fails_at_origin(self):
        p = ProblemParams(3, 2, 0.0)
        A = 0.9 * gaussian_threshold(3, 2)
        report = verify_subsolution(p, A, 1.0, [0.0])
        assert not report.passed
        assert report.first_failure == 0.0
        # oracle: at the origin the inequality reads C(3,2) (2A)^2 >= 1
        assert 3 * (2 * A) ** 2 < 1.0

    def test_negative_mu_variant_passes_at_threshold(self):
        for n in (2, 3, 4):
            for mu in (-1.0, -0.5):
                p = ProblemParams(n, 1, mu)
                A = gaussian_threshold_negative_mu(n, mu)
                report = verify_subsolution(p, A, 1.0,
                                            default_radii(p, A, 10.0))
                assert report.passed, (n, mu, report.first_failure)

    def test_origin_sharpness_iff(self):
        for n in range(2, 6):
            for k in range(1, n + 1):
                thr = gaussian_threshold(n, k)
                p = ProblemParams(n, k, 0.0)
                assert verify_subsolution(p, thr, 1.0, [0.0]).passed
                assert not verify_subsolution(p, 0.99 * thr, 1.0, [0.0]).passed

    @pytest.mark.parametrize("radii,match", [
        ([math.nan], "r >= 0"), ([1.0, math.nan], "r >= 0"),
        ([1.0, math.inf], "r too big for A")])
    def test_nan_radius_is_no_radius(self, radii, match):
        with pytest.raises(ValueError, match=match):
            verify_subsolution(ProblemParams(3, 2, 0.0), 0.3, 1.0, radii)

    def test_alpha_range_including_negative(self):
        p = ProblemParams(4, 2, 0.3)
        A = gaussian_threshold(4, 2)
        radii = default_radii(p, A, 10.0)[::2]
        for alpha in (-1.0, 0.0, 0.5, 1.0):
            assert verify_subsolution(p, A, alpha, radii).passed

    def test_margin_monotone_in_A(self):
        p = ProblemParams(3, 2, 0.2)
        thr = gaussian_threshold(3, 2)
        for r in (0.0, 0.5, 1.0):
            margins = [verify_subsolution(p, A, 1.0, [r]).checks[0].margin
                       for A in np.linspace(thr, 2 * thr, 8)]
            assert all(m1 >= m0 - 1e-12 for m0, m1 in zip(margins, margins[1:]))

    def test_gamma_k_failure_reported_for_negative_mu_k2(self):
        # k >= 2 with mu < 0 leaves the cone beyond r = -1/mu: data, not error
        p = ProblemParams(3, 2, -0.5)
        report = verify_subsolution(p, 1.0, 1.0, [0.5, 3.0])
        by_r = {c.r: c for c in report.checks}
        assert by_r[0.5].gamma_k_ok
        assert not by_r[3.0].gamma_k_ok
        assert not report.passed

    def test_log_domain_margin_at_large_radius(self):
        # e^(k A r^2) overflows raw floats well before r = 60 at A = 1
        p = ProblemParams(3, 2, 0.0)
        report = verify_subsolution(p, 1.0, 1.0, [60.0])
        check = report.checks[0]
        assert check.passed
        assert check.log_domain
        assert check.margin > 0

    def test_slack_is_not_a_parameter(self):
        with pytest.raises(TypeError):
            verify_subsolution(ProblemParams(2, 1, 0.0), 1.0, 1.0, [0.0],
                               rel_tol=0.0)

    def test_report_serialization(self):
        p = ProblemParams(2, 1, 0.0)
        report = verify_subsolution(p, 0.25, 1.0, [0.0, 1.0])
        payload = report.to_dict()
        assert payload["passed"] is True
        assert len(payload["radii"]) == 2
        assert set(payload["radii"][0]) == {"r", "pass", "margin",
                                            "gamma_k_ok", "log_domain"}

    @given(n=st.integers(2, 12), data=st.data(), mu=st.floats(-3.0, 3.0),
           A=st.floats(1e-3, 1e3), alpha=st.floats(-3.0, 3.0),
           r_max=st.floats(1e-2, 1e100),
           extra=st.lists(st.floats(0.0, 1e100), max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_vectorised_checks_equal_scalar_reference(self, n, data, mu, A,
                                                      alpha, r_max, extra):
        # bit for bit, on every row whose S_1..S_k stay finite; the default
        # grid adds generic radii, where last-bit differences show
        p = ProblemParams(n, data.draw(st.integers(1, n)), mu)
        radii = default_radii(p, A, r_max)[::16].tolist() + extra
        report = verify_subsolution(p, A, alpha, radii)
        assert len(report.checks) == len(radii)
        for r, check in zip(radii, report.checks):
            want = scalar_check(p, A, alpha, r)
            if want is not None:
                assert repr(check) == repr(want)

    @pytest.mark.parametrize("radii", [[[0.0, 1.0]], np.zeros((2, 3)), 1.0])
    def test_radii_must_be_one_dimensional(self, radii):
        with pytest.raises(ValueError, match="one-dimensional"):
            verify_subsolution(ProblemParams(3, 2, 0.1), 0.3, 1.0, radii)

    @pytest.mark.parametrize("r", [-1.0, math.nan, math.inf, 2e154])
    def test_bad_radius_or_spectrum_is_value_error(self, r):
        with pytest.raises(ValueError):
            verify_subsolution(ProblemParams(3, 2, 0.1), 0.3, 1.0, [1.0, r])

    # k A r^2 (A < k/4) or k alpha A r^2 overflows while the scaled spectrum
    # is finite; the first gave the margin inf - inf = NaN
    @pytest.mark.parametrize("k,A,alpha,r", [(3, 0.6, 1.0, 1.05e154),
                                             (2, 0.3, 10.0, 1e154)])
    def test_overflowing_margin_exponent_is_value_error(self, k, A, alpha, r):
        with pytest.raises(ValueError, match="k A r"):
            verify_subsolution(ProblemParams(3, k, 0.0), A, alpha, [1.0, r])


class TestSkOverflow:
    # S_k overflowed to inf and log(inf) passed the first case with
    # margin=inf; scaling the spectrum by max|lambda| alone underflows the
    # second case's S_k to 0 and fails it.  At alpha = 1 the margin is
    # log S_k alone, which k A r^2 + log S_k - k A r^2 rounded to 0.0
    @pytest.mark.parametrize("n,k,mu,A,r", [
        (3, 2, 0.1, 0.3, 1e130),
        (10, 7, 0.4367, 0.2807, 6.3e54),
        (14, 8, 1.0, 0.5, 1e45),
        (4, 1, 3e153, 0.5, 1e154),
    ])
    def test_row_against_mpmath(self, n, k, mu, A, r):
        mp = pytest.importorskip("mpmath")
        p = ProblemParams(n, k, mu)
        assert scalar_check(p, A, 1.0, r) is None  # S_j overflows in floats
        assert_margins_against_mpmath(mp, p, A, r)

    # the same cancellation where every S_j is a finite float
    @pytest.mark.parametrize("n,k,mu,A,r", [
        (3, 2, 0.1, 0.3, 1e20),
        (12, 6, 0.3, 0.2, 1e10),
    ])
    def test_finite_sk_row_against_mpmath(self, n, k, mu, A, r):
        mp = pytest.importorskip("mpmath")
        p = ProblemParams(n, k, mu)
        want = scalar_check(p, A, 1.0, r)
        assert want is not None
        assert repr(verify_subsolution(p, A, 1.0, [r]).checks[0]) == repr(want)
        assert_margins_against_mpmath(mp, p, A, r)

    def test_log_margin_keeps_every_digit_of_log_sk(self):
        # alpha = 1 at r = 100: k A r^2 = 2e4 took the last 3 digits of
        # log S_k (14.381649026887317 against 14.381649026888891)
        mp = pytest.importorskip("mpmath")
        p = ProblemParams(3, 2, 0.1)
        want, _ = mp_log_margin(mp, p, 1.0, 1.0, 100.0)
        check = verify_subsolution(p, 1.0, 1.0, [100.0]).checks[0]
        assert check.log_domain
        assert check.margin == pytest.approx(float(want), rel=1e-15)


class TestSkUnderflow:
    # S_4 = lam1 lam2^3 ~ 3.2e-379 rounded to 0, and the row failed with
    # margin -inf and gamma_k_ok false; the true log margin is +8.0e20
    def test_sk_underflowing_to_zero_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        p, A, alpha, r = ProblemParams(4, 4, 0.0), 1e-100, -1.0, 1e60
        want, gamma = mp_log_margin(mp, p, A, alpha, r)
        check = verify_subsolution(p, A, alpha, [r]).checks[0]
        assert gamma and want > 0
        assert check.passed and check.gamma_k_ok and check.log_domain
        assert check.margin == pytest.approx(float(want), rel=1e-12)

    # S_4 ~ 1.28e-320 is subnormal, with about 11 significant bits: its log
    # was -736.5802727408192 against -736.58036968016309
    def test_subnormal_sk_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        p, A, alpha, r = ProblemParams(4, 4, 0.0), 1e-100, 1.0, 2e89
        want, gamma = mp_log_margin(mp, p, A, alpha, r)
        check = verify_subsolution(p, A, alpha, [r]).checks[0]
        assert gamma and check.gamma_k_ok and check.log_domain
        assert not check.passed
        assert check.margin == pytest.approx(float(want), rel=1e-12)

    def test_zero_sj_stays_zero(self):
        # lam2 = 2A (1 + mu r) is exactly 0 at r = 2, so S_2 = S_3 = 0: the
        # row is redone on the scaled spectrum and keeps its zeros
        report = verify_subsolution(ProblemParams(4, 3, -0.5), 0.3, 1.0,
                                    [2.0])
        assert report.checks[0] == RadiusCheck(2.0, False, -math.inf, False,
                                               True)

    # 4 A^2 rounds below the smallest normal float under A ~ 7.46e-155;
    # at A = 1e-200 the spectrum was 0 and r = 0 failed with exit 0
    @pytest.mark.parametrize("A", [1e-200, 7.4e-155])
    def test_A_whose_square_underflows_is_value_error(self, A):
        with pytest.raises(ValueError, match="4 A\\^2 underflows"):
            verify_subsolution(ProblemParams(3, 2, 0.0), A, 1.0, [0.0, 1.0])

    # gaussian_spectrum returned [0, 2e-200, 2e-200] at A = 1e-200, where
    # lambda_1 = 2A at r = 0
    @pytest.mark.parametrize("A", [1e-200, 7.4e-155])
    def test_A_whose_square_underflows_is_no_candidate(self, A):
        with pytest.raises(ValueError, match="4 A\\^2 underflows"):
            GaussianCandidate(A)
        with pytest.raises(ValueError, match="4 A\\^2 underflows"):
            gaussian_spectrum(ProblemParams(3, 2, 0.0), A, 0.0)

    def test_smallest_A_still_checked(self):
        A = 7.46e-155
        assert verify_subsolution(ProblemParams(3, 2, 0.0), A, 1.0,
                                  [0.0]).first_failure == 0.0


class TestReportColumns:
    P, A, RADII = ProblemParams(3, 2, 0.1), 0.3, [0.0, 0.5, 60.0, 1e130]

    def test_columns_are_tuples_of_python_scalars(self):
        report = verify_subsolution(self.P, self.A, 1.0, self.RADII)
        for column, kind in ((report.radii, float), (report.passes, bool),
                             (report.margins, float),
                             (report.gamma_k_ok, bool),
                             (report.log_domain, bool)):
            assert type(column) is tuple and len(column) == len(self.RADII)
            assert all(type(x) is kind for x in column)

    def test_equal_inputs_give_equal_reports(self):
        one = verify_subsolution(self.P, self.A, 1.0, self.RADII)
        two = verify_subsolution(self.P, self.A, 1.0, np.array(self.RADII))
        assert one == two and hash(one) == hash(two)
        assert one != verify_subsolution(self.P, self.A, 0.5, self.RADII)

    def test_checks_are_built_once_from_the_columns(self):
        report = verify_subsolution(self.P, self.A, 1.0, self.RADII)
        assert report.checks is report.checks
        assert [(c.r, c.passed, c.margin, c.gamma_k_ok, c.log_domain)
                for c in report.checks] == list(zip(
                    report.radii, report.passes, report.margins,
                    report.gamma_k_ok, report.log_domain))


class TestDefaultRadii:
    def test_count_and_endpoints(self):
        p = ProblemParams(3, 2, 0.0)
        radii = default_radii(p, 0.3, 10.0)
        assert radii[0] == 0.0
        assert radii[-1] == 10.0
        assert len(radii) == 512
        assert np.all(np.diff(radii) > 0)

    def test_inserts_quadratic_minimizer_for_negative_mu(self):
        p = ProblemParams(4, 1, -0.8)
        A = gaussian_threshold_negative_mu(4, -0.8)
        radii = default_radii(p, A, 10.0)
        r_star = 0.8 * 4 / (4 * A)
        assert np.min(np.abs(radii - r_star)) < 1e-12


def test_scaled_check_matches_direct_elem_sym_at_small_radius():
    # cross-check the overflow-safe path against the direct computation
    p = ProblemParams(3, 2, 0.1)
    A, alpha, r = 0.4, 1.0, 1.5
    direct = elem_sym(gaussian_spectrum(p, A, r), 2) - math.exp(2 * alpha * A * r * r)
    report = verify_subsolution(p, A, alpha, [r])
    assert report.checks[0].margin == pytest.approx(direct, rel=1e-10)
