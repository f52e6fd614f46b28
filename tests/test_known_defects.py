"""Known wrong answers, one strict xfail each.

Every test asserts the right answer, from a closed form, a theorem or an
independent ODE solve named at the test, and fails today on that
assertion.  A change that mends a defect makes its test
pass, which fails the run until the mark is removed; the numbers in the
reasons are the open items of ROADMAP.md.
"""

import contextlib
import io
import math

import pytest

from hessian_radial import (CONVERGES, Nonlinearity, ProblemParams,
                            detect_blowup, ko_classify_numeric)
from hessian_radial.cli import main
from hessian_radial.solver import FINITE_BLOWUP, GLOBAL


def solve_exit_code(*argv):
    """The exit code of `hessian-radial solve` with its output discarded."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(["solve", *argv])


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="item 2: a phi_cap crossing is reported as a "
                   "blow-up (R = 20.85, 13.69, 11.26)")
@pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (4, 3)])
def test_linear_source_has_no_blowup(n, k):
    # the growth integral of pow:1 diverges, so the solution is entire; for
    # n = 2 it is a I0(r)
    report = detect_blowup(ProblemParams(n, k, 0.0),
                           Nonlinearity.power_cutoff(1.0), 1.0, r_max=50.0)
    assert report.status != FINITE_BLOWUP


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="item 2: at mu < 0 the slope grows like "
                   "e^(n |mu| r), and its cap crossing is reported as a "
                   "blow-up (R = 11.4455)")
def test_constant_source_at_negative_mu_has_no_blowup():
    # phi'' + phi'/r - 2 phi' = 1 (n = 2, k = 1, mu = -1) is linear: its
    # solution is entire, with phi' growing like e^(2r)
    report = detect_blowup(ProblemParams(2, 1, -1.0),
                           Nonlinearity.constant(1.0), 0.0, r_max=20.0)
    assert report.status != FINITE_BLOWUP


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="item 2: a phi_cap crossing is reported as a "
                   "blow-up (R = 10.5505)")
def test_power_source_blowup_estimate():
    # phi'' + phi'/r = phi^1.2, phi(0) = 1 blows up at R = 12.2159198
    # (DOP853 on the ODE and on the Volterra form agree to 1e-12)
    report = detect_blowup(ProblemParams(2, 1, 0.0),
                           Nonlinearity.power_cutoff(1.2), 1.0, r_max=50.0)
    assert report.r_estimate == pytest.approx(12.2159198, abs=1e-2)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="item 9: e^(n mu s) overflows in G and I while "
                   "phi is finite (R = 352.31, 235.145)")
@pytest.mark.parametrize("n,k", [(2, 1), (3, 2)])
def test_constant_source_at_positive_mu_is_global(n, k):
    # phi' tends to a finite limit, 1/(n mu) at k = 1; the overflow of the
    # weight e^(n mu s) comes near n mu s = 709.78
    report = detect_blowup(ProblemParams(n, k, 1.0),
                           Nonlinearity.constant(1.0), 0.0, r_max=1000.0,
                           h0=1e-2)
    assert report.status == GLOBAL


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="item 9: the Volterra integral overflows while "
                   "phi is finite (R = 34.006)")
def test_linear_source_at_k_equal_n_is_global():
    # pow:1 has a divergent growth integral, so the solution is entire;
    # phi(50) is about 4.33e141, a finite float
    report = detect_blowup(ProblemParams(4, 4, 0.0),
                           Nonlinearity.power_cutoff(1.0), 1.0, r_max=50.0,
                           phi_cap=math.inf, h0=2e-3)
    assert report.status == GLOBAL


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="item 9: Picard's iterates overflow and the "
                   "fallback walk reports a blow-up (exit 3)")
def test_solve_constant_source_at_positive_mu():
    assert solve_exit_code("--n", "2", "--k", "1", "--mu", "1", "--f",
                           "const:1", "--a", "0", "--r-end", "400",
                           "--h", "1e-2") == 0


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="item 12: Picard's absolute tol stops it after "
                   "200 passes, and the fallback walk reports a blow-up "
                   "(exit 3)")
def test_solve_linear_source_to_r_300():
    # phi = I0(r), about 1e128 at r = 300
    assert solve_exit_code("--n", "2", "--k", "1", "--mu", "0", "--f",
                           "pow:1", "--a", "1", "--r-end", "300",
                           "--h", "1e-3") == 0


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="item 3: the first-order walk's bracket is "
                   "[2.830508, 2.830516] at h0 = 1e-3")
def test_liouville_bracket_holds_sqrt8():
    # Liouville: phi'' + phi'/r = e^phi, phi(0) = 0 blows up at sqrt(8)
    report = detect_blowup(ProblemParams(2, 1, 0.0),
                           Nonlinearity.exponential(1.0), 0.0, r_max=50.0,
                           h0=1e-3)
    lo, hi = report.bracket
    assert lo <= math.sqrt(8.0) <= hi


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="item 15: the fitted slope of a log-corrected "
                   "tail exceeds the band, so it reads as converges")
@pytest.mark.parametrize("k,beta", [(1, 1.5), (1, 2.0), (2, 1.0), (2, 1.5),
                                    (3, 1.0)])
def test_log_corrected_divergent_tail_is_not_converges(k, beta):
    # g(tau) ~ tau^(-1) log(tau)^(-k beta / (k+1)): the growth integral
    # diverges iff k beta / (k+1) <= 1, as it does for every case here
    def f(t):
        s = math.e + max(t, 0.0)
        return s * math.log(s) ** beta
    verdict = ko_classify_numeric(Nonlinearity.custom(f), k)
    assert verdict.classification != CONVERGES
