"""Every entry point rejects the input the README calls invalid.

Only rejected values are drawn, so no walk, solve or quadrature runs: the
library raises the documented `ValueError`, and the CLI exits 64 with one
line on stderr and no traceback.
"""

import contextlib
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hessian_radial import (GaussianCandidate, Nonlinearity, ProblemParams,
                            binom, chi, ddphi_at_zero, default_radii,
                            detect_blowup, dphi_from_integral, elem_sym,
                            elem_sym_all, euler_break_line, gaussian_spectrum,
                            gaussian_threshold, gaussian_threshold_negative_mu,
                            in_gamma_k, ko_classify_analytic,
                            ko_classify_numeric, mu_zero, parse_f_spec,
                            picard_solve, verify_subsolution)
from hessian_radial.cli import main

NON_FINITE = st.sampled_from([math.inf, -math.inf, math.nan])
# sizes must be finite and > 0
BAD_SIZE = st.floats(max_value=0.0) | NON_FINITE
K_BELOW_ONE = st.integers(-5, 0)
N_BELOW_TWO = st.integers(-5, 1)
# an accumulated integral must be >= 0 (+inf included)
BAD_INTEGRAL = st.floats(max_value=0.0, exclude_max=True) | st.just(math.nan)
# n, k and max_iter must be integers: no float passes, not even a whole one
NOT_INTEGER = st.sampled_from([2.0, 3.0, 2.5]) | NON_FINITE

P = ProblemParams(2, 1, 0.0)
CONST = Nonlinearity.constant(1.0)


def rejected(call, *args, **kwargs):
    with pytest.raises(ValueError):
        call(*args, **kwargs)


@given(n=N_BELOW_TWO, k=K_BELOW_ONE, mu=NON_FINITE, dim=NOT_INTEGER)
@settings(max_examples=20)
def test_problem_params(n, k, mu, dim):
    rejected(ProblemParams, n, 1, 0.0)
    rejected(ProblemParams, 3, k, 0.0)
    rejected(ProblemParams, 3, 4 - k, 0.0)   # k > n
    rejected(ProblemParams, 3, 1, mu)
    rejected(ProblemParams, dim, 1, 0.0)
    rejected(ProblemParams, 3, dim, 0.0)
    rejected(mu_zero, 3, k)
    rejected(gaussian_threshold, 3, k)
    for call in (binom, mu_zero, gaussian_threshold):
        rejected(call, dim, 1)
        rejected(call, 4, dim)
    rejected(gaussian_threshold_negative_mu, dim, 0.0)
    for call in (elem_sym_all, elem_sym, in_gamma_k):
        rejected(call, [1.0, 2.0, 3.0], dim)


def test_problem_params_store_plain_ints():
    p = ProblemParams(np.int64(3), True)
    assert (type(p.n), type(p.k)) == (int, int)
    assert p.to_dict() == {"n": 3, "k": 1, "mu": 0.0}
    assert type(p.to_dict()["k"]) is int


@given(value=NON_FINITE, k=K_BELOW_ONE, dim=NOT_INTEGER,
       family=st.sampled_from(["const", "exp", "pow"]))
@settings(max_examples=20)
def test_sources_and_growth_integral(value, k, dim, family):
    rejected(parse_f_spec, f"{family}:{value!r}")
    rejected({"const": Nonlinearity.constant, "exp": Nonlinearity.exponential,
              "pow": Nonlinearity.power_cutoff}[family], value)
    for classify in (ko_classify_analytic, ko_classify_numeric):
        rejected(classify, CONST, k)
        rejected(classify, CONST, dim)


@given(A=BAD_SIZE, alpha=NON_FINITE, r_max=BAD_SIZE,
       r=st.floats(max_value=0.0, exclude_max=True), n=st.integers(-5, 0))
@settings(max_examples=20)
def test_gaussian_candidates(A, alpha, r_max, r, n):
    rejected(GaussianCandidate, A)
    rejected(gaussian_spectrum, P, A, 1.0)
    rejected(gaussian_spectrum, P, 1.0, r)
    rejected(verify_subsolution, P, A, 1.0, [0.0, 1.0])
    rejected(verify_subsolution, P, 1.0, alpha, [0.0, 1.0])
    rejected(default_radii, P, 1.0, r_max)
    rejected(default_radii, P, A, 1.0)
    rejected(gaussian_threshold_negative_mu, n, -1.0)
    rejected(gaussian_threshold_negative_mu, 2, alpha)


@given(a=NON_FINITE, size=BAD_SIZE, max_iter=st.integers(-5, 0),
       below=st.floats(min_value=0.0) | st.just(math.nan),
       integral=BAD_INTEGRAL)
@settings(max_examples=20)
def test_walks_and_solves(a, size, max_iter, below, integral):
    rejected(ddphi_at_zero, P, CONST, a)
    rejected(chi, P, a)
    rejected(chi, P, size)
    rejected(dphi_from_integral, P, a, 1.0)
    rejected(dphi_from_integral, P, 1.0, integral)
    for solve in (euler_break_line, picard_solve):
        rejected(solve, P, CONST, a, 1.0, 0.1)
        rejected(solve, P, CONST, 0.0, size, 0.1)
        rejected(solve, P, CONST, 0.0, 1.0, size)
    rejected(picard_solve, P, CONST, 0.0, 1.0, 0.1, tol=size)
    for bad in (max_iter, 2.5, math.inf):
        rejected(picard_solve, P, CONST, 0.0, 1.0, 0.1, max_iter=bad)
    rejected(detect_blowup, P, CONST, a, 1.0)
    rejected(detect_blowup, P, CONST, 0.0, size)
    rejected(detect_blowup, P, CONST, 0.0, 1.0, h0=size)
    rejected(detect_blowup, P, CONST, 0.0, 1.0, phi_cap=-below)  # <= a


SOLVE = ["solve", "--n=2", "--k=1", "--mu=0", "--f=const:1", "--a=0",
         "--r-end=1", "--h=0.1"]
KO = ["ko", "--k=1", "--f=const:1", "--n=2", "--mu=0"]
VERIFY = ["verify", "--n=2", "--k=1", "--mu=0", "--A=1", "--alpha=1"]
MU0 = ["mu0", "--n=2", "--k=1"]
SWEEP = ["sweep", "--n=2", "--k=1", "--mu=0", "--f=const:1", "--a=0",
         "--r-max=1", "--h=0.1"]
# (valid command line, flag, values the README rejects for it)
CLI_CASES = [
    *[(argv, "n", N_BELOW_TWO) for argv in (SOLVE, KO, VERIFY, MU0, SWEEP)],
    *[(argv, "k", K_BELOW_ONE) for argv in (SOLVE, KO, VERIFY, MU0, SWEEP)],
    *[(argv, "mu", NON_FINITE) for argv in (SOLVE, KO, VERIFY, SWEEP)],
    *[(argv, "f", NON_FINITE.map(lambda v: f"exp:{v!r}"))
      for argv in (SOLVE, KO, SWEEP)],
    (SOLVE, "a", NON_FINITE), (SOLVE, "r-end", BAD_SIZE),
    (SOLVE, "h", BAD_SIZE), (SOLVE, "tol", BAD_SIZE),
    (VERIFY, "A", BAD_SIZE), (VERIFY, "alpha", NON_FINITE),
    (VERIFY, "r-max", BAD_SIZE),
    (SWEEP, "a", NON_FINITE), (SWEEP, "r-max", BAD_SIZE),
    (SWEEP, "h", BAD_SIZE),
    (SWEEP, "phi-cap", st.floats(max_value=0.0) | st.just(math.nan)),  # <= a
]


@pytest.mark.parametrize("argv,flag,values", CLI_CASES,
                         ids=[f"{case[0][0]}-{case[1]}" for case in CLI_CASES])
@given(data=st.data())
@settings(max_examples=10)
def test_cli_usage_errors(argv, flag, values, data):
    # `--flag=value`: argparse reads a lone -inf as an option
    argv = [*argv, f"--{flag}={data.draw(values)}"]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    assert code == 64, argv
    assert err.getvalue().count("\n") == 1, (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if argv[0] == "sweep":
        # a rejected tuple gets an error row; a bad --r-max or --h, no rows
        assert all(",error," in row for row in out.getvalue().splitlines()[1:])
    else:
        assert out.getvalue() == "", argv
