"""Source-term families, spec parsing, powers and the sampling audit."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hessian_radial import (Nonlinearity, ProblemParams,
                            audit_monotone_positive, detect_blowup,
                            euler_break_line, ko_classify_numeric,
                            parse_f_spec, picard_solve)

ts = st.floats(min_value=-50, max_value=50, allow_nan=False)


class TestEval:
    def test_exponential_alpha_zero_is_one(self):
        assert Nonlinearity.exponential(0.0).eval(5.0) == 1.0

    def test_power_cutoff_vanishes_at_nonpositive(self):
        f = Nonlinearity.power_cutoff(2.0)
        assert f.eval(-1.0) == 0.0
        assert f.eval(0.0) == 0.0
        assert f.eval(3.0) == 9.0

    def test_power_linear(self):
        assert Nonlinearity.power_cutoff(1.0).eval(3.0) == 3.0

    def test_constant(self):
        assert Nonlinearity.constant(2.5).eval(-7.0) == 2.5

    def test_custom_callback(self):
        f = Nonlinearity.custom(lambda t: 1.0 + t * t)
        assert f.eval(2.0) == 5.0

    def test_array_input(self):
        f = Nonlinearity.power_cutoff(0.5)
        out = f.eval(np.array([-1.0, 0.0, 4.0]))
        assert out.tolist() == [0.0, 0.0, 2.0]

    def test_family_validation(self):
        with pytest.raises(ValueError):
            Nonlinearity.constant(0.0)
        with pytest.raises(ValueError):
            Nonlinearity.exponential(-1.0)
        with pytest.raises(ValueError):
            Nonlinearity.power_cutoff(-0.5)

    @pytest.mark.parametrize("family,param,match", [
        ("tan", 1.0, "unknown family"), ("custom", None, "needs a callback")])
    def test_family_and_callback_required(self, family, param, match):
        with pytest.raises(ValueError, match=match):
            Nonlinearity(family, param)

    def test_negative_custom_value_rejected(self):
        f = Nonlinearity.custom(lambda t: t)
        with pytest.raises(ValueError, match="negative values"):
            f.log_eval(np.array([1.0, -1.0]))

    def test_nan_custom_value_rejected(self):
        p = ProblemParams(2, 1, 0.0)
        f = Nonlinearity.custom(lambda t: math.nan if t > 0.5 else 1.0)
        late = Nonlinearity.custom(lambda t: math.nan if t > 10 else 1.0)
        for call in (lambda: euler_break_line(p, f, 0.0, 3.0, 1e-2),
                     lambda: detect_blowup(p, f, 0.0, r_max=3.0),
                     lambda: picard_solve(p, f, 0.0, 3.0, 1e-2),
                     lambda: ko_classify_numeric(late, 1)):
            with pytest.raises(ValueError, match="negative values or nan"):
                call()


class TestPowK:
    def test_constant_cube(self):
        assert Nonlinearity.constant(2.0).pow_k(123.0, 3) == pytest.approx(8.0)

    def test_exponential_square(self):
        got = Nonlinearity.exponential(1.0).pow_k(2.0, 2)
        assert got == pytest.approx(math.exp(4.0), rel=1e-13)

    def test_power_half_square(self):
        assert Nonlinearity.power_cutoff(0.5).pow_k(4.0, 2) == \
            pytest.approx(4.0, rel=1e-13)

    def test_zero_source_gives_zero(self):
        assert Nonlinearity.power_cutoff(2.0).pow_k(-3.0, 5) == 0.0

    def test_overflow_is_graceful_and_sharp(self):
        # the log-domain power overflows exactly where the true value does,
        # returning inf instead of raising
        f = Nonlinearity.exponential(1.0)
        assert f.pow_k(200.0, 3) == pytest.approx(math.exp(600.0), rel=1e-12)
        assert f.pow_k(300.0, 3) == math.inf

    @given(ts, st.integers(1, 6), st.sampled_from(["const", "exp", "pow"]),
           st.floats(min_value=0.1, max_value=3, allow_nan=False))
    @settings(max_examples=300, deadline=None)
    def test_matches_naive_product(self, t, k, family, param):
        f = {"const": Nonlinearity.constant,
             "exp": Nonlinearity.exponential,
             "pow": Nonlinearity.power_cutoff}[family](param)
        base = f.eval(t)
        try:
            naive = base ** k
        except OverflowError:
            # the reference overflows, so f(t)^k is past the float range
            assert f.pow_k(t, k) >= sys.float_info.max * (1 - 1e-12)
            return
        if naive == 0.0 or not math.isfinite(naive):
            return
        assert f.pow_k(t, k) == pytest.approx(naive, rel=1e-12)

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            Nonlinearity.constant(1.0).pow_k(0.0, 0)


def masked_pow_log(q, t):
    """log of t^q on t > 0 and -inf elsewhere, through a mask: the general
    form of Nonlinearity.log_eval's pow branch."""
    out = np.full_like(t, -np.inf)
    mask = t > 0
    out[mask] = q * np.log(t[mask])
    return out


class TestLogEval:
    special = st.sampled_from([0.0, -0.0, -1.0, 5e-324, 1e-310,
                               sys.float_info.min, math.inf, -math.inf, 1.0])
    positive = st.floats(min_value=0.0, exclude_min=True, allow_nan=False)

    @given(st.one_of(st.lists(st.one_of(positive, special), max_size=40),
                     st.lists(positive, max_size=40)),
           st.sampled_from([0.0, 0.3, 1.0, 1.2, 2.5]))
    @settings(max_examples=400, deadline=None)
    def test_pow_matches_masked_form(self, values, q):
        # the all-positive fast path and the masked path give the same bits
        t = np.array(values, dtype=float)
        with np.errstate(invalid="ignore"):  # 0 * log(inf)
            got = Nonlinearity.power_cutoff(q).log_eval(t)
            want = masked_pow_log(q, t)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_pow_zero_at_infinity_is_nan(self):
        with np.errstate(invalid="ignore"):
            got = Nonlinearity.power_cutoff(0.0).log_eval(np.array([math.inf]))
        assert math.isnan(got[0])


class TestMonotone:
    @given(ts, ts, st.sampled_from(["const:2", "exp:0.7", "pow:1.3"]))
    @settings(max_examples=300, deadline=None)
    def test_families_non_decreasing(self, t1, t2, spec):
        f = parse_f_spec(spec)
        lo, hi = min(t1, t2), max(t1, t2)
        assert f.eval(lo) <= f.eval(hi) + 1e-12 * abs(f.eval(hi))


class TestParse:
    @pytest.mark.parametrize("spec,family,param", [
        ("const:1", "const", 1.0),
        ("exp:0.5", "exp", 0.5),
        ("pow:2", "pow", 2.0),
        ("exp:0.3333333333333333", "exp", 1 / 3),
    ])
    def test_round_trip(self, spec, family, param):
        f = parse_f_spec(spec)
        assert f.family == family and f.param == param
        assert f.label == spec

    @pytest.mark.parametrize("spec", ["sin:1", "const", "exp:abc", "pow:1:2",
                                      "const:inf", "exp:inf", "exp:nan",
                                      "pow:inf"])
    def test_rejects_malformed(self, spec):
        with pytest.raises(ValueError):
            parse_f_spec(spec)


class TestAudit:
    def test_exponential_passes(self):
        report = audit_monotone_positive(Nonlinearity.exponential(1.0),
                                         -5.0, 5.0, 100)
        assert report.passed and not report.degenerate_flagged

    def test_decreasing_custom_fails_at_first_pair(self):
        f = Nonlinearity.custom(lambda t: -t)
        report = audit_monotone_positive(f, 0.0, 1.0, 10)
        assert not report.passed
        assert not report.monotone_ok
        kinds = {v[0] for v in report.violations}
        assert "monotonicity" in kinds

    def test_power_cutoff_passes_with_degenerate_note(self):
        report = audit_monotone_positive(Nonlinearity.power_cutoff(2.0),
                                         -1.0, 1.0, 50)
        assert report.passed
        assert report.degenerate_flagged

    def test_preconditions(self):
        f = Nonlinearity.constant(1.0)
        with pytest.raises(ValueError):
            audit_monotone_positive(f, 1.0, 0.0, 10)
        with pytest.raises(ValueError):
            audit_monotone_positive(f, 0.0, 1.0, 1)
