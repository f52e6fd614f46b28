"""Source-term families, spec parsing and powers."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hessian_radial import (Nonlinearity, ProblemParams, ddphi_at_zero,
                            detect_blowup, euler_break_line,
                            ko_classify_numeric, parse_f_spec, picard_solve)

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
        negative = Nonlinearity.custom(lambda t: -1.0)
        nan = Nonlinearity.custom(lambda t: math.nan)
        for call in (lambda: euler_break_line(p, f, 0.0, 3.0, 1e-2),
                     lambda: detect_blowup(p, f, 0.0, r_max=3.0),
                     lambda: picard_solve(p, f, 0.0, 3.0, 1e-2),
                     lambda: ko_classify_numeric(late, 1),
                     lambda: ddphi_at_zero(p, negative, 0.0),
                     lambda: ddphi_at_zero(p, nan, 0.0),
                     lambda: f.eval(np.array([0.0, 1.0]))):
            with pytest.raises(ValueError, match="negative values or nan"):
                call()


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


def unchecked_pow(q):
    """A pow source with any q, q < 0 included, past the constructor's
    check: the kernel must match log_eval there too."""
    f = object.__new__(Nonlinearity)
    for name, value in (("family", "pow"), ("param", q), ("fn", None),
                        ("label", f"pow:{q}")):
        object.__setattr__(f, name, value)
    return f


def square(t):
    return t * t if t > 0 else 0.0


KERNEL_SOURCES = {
    "const": Nonlinearity.constant(1.7),
    "exp": Nonlinearity.exponential(1.3),
    "exp0": Nonlinearity.exponential(0.0),
    **{f"pow{q}": unchecked_pow(q) for q in (0.0, 1.0, 2.5, -1.0)},
    "custom": Nonlinearity.custom(square),
}


def independent_log(f, t):
    """log f on each entry of t, written per family without the kernel:
    the form log_eval had before it called it."""
    if f.family == "const":
        return np.full_like(t, np.log(f.param))
    if f.family == "exp":
        return f.param * t
    if f.family == "pow":
        return masked_pow_log(f.param, t)
    vals = np.array([float(f.fn(float(v))) for v in t])
    out = np.full_like(vals, -np.inf)
    out[vals > 0] = np.log(vals[vals > 0])
    return out


class TestLogKernel:
    """The bare log f that the walk and Picard call is log_eval bit for
    bit, on every family and at t <= 0, -0.0, +inf and nan."""

    special = st.sampled_from([0.0, -0.0, -1.0, -math.inf, math.inf,
                               math.nan, 5e-324, 1.0, 1e308])

    @given(st.sampled_from(sorted(KERNEL_SOURCES)),
           st.lists(st.one_of(st.floats(), special), max_size=40))
    @settings(max_examples=400, deadline=None)
    def test_kernel_is_log_eval(self, name, values):
        f = KERNEL_SOURCES[name]
        t = np.array(values, dtype=float)
        before = t.copy()
        with np.errstate(all="ignore"):
            got = f._log_kernel(t)
            want = f.log_eval(t)
            independent = independent_log(f, t)
        assert got.dtype == np.float64 and got.shape == t.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.array_equal(got.view(np.int64), independent.view(np.int64))
        assert np.array_equal(t.view(np.int64), before.view(np.int64))

    def test_kernel_is_built_once_per_source(self):
        f = Nonlinearity.power_cutoff(2.5)
        assert f._log_kernel is f._log_kernel
        assert f == Nonlinearity.power_cutoff(2.5)


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
