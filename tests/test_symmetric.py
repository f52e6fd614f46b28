"""Elementary symmetric polynomials, Gamma_k cone, mu0 threshold."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hessian_radial import binom, elem_sym, elem_sym_all, in_gamma_k, mu_zero
from hessian_radial.symmetric import _elem_sym

finite_floats = st.floats(min_value=-10, max_value=10, allow_nan=False)


def oracle_elem_sym(values, p):
    """Coefficient of x^(n-p) in prod(x + v_i), via numpy's root expansion."""
    coeffs = np.poly(-np.asarray(values, dtype=float))
    return coeffs[p]


class TestElemSym:
    @pytest.mark.parametrize("values,p,expected", [
        ((1, 2, 3), 2, 11.0),
        ((2, 2, -1), 2, 0.0),
        ((1, 1, 1), 3, 1.0),
        ((4, 5), 1, 9.0),
    ])
    def test_small_cases(self, values, p, expected):
        assert elem_sym(values, p) == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("n,k", [(2, 1), (4, 2), (5, 3), (6, 6)])
    def test_all_ones_gives_binomial(self, n, k):
        assert elem_sym((1.0,) * n, k) == pytest.approx(binom(n, k), rel=1e-14)

    @pytest.mark.parametrize("p", [0, 4, -1])
    def test_order_out_of_range(self, p):
        with pytest.raises(ValueError):
            elem_sym((1, 2, 3), p)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            elem_sym((1.0, math.inf), 1)

    @given(st.lists(finite_floats, min_size=1, max_size=6), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_polynomial_oracle(self, values, data):
        p = data.draw(st.integers(1, len(values)))
        got = elem_sym(values, p)
        want = oracle_elem_sym(values, p)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    @given(st.integers(1, 8), st.integers(1, 6), st.data())
    @settings(max_examples=300, deadline=None)
    def test_array_columns_equal_float_calls(self, n, m, data):
        # the vectorised verifier relies on this: one recurrence, same bits
        p = data.draw(st.integers(1, n))
        cols = [np.array(data.draw(st.lists(
            st.floats(-1e30, 1e30), min_size=m, max_size=m))) for _ in range(n)]
        got = _elem_sym(cols, p)
        assert len(got) == p
        for i in range(m):
            want = _elem_sym([float(c[i]) for c in cols], p)
            assert [s[i].tobytes() for s in got] == \
                [np.float64(w).tobytes() for w in want]


class TestGammaK:
    def test_positive_orthant_in_every_cone(self):
        assert in_gamma_k((1, 1, 1), 3)
        assert in_gamma_k((0.5, 2, 7, 0.1), 4)

    def test_boundary_excluded(self):
        # S_2 = 0 fails the strict inequality
        assert not in_gamma_k((2, 2, -1), 2)

    def test_gamma_1_needs_only_positive_trace(self):
        assert in_gamma_k((3, -1, -1), 1)
        assert not in_gamma_k((3, -1, -1), 2)

    def test_order_out_of_range(self):
        with pytest.raises(ValueError):
            in_gamma_k((1, 2), 3)

    @given(st.lists(finite_floats, min_size=2, max_size=6), st.data())
    @settings(max_examples=300, deadline=None)
    def test_monotone_in_k(self, values, data):
        k = data.draw(st.integers(2, len(values)))
        if in_gamma_k(values, k):
            for p in range(1, k):
                assert in_gamma_k(values, p)

    @given(st.lists(st.floats(min_value=0.01, max_value=10), min_size=1,
                    max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_contains_positive_orthant(self, values):
        assert in_gamma_k(values, len(values))


class TestBinom:
    @pytest.mark.parametrize("n,k,expected", [(4, 2, 6), (7, 0, 1), (3, 2, 3),
                                              (8, 8, 1)])
    def test_values(self, n, k, expected):
        assert binom(n, k) == expected
        assert isinstance(binom(n, k), int)

    @pytest.mark.parametrize("n,k", [(3, 4), (3, -1), (-2, 0)])
    def test_out_of_range(self, n, k):
        with pytest.raises(ValueError):
            binom(n, k)


class TestMuZero:
    def test_direct_substitution(self):
        assert mu_zero(2, 1) == pytest.approx(math.sqrt(1 / 8), rel=1e-15)
        assert mu_zero(3, 3) == pytest.approx(0.5, rel=1e-15)

    def test_against_high_precision_evaluation(self):
        # frozen from a 50-digit evaluation of the defining formula
        assert mu_zero(3, 2) == pytest.approx(0.35818997727451397318, rel=1e-14)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_defining_identity(self, n):
        for k in range(1, n + 1):
            value = mu_zero(n, k)
            assert value ** 2 * n * (k + 1) * binom(n, k) ** (1 / k) == \
                pytest.approx(k, rel=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            mu_zero(2, 3)


def test_elem_sym_all_prefix_consistency():
    values = (0.3, -1.2, 4.5, 2.0)
    all_four = elem_sym_all(values, 4)
    for p in range(1, 5):
        assert all_four[p - 1] == pytest.approx(elem_sym(values, p), rel=1e-14)
