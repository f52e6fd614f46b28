"""Radial reduction: spectrum, S_k closed form, integrand, ODE residual."""

import math
import struct
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hessian_radial import (Nonlinearity, ProblemParams, SingularityError,
                            binom, chi, ddphi_at_zero, ddphi_from_ode,
                            dphi_from_integral, elem_sym, ode_residual,
                            radial_spectrum, sk_radial, volterra_integrand)
from hessian_radial.radial import _smooth_factor
from hessian_radial.solver import (FINITE_BLOWUP, _cell_increment,
                                   _cell_increments, _cell_weights, _cells,
                                   _forward_pass, detect_blowup,
                                   euler_break_line)

CONST1 = Nonlinearity.constant(1.0)


def quadratic_profile(p, a=0.0):
    """Exact solution a + r^2 / (2 C(n,k)^(1/k)) of the constant-source ODE
    at mu = 0, with its first two derivatives."""
    c = binom(p.n, p.k) ** (1.0 / p.k)

    def phi(r):
        return a + r * r / (2 * c)

    def dphi(r):
        return r / c

    def ddphi(r):
        return 1.0 / c

    return phi, dphi, ddphi


class TestProblemParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ProblemParams(1, 1, 0.0)
        with pytest.raises(ValueError):
            ProblemParams(3, 4, 0.0)
        with pytest.raises(ValueError):
            ProblemParams(3, 0, 0.0)
        with pytest.raises(ValueError):
            ProblemParams(3, 2, math.nan)

    @pytest.mark.parametrize("n,k", [(2.5, 1), (3, 1.5)])
    def test_non_integer_dimension_or_order(self, n, k):
        with pytest.raises(ValueError, match="must be integers"):
            ProblemParams(n, k, 0.0)

    @pytest.mark.parametrize("n,k,mu,admissible", [
        (2, 1, -5.0, True), (2, 1, 5.0, True),
        (3, 2, 0.0, True), (3, 2, 0.5, True), (3, 2, -1e-9, False),
    ])
    def test_admissible_regime(self, n, k, mu, admissible):
        assert ProblemParams(n, k, mu).admissible_regime() is admissible

    def test_ko_equiv_regime(self):
        assert ProblemParams(2, 1, -2.0).ko_equiv_regime()  # k=1: any mu < mu0
        assert ProblemParams(2, 1, 0.2).ko_equiv_regime()
        assert not ProblemParams(2, 1, 0.4).ko_equiv_regime()  # mu0 ~ 0.354
        assert ProblemParams(3, 2, 0.1).ko_equiv_regime()
        assert not ProblemParams(3, 2, -0.1).ko_equiv_regime()


class TestRadialSpectrum:
    def test_origin_branch_isotropic(self):
        spec = radial_spectrum(ProblemParams(3, 2, 0.0), 0.0, 0.0, 2.0)
        assert spec.tolist() == [2.0, 2.0, 2.0]

    def test_positive_radius(self):
        spec = radial_spectrum(ProblemParams(2, 1, 0.5), 2.0, 1.0, 0.0)
        assert spec.tolist() == pytest.approx([0.5, 1.0])

    def test_negative_mu(self):
        spec = radial_spectrum(ProblemParams(3, 1, -1.0), 2.0, 1.0, 3.0)
        assert spec.tolist() == pytest.approx([2.0, -0.5, -0.5])

    def test_origin_requires_zero_slope(self):
        with pytest.raises(ValueError):
            radial_spectrum(ProblemParams(2, 1, 0.0), 0.0, 0.1, 1.0)


class TestSkRadial:
    @pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (4, 4), (5, 3)])
    def test_quadratic_profile_all_eigen_one(self, n, k):
        # phi = r^2/2 has spectrum (1,...,1) at mu=0, so S_k = C(n,k)
        p = ProblemParams(n, k, 0.0)
        for r in (0.5, 1.0, 3.0):
            assert sk_radial(p, r, r, 1.0) == pytest.approx(binom(n, k),
                                                            rel=1e-13)

    @pytest.mark.parametrize("n,k,mu", [(3, 2, 0.4), (4, 3, 0.2), (2, 1, 1.0)])
    def test_quadratic_profile_with_mu(self, n, k, mu):
        # spectrum is (1 + mu r) * ones, so S_k = C(n,k) (1+mu r)^k
        p = ProblemParams(n, k, mu)
        for r in (0.5, 2.0):
            want = binom(n, k) * (1 + mu * r) ** k
            assert sk_radial(p, r, r, 1.0) == pytest.approx(want, rel=1e-13)

    def test_two_term_display(self):
        p = ProblemParams(3, 2, 0.0)
        assert sk_radial(p, 1.0, 1.0, 0.0) == pytest.approx(1.0)

    def test_origin_branch(self):
        p = ProblemParams(4, 3, 0.7)
        assert sk_radial(p, 0.0, 0.0, 2.0) == pytest.approx(binom(4, 3) * 8.0)

    @given(st.integers(2, 6), st.data(),
           st.floats(min_value=-2, max_value=2, allow_nan=False),
           st.floats(min_value=1e-3, max_value=10, allow_nan=False),
           st.floats(min_value=-10, max_value=10, allow_nan=False),
           st.floats(min_value=-10, max_value=10, allow_nan=False))
    @settings(max_examples=400, deadline=None)
    def test_matches_elem_sym_of_spectrum(self, n, data, mu, r, dphi, ddphi):
        k = data.draw(st.integers(1, n))
        p = ProblemParams(n, k, mu)
        closed = sk_radial(p, r, dphi, ddphi)
        generic = elem_sym(radial_spectrum(p, r, dphi, ddphi), k)
        scale = max(1.0, abs(closed), abs(generic))
        assert abs(closed - generic) / scale < 1e-10


def reference_spectrum(p, r, dphi, ddphi):
    """radial_spectrum as two separate formulas, each with its own checks."""
    if r < 0:
        raise ValueError(f"radius must be >= 0, got {r}")
    if r == 0:
        if dphi != 0:
            raise ValueError("a C^2 radial profile forces phi'(0) = 0; "
                             f"got phi'(0) = {dphi}")
        return np.full(p.n, float(ddphi))
    out = np.full(p.n, (1.0 + p.mu * r) / r * dphi)
    out[0] = ddphi + p.mu * dphi
    return out


def reference_sk(p, r, dphi, ddphi):
    """sk_radial with its own copy of the checks and of lambda_2."""
    if r < 0:
        raise ValueError(f"radius must be >= 0, got {r}")
    if r == 0:
        if dphi != 0:
            raise ValueError("a C^2 radial profile forces phi'(0) = 0; "
                             f"got phi'(0) = {dphi}")
        return binom(p.n, p.k) * float(ddphi) ** p.k
    w = (1.0 + p.mu * r) / r * dphi
    return (binom(p.n - 1, p.k - 1) * (ddphi + p.mu * dphi) * w ** (p.k - 1)
            + math.comb(p.n - 1, p.k) * w ** p.k)


def outcome(fn, *args):
    """The bits of fn's float results, or the type and message it raised."""
    try:
        out = np.atleast_1d(fn(*args))
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    return [struct.pack("<d", v) for v in out.tolist()]


class TestRadialPair:
    """radial_spectrum and sk_radial share one eigenvalue pair and one set
    of checks; the results and error messages are those of the separate
    formulas, bit for bit."""

    @given(st.integers(2, 6), st.integers(1, 6),
           st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.5, -2.0]),
           st.just(0.0) | st.floats(-1e3, 1e3) | st.floats(
               allow_nan=False),
           st.sampled_from([0.0, -0.0]) | st.floats(allow_nan=False),
           st.floats(allow_nan=False))
    @example(3, 2, -1.0, 0.0, 0.0, 2.5)        # origin
    @example(3, 2, -1.0, 0.0, 1e-3, 2.5)       # origin with a slope
    @example(3, 2, -1.0, -1.0, 0.0, 2.5)       # negative radius
    @example(4, 3, -0.5, 2.0, 1.5, -1.0)       # 1 + mu r = 0
    @example(2, 2, 0.3, 1e-300, 1e300, 1e300)  # the powers overflow
    @settings(max_examples=400, deadline=None)
    def test_bit_equal_to_separate_formulas(self, n, k, mu, r, dphi, ddphi):
        p = ProblemParams(n, min(k, n), mu)
        args = (p, r, dphi, ddphi)
        assert outcome(radial_spectrum, *args) == outcome(reference_spectrum,
                                                          *args)
        assert outcome(sk_radial, *args) == outcome(reference_sk, *args)


class TestChi:
    def test_values(self):
        assert chi(ProblemParams(3, 3, 2.0), 5.0) == pytest.approx(30.0)
        assert chi(ProblemParams(2, 1, 0.0), math.e) == pytest.approx(1.0)
        assert chi(ProblemParams(4, 2, 1.0), 1.0) == pytest.approx(4.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            chi(ProblemParams(2, 1, 0.0), 0.0)
        with pytest.raises(ValueError):
            chi(ProblemParams(2, 1, 0.0), np.array([1.0, -2.0]))

    def test_arrays_and_scalars(self):
        p = ProblemParams(5, 2, 0.7)
        rs = np.array([1e-300, 0.3, 1.0, 7.5, 1e300])
        vec = chi(p, rs)
        assert isinstance(vec, np.ndarray) and vec.shape == rs.shape
        for r, v in zip(rs.tolist(), vec.tolist()):
            x = chi(p, r)
            assert type(x) is float and x == v
            # numpy's log, not math.log: the two differ in the last bit
            assert x == p.n * p.mu * r + (p.n - p.k) * float(np.log(r))


class TestVolterraIntegrand:
    def test_values(self):
        p = ProblemParams(2, 1, 0.0)
        assert volterra_integrand(p, CONST1, 3.0, 42.0) == pytest.approx(3.0)
        p = ProblemParams(3, 2, 0.0)
        assert volterra_integrand(p, CONST1, 2.0, 0.0) == pytest.approx(4.0)
        p = ProblemParams(2, 1, 1.0)
        f = Nonlinearity.exponential(1.0)
        assert volterra_integrand(p, f, 1.0, 0.0) == \
            pytest.approx(math.exp(2.0), rel=1e-13)

    def test_continuous_for_k1_any_mu(self):
        # no (1 + mu s) factor when k = 1: finite across s = -1/mu
        p = ProblemParams(3, 1, -2.0)
        values = [volterra_integrand(p, CONST1, s, 0.0)
                  for s in (0.49, 0.5, 0.51)]
        assert all(math.isfinite(v) and v > 0 for v in values)

    def test_singularity_for_k2(self):
        p = ProblemParams(3, 2, -2.0)
        with pytest.raises(SingularityError):
            volterra_integrand(p, CONST1, 0.5, 0.0)

    @pytest.mark.parametrize("s", [0.6, 5.0, np.array([0.1, 0.6])])
    def test_past_the_singularity_for_k2(self, s):
        # past s = -1/mu, 1 + mu s < 0: the factor (1 + mu s)^(1-k) does not
        # belong to an admissible profile, and no value is returned
        with pytest.raises(SingularityError):
            volterra_integrand(ProblemParams(3, 2, -2.0), CONST1, s, 0.0)
        with pytest.raises(SingularityError):
            _smooth_factor(ProblemParams(4, 3, -1.0), CONST1, s * 2, 0.0)

    def test_needs_positive_s(self):
        with pytest.raises(ValueError):
            volterra_integrand(ProblemParams(2, 1, 0.0), CONST1, 0.0, 0.0)


class TestDphiFromIntegral:
    def test_values(self):
        assert dphi_from_integral(ProblemParams(4, 2, 0.3), 1.0, 0.0) == 0.0
        assert dphi_from_integral(ProblemParams(2, 1, 0.0), 2.0, 2.0) == \
            pytest.approx(1.0)
        assert dphi_from_integral(ProblemParams(3, 3, 0.0), 2.0, 8.0) == \
            pytest.approx(2.0)

    def test_preconditions(self):
        p = ProblemParams(2, 1, 0.0)
        with pytest.raises(ValueError):
            dphi_from_integral(p, 0.0, 1.0)
        with pytest.raises(ValueError):
            dphi_from_integral(p, 1.0, -1.0)

    # k = n at mu = 0 is where -chi and (k-n) log r - n mu r differ in the
    # sign of a zero; log I is never -0.0, so the slopes agree
    @given(st.sampled_from([(2, 1), (2, 2), (3, 2), (3, 3), (5, 3), (6, 6)]),
           st.sampled_from([0.0, -0.0]) | st.floats(-5, 5),
           st.floats(min_value=5e-324, max_value=1e300),
           st.sampled_from([0.0, 1.0, 1e308, math.inf])
           | st.floats(min_value=0, max_value=1e308))
    @example((3, 3), 0.0, 2.0, 1.0)
    @example((2, 2), -0.0, 0.5, 1.0)
    @example((4, 4), 0.0, 1e-300, 1e308)
    @settings(max_examples=400, deadline=None)
    def test_bit_equal_to_the_log_domain_expression(self, nk, mu, r, I):
        p = ProblemParams(*nk, mu)
        k, n = p.k, p.n
        with np.errstate(all="ignore"):
            want = np.exp(((k - n) * np.log(r) - n * mu * r + np.log(I)) / k)
        got = dphi_from_integral(p, r, I)
        assert type(got) is float
        assert struct.pack("d", got) == struct.pack("d", want)
        vec = dphi_from_integral(p, np.array([r, r]), np.array([I, 0.0]))
        assert struct.pack("d", vec[0]) == struct.pack("d", want)

    def test_vector_and_scalar_paths_agree(self):
        p = ProblemParams(5, 3, 0.2)
        rs = np.array([0.1, 1.0, 7.3])
        Is = np.array([1e-8, 2.0, 5e4])
        vec = dphi_from_integral(p, rs, Is)
        for r, I, v in zip(rs, Is, vec):
            assert dphi_from_integral(p, float(r), float(I)) == v


SOURCES = {
    "const": Nonlinearity.constant(1.7),
    "exp": Nonlinearity.exponential(1.3),
    "pow": Nonlinearity.power_cutoff(2.5),
    "custom": Nonlinearity.custom(lambda t: t * t if t > 0 else 0.0),
}
# k = 1 with any mu (1 + mu s < 0 included), k >= 2 with mu >= 0: the
# log-domain branch of G, which is what the break-line walk evaluates
regimes = st.tuples(st.sampled_from([(2, 1), (3, 1), (3, 2), (4, 4), (5, 3),
                                     (6, 2)]),
                    st.floats(min_value=-2, max_value=2)).map(
    lambda t: ProblemParams(*t[0], t[1] if t[0][1] == 1 else abs(t[1])))


def radius_limit(n):
    """Largest float r whose r^(n+1) is a float (the walks' radius limit)."""
    def fits(r):
        try:
            return r ** (n + 1) < math.inf
        except OverflowError:
            return False

    r = sys.float_info.max ** (1.0 / (n + 1))
    while not fits(r):
        r = math.nextafter(r, 0.0)
    while fits(math.nextafter(r, math.inf)):
        r = math.nextafter(r, math.inf)
    return r


@st.composite
def quadrature_cells(draw):
    """(n, s0, s1, G0, G1): a cell 0 <= s0 < s1 <= the radius limit, ends
    at 0, near the limit or anywhere between, G finite or +inf."""
    n = draw(st.integers(2, 12))
    top = radius_limit(n)
    ends = (st.just(0.0) | st.floats(0.0, 50.0) | st.floats(0.0, top)
            | st.floats(top * (1 - 1e-3), top) | st.just(top))
    s0, s1 = sorted((draw(ends), draw(ends)))
    assume(s0 < s1)
    G = st.just(0.0) | st.floats(0.0, 1e308) | st.just(math.inf)
    return n, s0, s1, draw(G), draw(G)


def float_path(fn, *args):
    """fn(*args) on floats, asserting that no RuntimeWarning escapes."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert type(out) is float
    return out


def array_path(fn, *args):
    """Element 0 of fn on length-2 arrays whose first entries are args."""
    with np.errstate(all="ignore"):
        return fn(*(np.array([x, 1.0]) for x in args))[0]


def adaptive_steps(r, dphi, h0, r_max, step_cap=1e6):
    """The steps of detect_blowup's walk (phi_cap 1e8), replayed from its
    columns: h0, halved while the predicted increment dphi * step is not
    finite or exceeds step_cap, and never more than the rest to r_max."""
    steps, h = [], h0
    for r0, slope in zip(r[:-1], dphi[:-1]):
        step = min(h, r_max - r0)
        while not (math.isfinite(slope * step) and slope * step <= step_cap):
            h /= 2.0
            step = min(h, r_max - r0)
        steps.append(step)
    return steps


def walk_case(p, family, a, r_end, m, adaptive):
    """(profile, the steps the walk took) of euler_break_line on [0, r_end]
    at h = r_end / m, or of detect_blowup up to r_end from h0 = h."""
    f, h = SOURCES[family], r_end / m
    if not adaptive:
        prof = euler_break_line(p, f, a, r_end, h)
        return prof, np.diff(prof.grid).tolist()
    rep = detect_blowup(p, f, a, r_max=r_end, h0=h)
    if rep.status == FINITE_BLOWUP and not rep.notes:
        h /= 2.0  # the profile of the refined walk
    prof = rep.profile
    return prof, adaptive_steps(prof.grid.tolist(), prof.dphi.tolist(), h,
                                r_end)


class TestFloatPaths:
    """The break-line walk's columns equal the array layers that Picard
    uses bit for bit (==, never approx)."""

    # G from the array layer on the walk's own columns.  The adaptive walk's
    # nodes are checked against its replayed steps, and phi moves by the
    # node spacing r[i+1] - r[i], which can differ from the step by rounding.
    @given(regimes, st.sampled_from(sorted(SOURCES)),
           st.floats(min_value=-2, max_value=2),
           st.floats(min_value=0.05, max_value=5), st.integers(1, 200),
           st.booleans())
    @example(ProblemParams(3, 2, 0.2), "const", 0.5, 3.0, 300, True)
    @example(ProblemParams(2, 1, -0.3), "exp", 0.5, 3.0, 100, True)
    # halving to cells 1e-14 of their radius wide, where weights formed as
    # differences of s^n and s^(n+1) would cancel to nothing
    @example(ProblemParams(4, 4, 0.0), "pow", 1.0, 5.0, 100, True)
    @example(ProblemParams(4, 4, 0.0), "pow", 0.5, 3.0, 60, True)
    # more nodes than one walk window: fixed, adaptive to r_end, and
    # adaptive with halvings past the first window up to a blow-up
    @example(ProblemParams(3, 2, 0.4), "custom", 0.5, 3.0, 1500, False)
    @example(ProblemParams(5, 3, 1.1), "const", 1.0, 2.0, 1300, True)
    @example(ProblemParams(3, 2, 0.2), "pow", 0.5, 5.0, 2000, True)
    @settings(max_examples=200, deadline=None)
    def test_walk_matches_array_layers(self, p, family, a, r_end, m,
                                       adaptive):
        prof, steps = walk_case(p, family, a, r_end, m, adaptive)
        r, phi, dphi, I = (col.tolist() for col in
                           (prof.grid, prof.phi, prof.dphi, prof.volterra))
        G = _smooth_factor(p, prof.f, prof.grid, prof.phi).tolist()
        for i in range(len(r) - 1):
            assert r[i] + steps[i] == r[i + 1]
            assert phi[i + 1] == phi[i] + dphi[i] * (r[i + 1] - r[i])
            assert I[i + 1] == I[i] + _cell_increment(r[i], r[i + 1], G[i],
                                                      G[i + 1], p.n)
        assert np.array_equal(
            prof.dphi[1:], dphi_from_integral(p, prof.grid[1:],
                                              prof.volterra[1:]))
        assert np.array_equal(
            prof.volterra, _forward_pass(p, prof.f, prof.grid, prof.phi,
                                         _cells(p, prof.grid))[0])

    # the weights use only + and *, so floats and arrays agree on every
    # cell, also where Python's and numpy's powers differ in the last bit
    # (4.646173882695036 ** 11 on some hosts)
    @given(quadrature_cells())
    @example((11, 4.5, 4.646173882695036, 1.0, 1.0))
    @example((3, 0.0, 1e-3, 1.0, 1.0))
    @example((2, 0.0, radius_limit(2), 1.0, math.inf))
    @example((12, radius_limit(12) * 0.5, radius_limit(12), math.inf, 0.0))
    @settings(max_examples=300, deadline=None)
    def test_cell_increment(self, cell):
        n, s0, s1, G0, G1 = cell
        ends = np.array([s0, s1])
        x = float_path(_cell_increment, s0, s1, G0, G1, n)
        y = float(_cell_increments(ends, np.array([G0, G1]), n)[0])
        # 0 * inf is nan on both paths
        assert x == y or (math.isnan(x) and math.isnan(y))

    def test_zero_integral_and_overflow(self):
        p = ProblemParams(3, 1, -0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert dphi_from_integral(p, 2.0, 0.0) == 0.0
            assert dphi_from_integral(p, 1e-6, 1e308) == math.inf
            assert _smooth_factor(p, SOURCES["exp"], 0.5, 1000.0) == math.inf


class TestCellWeights:
    """The product-trapezoid weights against independent oracles: A and B
    are the integrals over [s0, s1] of s^(n-1) (s1 - s) / h and
    s^(n-1) (s - s0) / h, with h = s1 - s0."""

    # thin cells far from the origin, where weights formed as differences
    # of s^n and s^(n+1) lose about (s/h)^2 eps
    @pytest.mark.parametrize("s0,n", [(100.0, 2), (50.0, 3), (1000.0, 5)])
    def test_thin_far_cells_against_mpmath(self, s0, n):
        mp = pytest.importorskip("mpmath")
        s1 = s0 + 1e-3
        weights = _cell_weights(s0, s1, n)
        with mp.workdps(50):
            lo, hi = mp.mpf(s0), mp.mpf(s1)
            exact = (mp.quad(lambda s: s ** (n - 1) * (hi - s), [lo, hi]),
                     mp.quad(lambda s: s ** (n - 1) * (s - lo), [lo, hi]))
            for got, want in zip(weights, exact):
                rel = abs(mp.mpf(got) * (hi - lo) / want - 1)
                assert rel <= 8 * sys.float_info.epsilon

    # A is at least h s1^(n-1) / (n (n+1)) and B at least n times that, so
    # both are positive wherever that bound is not below the normal floats;
    # the examples are cells one ulp wide
    @given(quadrature_cells())
    @example((2, 100.0, math.nextafter(100.0, 200.0), 1.0, 1.0))
    @example((5, 1000.0, math.nextafter(1000.0, 2000.0), 1.0, 1.0))
    @settings(max_examples=300, deadline=None)
    def test_positive(self, cell):
        n, s0, s1, _, _ = cell
        assume((s1 - s0) * s1 ** (n - 1)
               >= n * (n + 1) * sys.float_info.min)
        A, B = _cell_weights(s0, s1, n)
        assert A > 0.0 and B > 0.0

    @pytest.mark.parametrize("n", range(1, 9))
    def test_symbolic_weights_are_the_exact_integrals(self, n):
        sympy = pytest.importorskip("sympy")
        s, s0, s1 = sympy.symbols("s s0 s1")
        A, B = _cell_weights(s0, s1, n)
        h = s1 - s0
        for w, kernel in ((A, s1 - s), (B, s - s0)):
            exact = sympy.integrate(s ** (n - 1) * kernel, (s, s0, s1))
            assert sympy.expand(w * h - exact) == 0


class TestOdeResidual:
    @pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (4, 4), (5, 3)])
    @pytest.mark.parametrize("a", [0.0, 1.0])
    def test_closed_form_solution_has_zero_residual(self, n, k, a):
        p = ProblemParams(n, k, 0.0)
        phi, dphi, ddphi = quadratic_profile(p, a)
        for r in (0.25, 1.0, 2.0, 7.0):
            res = ode_residual(p, CONST1, r, phi(r), dphi(r), ddphi(r))
            assert abs(res) < 1e-12

    def test_symbolic_substitution_oracle(self):
        # independent route: substitute the closed form into the S_k display
        # with sympy and reduce to zero exactly
        sympy = pytest.importorskip("sympy")
        r = sympy.symbols("r", positive=True)
        for n, k in [(2, 1), (3, 2), (5, 3)]:
            c = sympy.Integer(binom(n, k)) ** sympy.Rational(1, k)
            phi_prime = r / c
            phi_second = 1 / c
            w = phi_prime / r
            sk = (sympy.binomial(n - 1, k - 1) * phi_second * w ** (k - 1)
                  + sympy.binomial(n - 1, k) * w ** k)
            assert sympy.simplify(sk - 1) == 0

    def test_zero_profile_misses_unit_source(self):
        p = ProblemParams(4, 2, 0.7)
        assert ode_residual(p, CONST1, 1.0, 0.0, 0.0, 0.0) == pytest.approx(-1.0)

    @pytest.mark.parametrize("r", [0.0, -1.0])
    def test_needs_positive_radius(self, r):
        with pytest.raises(ValueError, match="needs r > 0"):
            ode_residual(ProblemParams(3, 2, 0.0), CONST1, r, 0.0, 1.0, 1.0)


class TestDdphiAtZero:
    def test_values(self):
        assert ddphi_at_zero(ProblemParams(3, 2, 0.0), CONST1, 17.0) == \
            pytest.approx(1 / math.sqrt(3), rel=1e-14)
        f = Nonlinearity.exponential(1.0)
        assert ddphi_at_zero(ProblemParams(2, 1, 0.0), f, 0.0) == \
            pytest.approx(0.5, rel=1e-14)
        f3 = Nonlinearity.constant(3.0)
        assert ddphi_at_zero(ProblemParams(4, 4, 0.0), f3, 1.0) == \
            pytest.approx(3.0, rel=1e-14)


class TestDdphiFromOde:
    @pytest.mark.parametrize("n,k,mu", [(2, 1, 0.0), (3, 2, 0.0), (5, 3, 0.0)])
    def test_recovers_closed_form_curvature(self, n, k, mu):
        p = ProblemParams(n, k, mu)
        phi, dphi, ddphi = quadratic_profile(p, 0.5)
        for r in (0.5, 1.0, 4.0):
            got = ddphi_from_ode(p, CONST1, r, phi(r), dphi(r))
            assert got == pytest.approx(ddphi(r), rel=1e-11)

    def test_degenerate_slope_rejected_for_k2(self):
        p = ProblemParams(3, 2, 0.0)
        with pytest.raises(ZeroDivisionError):
            ddphi_from_ode(p, CONST1, 1.0, 0.0, 0.0)

    @pytest.mark.parametrize("r", [0.0, -1.0])
    def test_needs_positive_radius(self, r):
        with pytest.raises(ValueError, match="needs r > 0"):
            ddphi_from_ode(ProblemParams(3, 2, 0.0), CONST1, r, 0.0, 1.0)


class TestDivergenceForm:
    @pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (5, 3)])
    def test_divergence_identity_on_closed_form(self, n, k):
        # d/dr[(phi')^k e^chi] == (k/C(n-1,k-1)) e^chi (r/(1+mu r))^(k-1) f^k
        # for the constant-source closed form at mu=0, by central differences
        p = ProblemParams(n, k, 0.0)
        phi, dphi, _ = quadratic_profile(p)
        d = 1e-5

        def H(r):
            return dphi(r) ** k * math.exp(chi(p, r))

        for r in (0.5, 1.0, 2.0):
            lhs = (H(r + d) - H(r - d)) / (2 * d)
            rhs = (k / binom(n - 1, k - 1) * math.exp(chi(p, r))
                   * r ** (k - 1) * CONST1.pow_k(phi(r), k))
            assert lhs == pytest.approx(rhs, rel=1e-7)
