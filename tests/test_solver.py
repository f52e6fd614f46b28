"""Cauchy solver: break line, fixed point, defect, blow-up detection."""

import io
import json
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hessian_radial import (AdmissibilityError, Nonlinearity,
                            NonConvergenceError, ProblemParams, binom,
                            ddphi_at_zero, detect_blowup, dphi_from_integral,
                            euler_break_line, per_cell_defect, picard_solve,
                            solver)
from hessian_radial.solver import (_CSV_BLOCK_ROWS, FINITE_BLOWUP, GLOBAL,
                                   ADMISSIBILITY_FAILURE, BlowupReport,
                                   RadialProfile, _require_walk_sizes)
from oracles import convergence_order

CONST1 = Nonlinearity.constant(1.0)
EXP1 = Nonlinearity.exponential(1.0)


def closed_form(p, a):
    c = binom(p.n, p.k) ** (1.0 / p.k)
    return lambda r: a + np.asarray(r) ** 2 / (2 * c)


def reference_csv(profile):
    """The row-at-a-time writer that block writing must match byte for byte:
    one f-string per numpy value, one write per row."""
    buf = io.StringIO()
    defects = np.concatenate(([0.0], profile.cell_defects())) \
        if len(profile.grid) >= 2 else np.zeros(len(profile.grid))
    buf.write("r,phi,dphi,volterra,defect\n")
    for row in zip(profile.grid, profile.phi, profile.dphi, profile.volterra,
                   defects):
        buf.write(",".join(f"{v:.17g}" for v in row) + "\n")
    return buf.getvalue()


def assert_same_csv(got, want):
    # name the first differing row: pytest's own diff of two long strings
    # takes minutes
    got_rows, want_rows = got.splitlines(True), want.splitlines(True)
    for i, (g, w) in enumerate(zip(got_rows, want_rows)):
        assert g == w, f"row {i} differs"
    assert len(got_rows) == len(want_rows)


# -0.0, subnormals down to 5e-324, the ends of the exponent range,
# integer-valued floats and non-terminating fractions
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
                  1e-300, -1e-300, 1e300, -1e300, 1.7976931348623157e308,
                  1.0, -3.0, 2.0 ** 53, 2.0 ** 53 + 2, 1e16, 1e22, 0.1, 1 / 3]
# lengths 1 (no cells: the zeros defect) and around the block edges
CSV_LENGTHS = [1, 2, 1023, 1024, 1025, 2049]


@dataclass(frozen=True)
class GivenDefectProfile(RadialProfile):
    """A profile whose `cell_defects()` is a given column, so the CSV writer
    sees arbitrary floats in the defect column too."""

    given_defects: np.ndarray = None

    def cell_defects(self):
        return self.given_defects


@st.composite
def raw_profiles(draw):
    """RadialProfiles built directly from arbitrary float64 columns (not
    solver output: nothing is validated), with a given defect column."""
    m = draw(st.sampled_from(CSV_LENGTHS) | st.integers(1, 40))
    values = st.floats() | st.sampled_from(SPECIAL_FLOATS)
    cols = [draw(arrays(np.float64, m, elements=values)) for _ in range(4)]
    defect = draw(arrays(np.float64, m - 1, elements=values))
    return GivenDefectProfile(*cols, ProblemParams(2, 1, 0.0), CONST1,
                              given_defects=defect)


def _cycled_profile(m):
    cycle = SPECIAL_FLOATS + [math.nan, math.inf, -math.inf]
    cols = [np.resize(np.roll(cycle, i), m) for i in range(5)]
    return GivenDefectProfile(*cols[:4], ProblemParams(2, 1, 0.0), CONST1,
                              given_defects=cols[4][1:])


class TestEulerBreakLine:
    def test_initial_node(self):
        p = ProblemParams(3, 2, 0.1)
        prof = euler_break_line(p, Nonlinearity.constant(2.0), 1.5, 1.0, 0.125)
        assert prof.phi[0] == 1.5
        assert prof.dphi[0] == 0.0
        assert prof.volterra[0] == 0.0

    @pytest.mark.parametrize("n,k", [(2, 1), (3, 2)])
    def test_first_order_convergence_to_closed_form(self, n, k):
        p = ProblemParams(n, k, 0.0)
        exact = closed_form(p, 1.0)
        errs = []
        for h in (1e-2, 5e-3, 2.5e-3):
            prof = euler_break_line(p, CONST1, 1.0, 2.0, h)
            errs.append(np.max(np.abs(prof.phi - exact(prof.grid))))
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.2)
        assert errs[1] / errs[2] == pytest.approx(2.0, rel=0.2)

    def test_endpoint_value(self):
        p = ProblemParams(3, 2, 0.0)
        prof = euler_break_line(p, CONST1, 1.0, 2.0, 1e-4)
        # frozen from the closed form 1 + 4/(2 sqrt(3))
        assert prof.phi[-1] == pytest.approx(2.154700538379251529, abs=2e-4)

    def test_rejects_inadmissible_regime(self):
        with pytest.raises(AdmissibilityError):
            euler_break_line(ProblemParams(3, 2, -0.1), CONST1, 0.0, 1.0, 0.1)

    def test_truncates_on_overflow(self):
        # blow-up radius of exp:1 at (4,4), a=1 is ~1.0; ask for [0, 3]
        p = ProblemParams(4, 4, 0.0)
        prof = euler_break_line(p, EXP1, 1.0, 3.0, 1e-3)
        assert prof.truncated_at is not None
        assert prof.truncated_at < 3.0
        assert np.all(np.isfinite(prof.phi))

    @pytest.mark.parametrize("r_end,h", [(math.inf, 0.1), (math.nan, 0.1),
                                         (1.0, math.nan)])
    def test_rejects_non_finite_sizes(self, r_end, h):
        with pytest.raises(ValueError):
            euler_break_line(ProblemParams(2, 1, 0.0), CONST1, 0.0, r_end, h)

    @pytest.mark.parametrize("solve", [euler_break_line, picard_solve])
    @pytest.mark.parametrize("a,r_end,h,match", [
        (math.nan, 1.0, 0.1, "initial value"),
        (-math.inf, 1.0, 0.1, "initial value"),
        (0.0, 1.0, 2.0, "h <= r_end")])
    def test_rejects_bad_initial_value_or_step(self, solve, a, r_end, h,
                                               match):
        with pytest.raises(ValueError, match=match):
            solve(ProblemParams(2, 1, 0.0), CONST1, a, r_end, h)

    def test_rejects_radius_whose_power_overflows(self):
        # the cell quadrature needs r^(n+1) < DBL_MAX: r < 5.6e102 at n=2
        with pytest.raises(ValueError, match="overflows"):
            euler_break_line(ProblemParams(2, 1, 0.0), CONST1, 0.0, 1e200,
                             1e199)

    # r_end / h >= 2^52: no float grid resolves the step (5e-324 raised
    # OverflowError in round(r_end / h), 1e-300 asked numpy for 1e300 nodes)
    @pytest.mark.parametrize("solve", [euler_break_line, picard_solve])
    @pytest.mark.parametrize("h", [5e-324, 1e-300])
    def test_rejects_step_below_the_resolution_of_r(self, solve, h):
        with pytest.raises(ValueError, match=r"below 2\^52"):
            solve(ProblemParams(2, 1, 0.0), EXP1, 0.0, 1.0, h)

    def test_step_bound_is_r_over_h_below_2_to_52(self):
        h = 2.0 ** -52
        with pytest.raises(ValueError, match=r"below 2\^52"):
            _require_walk_sizes(2, "r_end", 1.0, "h", h)
        _require_walk_sizes(2, "r_end", 1.0, "h", math.nextafter(h, 1.0))

    def test_self_consistency_is_exact(self):
        p = ProblemParams(5, 3, 0.3)
        prof = euler_break_line(p, EXP1, 0.0, 1.0, 1/64)
        for i in range(1, len(prof.grid)):
            assert prof.dphi[i] == dphi_from_integral(
                p, float(prof.grid[i]), float(prof.volterra[i]))

    def test_positivity_along_profile(self):
        p = ProblemParams(3, 2, 0.5)
        prof = euler_break_line(p, EXP1, 0.0, 1.0, 1/128)
        assert np.all(prof.dphi[1:] > 0)
        assert np.all(np.diff(prof.phi[1:]) > 0)


class TestPicard:
    @pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (4, 4), (5, 3)])
    @pytest.mark.parametrize("a", [0.0, 1.0])
    def test_matches_closed_form(self, n, k, a):
        p = ProblemParams(n, k, 0.0)
        prof = picard_solve(p, CONST1, a, 4.0, 1e-3, tol=1e-10)
        exact = closed_form(p, a)(prof.grid)
        scale = np.maximum(np.abs(exact), 1e-30)
        rel = np.abs(prof.phi - exact) / scale
        rel[0] = 0.0
        assert np.max(rel) < 1e-6

    def test_gradient_term_against_quadrature_oracle(self):
        # for n=2, k=1, mu=1, f=1:  phi'(r) = e^(-2r) r^(-1) int_0^r e^(2s) s ds
        quad = pytest.importorskip("scipy.integrate").quad
        p = ProblemParams(2, 1, 1.0)
        prof = picard_solve(p, CONST1, 0.0, 3.0, 1e-3)
        for r in (0.5, 1.0, 2.0, 3.0):
            i = int(round(r / 1e-3))
            inner, _ = quad(lambda s: math.exp(2 * s) * s, 0.0, r,
                            epsabs=1e-13, epsrel=1e-13)
            oracle = math.exp(-2 * r) / r * inner
            assert prof.dphi[i] == pytest.approx(oracle, rel=1e-5)

    def test_monotone_in_initial_value(self):
        p = ProblemParams(2, 1, 0.0)
        lo = picard_solve(p, EXP1, 0.0, 1.0, 1e-3)
        hi = picard_solve(p, EXP1, 1.0, 1.0, 1e-3)
        assert np.all(lo.phi <= hi.phi + 1e-14)

    def test_self_consistency_is_exact(self):
        p = ProblemParams(3, 2, 0.2)
        prof = picard_solve(p, EXP1, 0.5, 0.8, 1e-3)
        recomputed = dphi_from_integral(p, prof.grid[1:], prof.volterra[1:])
        assert np.array_equal(prof.dphi[1:], recomputed)

    def test_nonconvergence_past_blowup(self):
        p = ProblemParams(2, 1, 0.0)
        with pytest.raises(NonConvergenceError):
            picard_solve(p, EXP1, 0.0, 10.0, 1e-2, tol=1e-10, max_iter=60)

    def test_rejects_radius_whose_power_overflows(self):
        with pytest.raises(ValueError, match="overflows"):
            picard_solve(ProblemParams(2, 1, 0.0), CONST1, 0.0, 1e200, 1e199)

    @pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1.0])
    def test_rejects_degenerate_tol(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and > 0"):
            picard_solve(ProblemParams(2, 1, 0.0), EXP1, 0.0, 2.0, 1e-3,
                         tol=tol)

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_rejects_max_iter_below_one(self, max_iter):
        with pytest.raises(ValueError, match="max_iter must be >= 1"):
            picard_solve(ProblemParams(2, 1, 0.0), EXP1, 0.0, 2.0, 1e-3,
                         max_iter=max_iter)

    def test_liouville_value_at_default_tol(self):
        # phi = -2 log(1 - r^2/8) for n=2, k=1, mu=0, exp:1, a=0: ln 4 at 2
        prof = picard_solve(ProblemParams(2, 1, 0.0), EXP1, 0.0, 2.0, 1e-3)
        assert prof.phi[-1] == pytest.approx(math.log(4.0), rel=1e-5)

    def test_rejects_inadmissible_regime(self):
        with pytest.raises(AdmissibilityError):
            picard_solve(ProblemParams(3, 2, -0.1), CONST1, 0.0, 1.0, 0.1)

    def test_degenerate_cutoff_zero_solution(self):
        # pow:q from a = 0: the source vanishes and phi stays at 0
        p = ProblemParams(3, 2, 0.0)
        prof = picard_solve(p, Nonlinearity.power_cutoff(2.0), 0.0, 2.0, 1e-2)
        assert np.all(prof.phi == 0.0)
        assert np.all(prof.dphi == 0.0)

    def test_initial_slope_and_curvature(self):
        p = ProblemParams(3, 2, 0.0)
        for f, a in ((CONST1, 0.0), (EXP1, 1.0)):
            h = 1e-4
            prof = picard_solve(p, f, a, 0.02, h, tol=1e-12)
            assert (prof.phi[1] - prof.phi[0]) / h == pytest.approx(0.0, abs=1e-3)
            second = (prof.phi[2] - 2 * prof.phi[1] + prof.phi[0]) / h ** 2
            assert second == pytest.approx(ddphi_at_zero(p, f, a), rel=1e-4)


class TestEulerPicardAgreement:
    def test_distance_shrinks_with_h(self):
        p = ProblemParams(3, 2, 0.1)
        f = Nonlinearity.exponential(0.5)
        dist = []
        for h in (1e-2, 5e-3, 2.5e-3):
            pe = euler_break_line(p, f, 0.5, 1.0, h)
            pp = picard_solve(p, f, 0.5, 1.0, h)
            dist.append(np.max(np.abs(pe.phi - pp.phi)))
        assert dist[0] > dist[1] > dist[2]
        assert dist[0] / dist[2] == pytest.approx(4.0, rel=0.3)


class TestDefect:
    def test_zero_slope_two_node_profile(self):
        p = ProblemParams(2, 1, 0.0)
        grid = np.array([0.0, 1.0])
        # hand-built line with slope 0 but a genuinely accumulated integral
        profile = RadialProfile(grid, np.array([0.0, 0.0]),
                                np.array([0.0, 0.0]), np.array([0.0, 0.5]),
                                p, CONST1)
        defect = np.max(per_cell_defect(profile))
        assert defect == pytest.approx(
            float(dphi_from_integral(p, 0.5, 0.25)), rel=1e-12)
        assert defect > 0

    def test_euler_defect_first_order(self):
        p = ProblemParams(3, 2, 0.0)
        d1, d2 = (np.max(per_cell_defect(
            euler_break_line(p, CONST1, 0.0, 2.0, h))) for h in (1e-2, 5e-3))
        assert d1 / d2 == pytest.approx(2.0, rel=0.25)

    def test_picard_defect_order_h(self):
        p = ProblemParams(2, 1, 0.0)
        for h in (1e-2, 1e-3):
            prof = picard_solve(p, CONST1, 0.0, 2.0, h, tol=1e-12)
            assert np.max(per_cell_defect(prof)) <= h

    def test_needs_two_nodes(self):
        p = ProblemParams(2, 1, 0.0)
        profile = RadialProfile(np.array([0.0]), np.array([1.0]),
                                np.array([0.0]), np.array([0.0]), p, CONST1)
        with pytest.raises(ValueError):
            per_cell_defect(profile)


class TestDetectBlowup:
    def test_constant_source_is_global(self):
        rep = detect_blowup(ProblemParams(2, 1, 0.0), CONST1, 0.0, r_max=100.0)
        assert rep.status == GLOBAL
        assert rep.profile.grid[-1] == pytest.approx(100.0)

    def test_exponential_source_blows_up(self):
        rep = detect_blowup(ProblemParams(2, 1, 0.0), EXP1, 0.0, r_max=100.0,
                            h0=1e-3)
        assert rep.status == FINITE_BLOWUP
        lo, hi = rep.bracket
        assert lo < rep.r_estimate <= hi
        assert hi - lo < 0.01 * rep.r_estimate

    def test_blowup_radius_against_picard_bisection(self):
        # independent bracket: the fixed point exists below R, overflows above
        p = ProblemParams(2, 1, 0.0)
        rep = detect_blowup(p, EXP1, 0.0, r_max=50.0, h0=1e-3)
        lo, hi = 0.5 * rep.r_estimate, 2.0 * rep.r_estimate
        for _ in range(12):
            mid = 0.5 * (lo + hi)
            try:
                picard_solve(p, EXP1, 0.0, mid, 2e-3, tol=1e-8, max_iter=300)
                lo = mid
            except NonConvergenceError:
                hi = mid
        assert rep.r_estimate == pytest.approx(0.5 * (lo + hi), rel=0.02)

    def test_admissibility_failure(self):
        rep = detect_blowup(ProblemParams(3, 2, -0.1), CONST1, 0.0, r_max=10.0)
        assert rep.status == ADMISSIBILITY_FAILURE
        assert rep.r_fail == pytest.approx(10.0)  # -1/mu

    @pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_initial_value(self, a):
        with pytest.raises(ValueError, match="initial value must be finite"):
            detect_blowup(ProblemParams(2, 1, 0.0), EXP1, a, r_max=10.0)

    # the walk halves its step below ulp(r)/2, where r + step == r (it used
    # to append windows at one radius until memory ran out), and a one-ulp
    # bracket whose midpoint rounds to lo (BlowupReport raised ValueError)
    @pytest.mark.parametrize("mu,a,r_max", [(0.0, -2.0, 200.0),
                                            (0.5, 0.0, 60.0)])
    def test_blowup_at_the_resolution_of_r(self, bounded_walks, mu, a,
                                           r_max):
        # the two walks settle about 100 windows in all
        rep = detect_blowup(ProblemParams(3, 1, mu),
                            Nonlinearity.exponential(3.0), a, r_max=r_max,
                            phi_cap=30.0, h0=1e-3)
        assert rep.status == FINITE_BLOWUP
        lo, hi = rep.bracket
        assert lo < rep.r_estimate <= hi < r_max
        # a one-ulp bracket: the least float above lo is hi
        assert hi == math.nextafter(lo, hi) and rep.r_estimate == hi
        assert np.all(np.diff(rep.profile.grid) > 0)

    def test_report_is_the_h0_half_walk(self):
        # 2 r2 - r1 from the two walks' estimates, clamped into the bracket,
        # put this one 7 ulps above lo; in the other 1999 cases of
        # tools/walk_digest.py it was the least float above lo
        p, a = ProblemParams(4, 1, -0.447702296968145), 1.6795554482357713
        f = Nonlinearity.custom(lambda t: t * t if t > 0 else 0.0)
        r_max, phi_cap, h0 = 2.749397887758877, 30.0, 0.0007932480922558791
        rep = detect_blowup(p, f, a, r_max=r_max, phi_cap=phi_cap, h0=h0)
        lo, hi = rep.bracket
        assert rep.status == FINITE_BLOWUP
        assert rep.r_estimate == math.nextafter(lo, hi)
        fine = solver._blowup_walk(p, f, a, r_max, phi_cap, h0 / 2)
        assert rep.to_dict() == fine.to_dict()
        for name in ("grid", "phi", "dphi", "volterra"):
            assert np.array_equal(getattr(rep.profile, name),
                                  getattr(fine.profile, name))
        assert rep.profile.truncated_at == fine.profile.truncated_at

    def test_h0_report_kept_when_the_h0_half_walk_is_global(self,
                                                            monkeypatch):
        # no known source gets past r_max at h0/2 after blowing up at h0,
        # so the h0/2 walk is replaced by one that reaches r_max
        walk, h0s = solver._blowup_walk, []

        def global_at_half_h0(p, f, a, r_max, phi_cap, h0):
            h0s.append(h0)
            if len(h0s) == 2:
                return BlowupReport(GLOBAL, r_max)
            return walk(p, f, a, r_max, phi_cap, h0)
        monkeypatch.setattr(solver, "_blowup_walk", global_at_half_h0)
        p = ProblemParams(2, 1, 0.0)
        rep = detect_blowup(p, EXP1, 0.0, r_max=10.0, h0=1e-3)
        assert h0s == [1e-3, 5e-4]
        coarse = walk(p, EXP1, 0.0, 10.0, 1e8, 1e-3)
        assert rep.status == FINITE_BLOWUP
        assert (rep.bracket, rep.r_estimate) == (coarse.bracket,
                                                 coarse.r_estimate)
        assert "reached r_max" in rep.notes

    @pytest.mark.parametrize("estimate", [1.0, 0.5, 2.5])
    def test_report_estimate_must_lie_in_its_bracket(self, estimate):
        with pytest.raises(ValueError, match=r"estimate must lie in"):
            BlowupReport(FINITE_BLOWUP, 10.0, r_estimate=estimate,
                         bracket=(1.0, 2.0))
        BlowupReport(FINITE_BLOWUP, 10.0, r_estimate=2.0, bracket=(1.0, 2.0))

    # the walk appended windows of steps that do not resolve r, with no end
    @pytest.mark.parametrize("h0", [5e-324, 1e-300])
    def test_rejects_step_below_the_resolution_of_r(self, bounded_walks, h0):
        with pytest.raises(ValueError, match=r"below 2\^52"):
            detect_blowup(ProblemParams(2, 1, 0.0), EXP1, 0.0, r_max=3.0,
                          h0=h0)

    def test_cap_must_exceed_initial_value(self):
        with pytest.raises(ValueError):
            detect_blowup(ProblemParams(2, 1, 0.0), CONST1, 2.0, r_max=1.0,
                          phi_cap=1.0)

    @pytest.mark.parametrize("r_max,h0", [(math.inf, 1e-3), (10.0, math.inf),
                                          (math.nan, 1e-3), (10.0, math.nan)])
    def test_rejects_non_finite_sizes(self, r_max, h0):
        # an infinite size must not come back as a global run: exp:1 blows
        # up at sqrt(8)
        with pytest.raises(ValueError):
            detect_blowup(ProblemParams(2, 1, 0.0), EXP1, 0.0, r_max=r_max,
                          h0=h0)

    def test_rejects_radius_whose_power_overflows(self):
        with pytest.raises(ValueError, match="overflows"):
            detect_blowup(ProblemParams(2, 1, 0.0), CONST1, 0.0, r_max=1e200,
                          h0=1e199)

    def test_accepts_radius_below_the_power_limit(self):
        # 5.6e102^3 = 1.76e308 is still a float; the walk must not raise
        rep = detect_blowup(ProblemParams(2, 1, 0.0), CONST1, 0.0,
                            r_max=5.6e102, h0=1e101)
        assert rep.status in (GLOBAL, FINITE_BLOWUP)

    @pytest.mark.parametrize("f,status", [(CONST1, GLOBAL),
                                          (EXP1, FINITE_BLOWUP)])
    def test_self_consistency_is_exact(self, f, status):
        p = ProblemParams(3, 2, 0.2)
        rep = detect_blowup(p, f, 0.5, r_max=3.0, h0=1e-2)
        assert rep.status == status
        prof = rep.profile
        for i in range(1, len(prof.grid)):
            assert prof.dphi[i] == dphi_from_integral(
                p, float(prof.grid[i]), float(prof.volterra[i]))


class TestRefinementOrder:
    def test_euler_first_order(self):
        p = ProblemParams(3, 2, 0.0)
        order = convergence_order(
            lambda h: euler_break_line(p, CONST1, 1.0, 2.0, h),
            [1e-2, 5e-3, 2.5e-3], reference=closed_form(p, 1.0))
        assert order == pytest.approx(1.0, abs=0.2)

    def test_picard_second_order(self):
        # trapezoid integration of the slope is the dominant error at mu > 0
        p = ProblemParams(2, 1, 0.5)
        order = convergence_order(
            lambda h: picard_solve(p, EXP1, 0.0, 1.0, h), [4e-2, 2e-2, 1e-2])
        assert order == pytest.approx(2.0, abs=0.3)


class TestProfileSerialization:
    def test_csv_round_trip_and_determinism(self):
        p = ProblemParams(3, 2, 0.1)
        prof = picard_solve(p, EXP1, 0.0, 1.0, 1e-2)
        buf1, buf2 = io.StringIO(), io.StringIO()
        prof.to_csv(buf1)
        prof.to_csv(buf2)
        assert buf1.getvalue() == buf2.getvalue()
        lines = buf1.getvalue().strip().splitlines()
        assert lines[0] == "r,phi,dphi,volterra,defect"
        assert len(lines) == len(prof.grid) + 1
        r_back = [float(line.split(",")[0]) for line in lines[1:]]
        assert r_back == pytest.approx(prof.grid.tolist(), rel=1e-16)

    @settings(max_examples=150, deadline=None)
    @given(raw_profiles())
    @example(_cycled_profile(1))
    @example(_cycled_profile(2049))
    def test_csv_matches_row_at_a_time_writer(self, profile):
        buf = io.StringIO()
        profile.to_csv(buf)
        assert_same_csv(buf.getvalue(), reference_csv(profile))

    @pytest.mark.parametrize("m", CSV_LENGTHS)
    def test_csv_writes_at_most_one_block_at_a_time(self, m):
        class RecordingFile:
            def __init__(self):
                self.writes = []

            def write(self, text):
                self.writes.append(text)

        profile = _cycled_profile(m)
        fh = RecordingFile()
        profile.to_csv(fh)
        assert_same_csv("".join(fh.writes), reference_csv(profile))
        header, *blocks = fh.writes
        assert header == "r,phi,dphi,volterra,defect\n"
        assert len(blocks) == -(-m // _CSV_BLOCK_ROWS)
        assert all(b.count("\n") <= _CSV_BLOCK_ROWS for b in blocks)
        # the memory bound: 1024 rows of five fields, a %.17g field being at
        # most 24 characters ("-2.2250738585072014e-308") plus a separator
        assert max(map(len, blocks)) <= 1024 * 5 * 25

    def test_json_schema(self):
        p = ProblemParams(2, 1, 0.0)
        prof = picard_solve(p, CONST1, 0.0, 1.0, 0.25)
        buf = io.StringIO()
        prof.to_json(buf)
        payload = json.loads(buf.getvalue())
        assert payload["schema"] == "hessian-radial/1"
        assert payload["params"] == {"n": 2, "k": 1, "mu": 0.0}
        assert payload["f"] == "const:1"
        assert len(payload["r"]) == len(payload["phi"]) == 5
        assert len(payload["defect"]) == 4

    def test_one_node_profile_has_no_defects(self):
        prof = RadialProfile(*(np.zeros(1) for _ in range(4)),
                             ProblemParams(2, 1, 0.0), CONST1)
        assert prof.cell_defects().shape == (0,)
        buf = io.StringIO()
        prof.to_json(buf)
        assert json.loads(buf.getvalue())["defect"] == []

    @pytest.mark.parametrize("cols,match", [
        (([0.0, 1.0], [0.0], [0.0, 0.0], [0.0, 0.0]), "share one grid"),
        (([0.0, 1.0, 1.0], [0.0] * 3, [0.0] * 3, [0.0] * 3),
         "increase strictly"),
        (([0.5, 1.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]),
         "increase strictly"),
        (([0.0, 1.0], [0.0, 1.0], [1.0, 1.0], [0.0, 1.0]), "must vanish"),
        (([0.0, 1.0], [0.0, math.inf], [0.0, 1.0], [0.0, 1.0]),
         "non-finite values in phi"),
        (([0.0, 1.0], [0.0, 1.0], [0.0, math.nan], [0.0, 1.0]),
         "non-finite values in dphi"),
        (([0.0, 1.0], [0.0, 1.0], [0.0, 1.0], [0.0, math.inf]),
         "non-finite values in volterra"),
    ])
    def test_validate_names_the_bad_column(self, cols, match):
        bad = RadialProfile(*map(np.array, cols), ProblemParams(2, 1, 0.0),
                            CONST1)
        with pytest.raises(ValueError, match=match):
            bad.validate()

    def test_validate_rejects_bad_columns(self):
        p = ProblemParams(2, 1, 0.0)
        bad = RadialProfile(np.array([0.0, 1.0]), np.array([0.0, -1.0]),
                            np.array([0.0, 0.0]), np.array([0.0, 0.0]),
                            p, CONST1)
        with pytest.raises(ValueError):
            bad.validate()
