"""Growth-integral classification and existence verdicts."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hessian_radial import (CONVERGES, DIVERGES, EXISTS, INCONCLUSIVE,
                            NOT_EXISTS, OUTSIDE_THEORY, Nonlinearity,
                            ProblemParams, existence_verdict,
                            ko_classify_analytic, ko_classify_numeric,
                            mu_zero, parse_f_spec)
from hessian_radial.keller_osserman import _HEAD_NODES


class TestAnalytic:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_exponential_dichotomy(self, k):
        # diverges iff alpha = 0
        assert ko_classify_analytic(Nonlinearity.exponential(0.0),
                                    k).classification == DIVERGES
        for alpha in (0.5, 1.0, 2.0):
            v = ko_classify_analytic(Nonlinearity.exponential(alpha), k)
            assert v.classification == CONVERGES
            assert v.exponential_decay

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_power_dichotomy(self, k):
        # diverges iff q <= 1
        for q in (0.0, 0.5, 1.0):
            assert ko_classify_analytic(Nonlinearity.power_cutoff(q),
                                        k).classification == DIVERGES
        for q in (1.5, 2.0):
            assert ko_classify_analytic(Nonlinearity.power_cutoff(q),
                                        k).classification == CONVERGES

    def test_power_tail_exponent(self):
        v = ko_classify_analytic(Nonlinearity.power_cutoff(1.0), 2)
        assert v.tail_exponent == pytest.approx(1.0)
        v = ko_classify_analytic(Nonlinearity.power_cutoff(1.5), 2)
        assert v.tail_exponent == pytest.approx(4.0 / 3.0)

    def test_constant_diverges(self):
        v = ko_classify_analytic(Nonlinearity.constant(5.0), 3)
        assert v.classification == DIVERGES
        assert v.tail_exponent == pytest.approx(0.25)

    def test_custom_unsupported(self):
        with pytest.raises(ValueError):
            ko_classify_analytic(Nonlinearity.custom(lambda t: 1.0), 1)


class TestNumeric:
    def test_boundary_exponent_is_inconclusive(self):
        v = ko_classify_numeric(Nonlinearity.power_cutoff(1.0), 2)
        assert v.classification == INCONCLUSIVE
        assert v.tail_exponent == pytest.approx(1.0, abs=1e-6)

    def test_subcritical_power(self):
        v = ko_classify_numeric(Nonlinearity.power_cutoff(0.5), 2)
        assert v.classification == DIVERGES
        assert v.tail_exponent == pytest.approx(2.0 / 3.0, abs=0.02)

    def test_exponential_detected_where_f_k_overflows(self):
        # f^k = e^tau is past float64 from tau = 710 on; the semi-log fit
        # reads the decay from log f alone
        v = ko_classify_numeric(Nonlinearity.exponential(1.0), 1)
        assert v.classification == CONVERGES
        assert v.exponential_decay

    def test_exponential_detected_without_overflow(self):
        # f^k = e^(3e-4 tau) stays below e^300 on the whole grid
        v = ko_classify_numeric(Nonlinearity.exponential(1e-4), 3)
        assert v.classification == CONVERGES
        assert v.exponential_decay

    # the top decade's log-log slope of such a g is no tail exponent: it
    # was reported as one, 9.1e4 to 5.5e5 here
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_exponential_decay_has_no_tail_exponent(self, k, alpha):
        v = ko_classify_numeric(Nonlinearity.exponential(alpha), k)
        assert v.exponential_decay
        assert v.tail_exponent is None
        assert v.to_dict()["evidence"]["tail_exponent_estimate"] is None

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("q", [0.2, 0.7, 1.4, 2.0])
    def test_power_tail_keeps_its_exponent(self, k, q):
        v = ko_classify_numeric(
            Nonlinearity.custom(lambda t: (1.0 + t) ** q), k)
        assert not v.exponential_decay
        assert v.tail_exponent == pytest.approx((k * q + 1) / (k + 1),
                                                abs=0.02)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("q", [0.0, 0.25, 0.5, 0.75, 1.25, 1.5, 2.0])
    def test_agreement_with_analytic_powers(self, k, q):
        f = Nonlinearity.power_cutoff(q)
        numeric = ko_classify_numeric(f, k)
        if numeric.classification == INCONCLUSIVE:
            return
        assert numeric.classification == \
            ko_classify_analytic(f, k).classification
        assert numeric.tail_exponent == \
            pytest.approx((k * q + 1) / (k + 1), abs=0.02)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
    def test_agreement_with_analytic_exponentials(self, k, alpha):
        f = Nonlinearity.exponential(alpha)
        numeric = ko_classify_numeric(f, k)
        if numeric.classification == INCONCLUSIVE:
            return
        assert numeric.classification == \
            ko_classify_analytic(f, k).classification

    def test_scaling_does_not_change_classification(self):
        for q in (0.5, 2.0):
            base = Nonlinearity.power_cutoff(q)
            scaled = Nonlinearity.custom(lambda t, b=base: 7.0 * b.eval(t))
            v0 = ko_classify_numeric(base, 2)
            v1 = ko_classify_numeric(scaled, 2)
            assert v0.classification == v1.classification
            assert v1.tail_exponent == pytest.approx(v0.tail_exponent,
                                                     abs=1e-6)

    def test_log_f_evaluated_once_on_the_tau_grid(self):
        # one pass over the head grid [0, 1) and the 400 tau nodes
        calls = []

        def counting(t):
            calls.append(t)
            return (1.0 + t) ** 1.6
        ko_classify_numeric(Nonlinearity.custom(counting), 2)
        assert len(calls) == 400 + _HEAD_NODES

    # the growth integral of c f is c^(-k/(k+1)) times that of f: the
    # verdict cannot depend on c (const:1e120 at k = 6 and 1e100 (1+t)^0.5
    # at k = 7 were called convergent by an f^k overflow screen)
    @given(e=st.floats(-150.0, 150.0), k=st.integers(1, 7),
           q=st.floats(0.2, 2.0),
           family=st.sampled_from(["const", "pow", "custom"]))
    @settings(max_examples=60, deadline=None)
    def test_scaling_by_a_constant_keeps_the_verdict(self, e, k, q, family):
        c = 10.0 ** e
        if family == "const":
            base, scaled = Nonlinearity.constant(1.0), Nonlinearity.constant(c)
        else:
            if family == "pow":
                base = Nonlinearity.power_cutoff(q)
            else:
                base = Nonlinearity.custom(lambda t: (1.0 + t) ** q)
            scaled = Nonlinearity.custom(lambda t: c * base.eval(t))
        assume(math.isfinite(scaled.eval(1e6)))
        v0, v1 = ko_classify_numeric(base, k), ko_classify_numeric(scaled, k)
        assert v1.classification == v0.classification
        assert v1.tail_exponent == pytest.approx(v0.tail_exponent, abs=1e-9)

    @pytest.mark.parametrize("f,k", [
        (Nonlinearity.constant(1e120), 6),
        (Nonlinearity.custom(lambda t: 1e100 * (1.0 + t) ** 0.5), 7)])
    def test_large_scaled_sources_diverge(self, f, k):
        assert ko_classify_numeric(f, k).classification == DIVERGES

    def test_steep_power_gets_its_tail_exponent(self):
        # k log f reaches 60 log 1e6 = 829 at tau_hi, past f^k in float64
        v = ko_classify_numeric(Nonlinearity.power_cutoff(30.0), 2)
        assert v.classification == CONVERGES
        assert v.tail_exponent == pytest.approx(61.0 / 3.0, abs=0.02)
        assert not v.exponential_decay

    def test_source_infinite_on_part_of_the_range_converges(self):
        # 1e300 (1+t)^3 overflows to inf past t ~ 564
        f = Nonlinearity.custom(lambda t: 1e300 * (1.0 + t) ** 3)
        v = ko_classify_numeric(f, 2)
        assert v.classification == CONVERGES
        assert not v.exponential_decay
        assert "infinite" in v.note
        assert "super-exponential" not in v.note

    def test_rough_power_law_fit_is_inconclusive(self):
        # log g of e^(t^0.3) is far from linear in log tau on the top decade
        f = Nonlinearity.custom(lambda t: math.exp(max(t, 0.0) ** 0.3))
        v = ko_classify_numeric(f, 1)
        assert v.classification == INCONCLUSIVE
        assert v.fit_residual > 0.05
        assert "fit residual too large" in v.note

    # f vanishes below tau = 5 of the grid [1, 1e6]: the fit drops the zero
    # head of the inner integral
    @pytest.mark.parametrize("tail,classification,exponent", [
        (lambda t: t * t, CONVERGES, 1.5), (lambda t: 1.0, DIVERGES, 0.5)])
    def test_source_switching_on_late(self, tail, classification, exponent):
        f = Nonlinearity.custom(lambda t: 0.0 if t < 5 else tail(t))
        v = ko_classify_numeric(f, 1)
        assert v.classification == classification
        assert v.tail_exponent == pytest.approx(exponent, abs=1e-3)

    def test_source_vanishing_on_most_of_the_range_rejected(self):
        f = Nonlinearity.custom(lambda t: 0.0 if t < 5e4 else t * t)
        with pytest.raises(ValueError, match="vanishes on most"):
            ko_classify_numeric(f, 1)

    def test_vanishing_source_rejected(self):
        f = Nonlinearity.custom(lambda t: 0.0)
        with pytest.raises(ValueError):
            ko_classify_numeric(f, 1)

    def test_preconditions(self):
        # the grid and the band are fixed: tau_lo = 1e-300 answered
        # `converges` for const:1
        f = Nonlinearity.constant(1.0)
        for option in ("tau_lo", "tau_hi", "nodes", "margin"):
            with pytest.raises(TypeError):
                ko_classify_numeric(f, 1, **{option: 1.0})
        with pytest.raises(TypeError):
            ko_classify_numeric(f, 1, 1.0, 1e6)


class TestExistenceVerdict:
    def test_spec_examples(self):
        f0 = Nonlinearity.exponential(0.0)
        rep = existence_verdict(ProblemParams(2, 1, 0.2), f0,
                                ko_classify_analytic(f0, 1))
        assert rep.verdict == EXISTS and rep.sharp

        f1 = Nonlinearity.power_cutoff(1.0)
        rep = existence_verdict(ProblemParams(3, 2, -0.5), f1,
                                ko_classify_analytic(f1, 2))
        assert rep.verdict == NOT_EXISTS

        fe = Nonlinearity.exponential(1.0)
        rep = existence_verdict(ProblemParams(2, 1, 1.0), fe,
                                ko_classify_analytic(fe, 1))
        assert rep.verdict == OUTSIDE_THEORY

    def test_case_table(self):
        """Hand-built fixture covering the mu/k/classification case grid."""
        mu0_21 = mu_zero(2, 1)   # ~0.3536
        mu0_32 = mu_zero(3, 2)   # ~0.3582
        div = Nonlinearity.constant(1.0)
        conv = Nonlinearity.exponential(1.0)
        inconclusive = ko_classify_numeric(Nonlinearity.power_cutoff(1.0), 2)
        cases = [
            # (params, f, expected verdict, expected sharp)
            (ProblemParams(2, 1, 0.0), div, EXISTS, True),
            (ProblemParams(2, 1, -3.0), div, EXISTS, True),
            (ProblemParams(2, 1, mu0_21 + 0.1), div, EXISTS, False),
            (ProblemParams(2, 1, 0.0), conv, NOT_EXISTS, True),
            (ProblemParams(2, 1, -3.0), conv, NOT_EXISTS, True),
            (ProblemParams(2, 1, mu0_21 + 0.1), conv, OUTSIDE_THEORY, False),
            (ProblemParams(3, 2, 0.1), div, EXISTS, True),
            (ProblemParams(3, 2, mu0_32 + 0.1), div, EXISTS, False),
            (ProblemParams(3, 2, 0.1), conv, NOT_EXISTS, True),
            (ProblemParams(3, 2, mu0_32 + 0.1), conv, OUTSIDE_THEORY, False),
            (ProblemParams(3, 2, -0.2), div, NOT_EXISTS, None),
            (ProblemParams(3, 2, -0.2), conv, NOT_EXISTS, None),
        ]
        for p, f, want, sharp in cases:
            ko = ko_classify_analytic(f, p.k)
            rep = existence_verdict(p, f, ko)
            assert rep.verdict == want, (p, f.label)
            assert rep.sharp == sharp, (p, f.label)
        rep = existence_verdict(ProblemParams(3, 2, 0.1),
                                Nonlinearity.power_cutoff(1.0), inconclusive)
        assert rep.verdict == INCONCLUSIVE

    def test_report_serializes(self):
        f = Nonlinearity.constant(1.0)
        rep = existence_verdict(ProblemParams(2, 1, 0.0), f,
                                ko_classify_analytic(f, 1))
        payload = rep.to_dict()
        assert payload["verdict"] == EXISTS
        assert payload["params"] == {"n": 2, "k": 1, "mu": 0.0}
        assert payload["ko"]["classification"] == DIVERGES


class TestSolverConsistency:
    def test_dichotomy_echoes_in_the_solver(self):
        from hessian_radial import detect_blowup
        p = ProblemParams(2, 1, 0.2)  # sharp regime: mu < mu0 ~ 0.354
        diverging = parse_f_spec("pow:0.5")
        converging = parse_f_spec("exp:2")
        for a in (1.0,):
            rep = detect_blowup(p, diverging, a, r_max=20.0, phi_cap=1e12,
                                h0=2e-3)
            assert rep.status == "global"
            rep = detect_blowup(p, converging, a, r_max=20.0, h0=2e-3)
            assert rep.status == "finite_blowup"
