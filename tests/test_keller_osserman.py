"""Growth-integral classification and existence verdicts."""

import math

import pytest

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
        v = ko_classify_numeric(Nonlinearity.power_cutoff(1.0), 2, 1.0, 1e6)
        assert v.classification == INCONCLUSIVE
        assert v.tail_exponent == pytest.approx(1.0, abs=1e-6)

    def test_subcritical_power(self):
        v = ko_classify_numeric(Nonlinearity.power_cutoff(0.5), 2, 1.0, 1e6)
        assert v.classification == DIVERGES
        assert v.tail_exponent == pytest.approx(2.0 / 3.0, abs=0.02)

    def test_exponential_detected_via_overflow(self):
        v = ko_classify_numeric(Nonlinearity.exponential(1.0), 1, 1.0, 1e6)
        assert v.classification == CONVERGES
        assert v.exponential_decay

    def test_exponential_detected_without_overflow(self):
        # range small enough that f^k stays representable
        v = ko_classify_numeric(Nonlinearity.exponential(2.0), 3, 1.0, 100.0)
        assert v.classification == CONVERGES
        assert v.exponential_decay

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("q", [0.0, 0.25, 0.5, 0.75, 1.25, 1.5, 2.0])
    def test_agreement_with_analytic_powers(self, k, q):
        f = Nonlinearity.power_cutoff(q)
        numeric = ko_classify_numeric(f, k, 1.0, 1e6)
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
        numeric = ko_classify_numeric(f, k, 1.0, 1e6)
        if numeric.classification == INCONCLUSIVE:
            return
        assert numeric.classification == \
            ko_classify_analytic(f, k).classification

    def test_scaling_does_not_change_classification(self):
        for q in (0.5, 2.0):
            base = Nonlinearity.power_cutoff(q)
            scaled = Nonlinearity.custom(
                lambda t, b=base: 7.0 * b.eval(t),
                degenerate_at_nonpositive=True)
            v0 = ko_classify_numeric(base, 2, 1.0, 1e6)
            v1 = ko_classify_numeric(scaled, 2, 1.0, 1e6)
            assert v0.classification == v1.classification
            assert v1.tail_exponent == pytest.approx(v0.tail_exponent,
                                                     abs=1e-6)

    def test_log_f_evaluated_once_on_the_tau_grid(self):
        # the overflow screen and the quadrature share one pass over the
        # 400 tau nodes; the head grid [0, tau_lo] is the other pass
        calls = []

        def counting(t):
            calls.append(t)
            return (1.0 + t) ** 1.6
        ko_classify_numeric(Nonlinearity.custom(counting), 2)
        assert len(calls) == 400 + _HEAD_NODES

    def test_vanishing_source_rejected(self):
        f = Nonlinearity.custom(lambda t: 0.0,
                                degenerate_at_nonpositive=True)
        with pytest.raises(ValueError):
            ko_classify_numeric(f, 1, 1.0, 1e4)

    def test_preconditions(self):
        f = Nonlinearity.constant(1.0)
        with pytest.raises(ValueError):
            ko_classify_numeric(f, 1, 10.0, 1.0)
        with pytest.raises(ValueError):
            ko_classify_numeric(f, 1, 1.0, 1e4, nodes=50)

    # margin=-1 called the convergent tail of (1+t)^2 (exponent 1.5)
    # divergent
    @pytest.mark.parametrize("margin", [-1.0, 1.0, math.inf, math.nan])
    def test_margin_must_lie_in_unit_interval(self, margin):
        f = Nonlinearity.custom(lambda t: (1.0 + t) ** 2)
        with pytest.raises(ValueError, match="margin"):
            ko_classify_numeric(f, 1, margin=margin)

    @pytest.mark.parametrize("tau_lo", [math.inf, math.nan, 0.0])
    def test_tau_lo_must_be_finite_and_positive(self, tau_lo):
        with pytest.raises(ValueError, match="tau_lo"):
            ko_classify_numeric(Nonlinearity.constant(1.0), 1, tau_lo=tau_lo)

    # tau_hi=inf escaped as a RuntimeWarning from geomspace
    @pytest.mark.parametrize("tau_hi", [math.inf, math.nan])
    def test_tau_hi_must_be_finite(self, tau_hi):
        with pytest.raises(ValueError, match="tau_hi"):
            ko_classify_numeric(Nonlinearity.constant(1.0), 1, tau_hi=tau_hi)


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
        inconclusive = ko_classify_numeric(Nonlinearity.power_cutoff(1.0), 2,
                                           1.0, 1e6)
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
