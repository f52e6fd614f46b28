"""Divergence test for the integral growth condition and existence verdicts.

The dichotomy is driven by the outer integral

    int^inf ( int_0^tau f(t)^k dt )^(-1/(k+1)) dtau

(lower limit arbitrary positive): divergence means entire admissible
subsolutions exist, convergence means they do not, in the mu ranges where the
theory applies.  Built-in families are classified analytically; arbitrary
nonlinearities get a quadrature + tail-exponent fit on tau in [1, 1e6] with
an inconclusive band around the boundary exponent 1, because no finite fit
can tell a tail exponent of exactly 1 from 1 +- eps.  The quadrature sums
the inner integral on the log scale from k log f, never forming f^k: c f
(c > 0) shifts log g by a constant and gets the verdict of f.
"""

from dataclasses import dataclass

import numpy as np

from .nonlinearity import Nonlinearity
from .radial import ProblemParams
from .symmetric import _integers

__all__ = [
    "DIVERGES", "CONVERGES", "INCONCLUSIVE",
    "EXISTS", "NOT_EXISTS", "OUTSIDE_THEORY",
    "KOVerdict", "ExistenceReport",
    "ko_classify_analytic", "ko_classify_numeric", "existence_verdict",
]

DIVERGES = "diverges"
CONVERGES = "converges"
INCONCLUSIVE = "inconclusive"

EXISTS = "exists"
NOT_EXISTS = "not_exists"
OUTSIDE_THEORY = "outside_theory"

# No numeric verdict is issued within this band around tail exponent 1.
DEFAULT_MARGIN = 0.05
# Power-law fits with log-log rms residual above this are not trusted.
FIT_RESIDUAL_MAX = 0.05
# The one grid the thresholds above are tuned on: _HEAD_NODES uniform nodes
# on [0, 1), then _TAU_NODES geometric nodes on _TAU_RANGE.
_TAU_RANGE = (1.0, 1e6)
_TAU_NODES = 400
_HEAD_NODES = 4097


@dataclass(frozen=True)
class KOVerdict:
    """Classification of the outer integral with the evidence that backs it."""

    classification: str
    method: str  # "analytic" | "numeric"
    tail_exponent: float | None = None
    exponential_decay: bool = False
    partial_integral: float | None = None
    tau_range: tuple[float, float] | None = None
    fit_residual: float | None = None
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "classification": self.classification,
            "evidence": {
                "method": self.method,
                "tail_exponent_estimate": self.tail_exponent,
                "exponential_decay": self.exponential_decay,
                "partial_integral": self.partial_integral,
                "tau_range": list(self.tau_range) if self.tau_range else None,
                "fit_residual": self.fit_residual,
                "note": self.note,
            },
        }


@dataclass(frozen=True)
class ExistenceReport:
    """Existence verdict for entire admissible subsolutions."""

    verdict: str
    sharp: bool | None
    reason: str
    mu0: float | None
    params: ProblemParams | None
    ko: KOVerdict

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "sharp": self.sharp,
            "reason": self.reason,
            "mu0": self.mu0,
            "params": self.params.to_dict() if self.params else None,
            "ko": self.ko.to_dict(),
        }


def ko_classify_analytic(f: Nonlinearity, k: int) -> KOVerdict:
    """Closed-form classification for the built-in families.

    const:c       inner integral ~ tau, outer exponent 1/(k+1) < 1: diverges.
    exp:alpha     diverges iff alpha = 0 (else the outer integrand decays
                  exponentially).
    pow:q         outer exponent (kq+1)/(k+1): diverges iff q <= 1.
    """
    (k,) = _integers(k=k)
    if k < 1:
        raise ValueError(f"order k must be >= 1, got {k}")
    if f.family == "const":
        return KOVerdict(DIVERGES, "analytic", tail_exponent=1.0 / (k + 1))
    if f.family == "exp":
        if f.param == 0:
            return KOVerdict(DIVERGES, "analytic", tail_exponent=1.0 / (k + 1),
                             note="alpha = 0 reduces to a constant source")
        return KOVerdict(CONVERGES, "analytic", exponential_decay=True)
    if f.family == "pow":
        exponent = (k * f.param + 1.0) / (k + 1.0)
        cls = DIVERGES if f.param <= 1 else CONVERGES
        return KOVerdict(cls, "analytic", tail_exponent=exponent)
    raise ValueError("analytic classification covers built-in families only; "
                     "use ko_classify_numeric for custom nonlinearities")


def ko_classify_numeric(f: Nonlinearity, k: int) -> KOVerdict:
    """Quadrature-based classification on a geometric tau grid.

    Fits log g against log tau on the top decade of tau in [1, 1e6] (400
    geometric nodes) for the tail exponent p of
    g(tau) = (int_0^tau f^k)^(-1/(k+1)); p below 1 - DEFAULT_MARGIN means
    divergence, p above 1 + DEFAULT_MARGIN convergence, anything inside the
    band inconclusive.  When log g is linear in tau instead, the verdict is
    convergence by exponential decay, with no tail exponent.  A source that
    is +inf at some node converges: the outer integrand is 0 from there on.
    """
    (k,) = _integers(k=k)
    if k < 1:
        raise ValueError(f"order k must be >= 1, got {k}")
    tau = np.geomspace(*_TAU_RANGE, _TAU_NODES)
    grid = np.concatenate(
        (np.linspace(0.0, _TAU_RANGE[0], _HEAD_NODES, endpoint=False), tau))
    klog = k * np.asarray(f.log_eval(grid), dtype=float)
    if klog.max() == np.inf:
        # from there on the inner integral is inf, the outer integrand 0
        return KOVerdict(CONVERGES, "numeric", tau_range=_TAU_RANGE,
                         note=f"f is infinite at t = {grid[klog.argmax()]:.6g}")
    # int_0^tau f^k by trapezoids, summed on the log scale; the first
    # _HEAD_NODES cells make up int_0^1, which is all the fit needs of them
    cells = np.logaddexp(klog[1:], klog[:-1]) + np.log(0.5 * np.diff(grid))
    log_inner = np.logaddexp.accumulate(np.concatenate(
        ([np.logaddexp.reduce(cells[:_HEAD_NODES])], cells[_HEAD_NODES:])))
    if log_inner[-1] == -np.inf:
        raise ValueError("f vanishes identically on the integration range")
    if log_inner[0] == -np.inf:
        # source switches on late; drop the zero head for the fit
        keep = log_inner > -np.inf
        tau, log_inner = tau[keep], log_inner[keep]
        if len(tau) < _TAU_NODES // 2:
            raise ValueError("f vanishes on most of the integration range")
    log_g = -log_inner / (k + 1.0)
    g = np.exp(log_g)
    partial = float(np.sum(0.5 * (g[1:] + g[:-1]) * np.diff(tau)))
    top = tau >= tau[-1] / 10.0
    log_tau, log_g = np.log(tau[top]), log_g[top]
    slope_ll, icpt_ll = np.polyfit(log_tau, log_g, 1)
    resid_ll = float(np.sqrt(np.mean(
        (log_g - (slope_ll * log_tau + icpt_ll)) ** 2)))
    slope_exp, icpt_exp = np.polyfit(tau[top], log_g, 1)
    resid_exp = float(np.sqrt(np.mean(
        (log_g - (slope_exp * tau[top] + icpt_exp)) ** 2)))
    p_hat = -float(slope_ll)
    common = dict(method="numeric", tail_exponent=p_hat,
                  partial_integral=partial, tau_range=_TAU_RANGE,
                  fit_residual=resid_ll)
    if slope_exp < 0 and resid_exp < 0.1 * max(resid_ll, 1e-12):
        return KOVerdict(CONVERGES, exponential_decay=True,
                         **{**common, "tail_exponent": None,
                            "fit_residual": resid_exp,
                            "note": "log g is linear in tau: exponential decay"})
    if p_hat <= 1.0 - DEFAULT_MARGIN:
        return KOVerdict(DIVERGES, **common)
    if p_hat >= 1.0 + DEFAULT_MARGIN and resid_ll <= FIT_RESIDUAL_MAX:
        return KOVerdict(CONVERGES, **common)
    note = ("tail exponent within the margin band around 1; the boundary "
            "case is resolved analytically only")
    if resid_ll > FIT_RESIDUAL_MAX:
        note = "power-law fit residual too large to trust the exponent"
    return KOVerdict(INCONCLUSIVE, **{**common, "note": note})


def existence_verdict(p: ProblemParams, f: Nonlinearity,
                      ko: KOVerdict) -> ExistenceReport:
    """Combine the integral classification with the mu regime.

    exists          integral diverges in the admissible regime,
    not_exists      k >= 2 with mu < 0 (no admissible spectrum), or the
                    integral converges with mu < mu0,
    outside_theory  integral converges but mu >= mu0: nothing is proved there,
    inconclusive    echoed from an inconclusive numeric classification.

    `sharp` is set when mu < mu0 inside the admissible regime, where the
    divergence condition is necessary and sufficient.
    """
    mu0v = p.mu0()
    if not p.admissible_regime():
        return ExistenceReport(
            NOT_EXISTS, None,
            "k >= 2 with mu < 0: the augmented-Hessian spectrum leaves the "
            "elliptic cone at r = -1/mu, so no entire admissible subsolution "
            "exists for any source", mu0v, p, ko)
    if ko.classification == INCONCLUSIVE:
        return ExistenceReport(
            INCONCLUSIVE, None,
            "integral classification inconclusive; no verdict", mu0v, p, ko)
    if ko.classification == DIVERGES:
        return ExistenceReport(
            EXISTS, p.ko_equiv_regime(),
            "growth integral diverges in the admissible regime: an entire "
            "admissible subsolution exists", mu0v, p, ko)
    if p.mu < mu0v:
        return ExistenceReport(
            NOT_EXISTS, p.ko_equiv_regime(),
            "growth integral converges with mu < mu0: no entire admissible "
            "subsolution exists", mu0v, p, ko)
    return ExistenceReport(
        OUTSIDE_THEORY, False,
        "growth integral converges but mu >= mu0: outside the proved ranges, "
        "no claim is made", mu0v, p, ko)
