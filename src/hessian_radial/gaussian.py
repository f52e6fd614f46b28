"""Pointwise verification of Gaussian candidates u = e^(A |x|^2).

For these candidates the augmented Hessian is again a rank-one update of the
identity, so the spectrum is explicit:

    lambda = ( 4 A^2 e^(A r^2) (r^2 + (1 + mu r)/(2A)),
               2 A e^(A r^2) (1 + mu r),  ... (n-1 times) )

The verifier checks, at every radius, that the spectrum stays in Gamma_k and
that S_k >= u^(k alpha).  Every factor of e^(A r^2) scales out: checks run on
the scaled (polynomial) spectrum and margins move to the log domain once the
raw values stop being representable, so the inequality direction is exact at
any radius.
"""

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .radial import ProblemParams
from .symmetric import _elem_sym, binom

__all__ = [
    "GaussianCandidate", "RadiusCheck", "SubsolutionReport",
    "gaussian_spectrum", "verify_subsolution", "gaussian_threshold",
    "gaussian_threshold_negative_mu", "default_radii",
]

_LOG_HUGE = math.log(1e300)
_DBL_MIN = sys.float_info.min
# relative slack of S_k >= u^(k alpha) in `verify_subsolution`
_REL_TOL = 1e-12


@dataclass(frozen=True)
class GaussianCandidate:
    """Candidate u(x) = e^(A |x|^2) with A > 0 and 4 A^2 a normal float:
    below that the scaled spectrum underflows."""

    A: float

    def __post_init__(self):
        if not (math.isfinite(self.A) and self.A > 0):
            raise ValueError(f"Gaussian exponent coefficient must be finite "
                             f"and > 0, got {self.A}")
        if 4.0 * self.A * self.A < _DBL_MIN:
            raise ValueError(f"4 A^2 underflows at A={self.A}: "
                             f"need A >= 7.46e-155")


def _scaled_spectrum(p: ProblemParams, A: float, r):
    """Spectrum / e^(A r^2) as (lambda_1, lambda_2 repeated n-1 times), for a
    float r or an array of radii: polynomial in r, overflow-free."""
    return (4.0 * A * A * (r * r + (1.0 + p.mu * r) / (2.0 * A)),
            2.0 * A * (1.0 + p.mu * r))


def gaussian_spectrum(p: ProblemParams, A: float, r: float) -> np.ndarray:
    """Eigenvalues of D^2 u + mu |Du| I for u = e^(A |x|^2) at radius r;
    ValueError once e^(A r^2) or its product with the spectrum overflows."""
    GaussianCandidate(A)
    if r < 0:
        raise ValueError(f"radius must be >= 0, got {r}")
    lam1, lam2 = _scaled_spectrum(p, A, r)
    try:
        scale = math.exp(A * r * r)
    except OverflowError:
        scale = math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        out = scale * np.array([lam1] + [lam2] * (p.n - 1))
    if not np.isfinite(out).all():
        raise ValueError(f"Gaussian spectrum not finite at r={r} for A={A}")
    return out


def gaussian_threshold(n: int, k: int) -> float:
    """Smallest A for which the Gaussian is a subsolution of
    S_k^(1/k)(.) = u^alpha for every mu >= 0 and alpha <= 1:
    A = (1/2) C(n,k)^(-1/k).  Sharp at the origin."""
    return 0.5 * binom(n, k) ** (-1.0 / k)


def gaussian_threshold_negative_mu(n: int, mu: float) -> float:
    """Variant for k = 1 with mu < 0 (formula valid for any mu):
    A = 1/(2n) + n mu^2 / 8."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not math.isfinite(mu):
        raise ValueError(f"mu must be finite, got {mu}")
    return 1.0 / (2.0 * n) + n * mu * mu / 8.0


@dataclass(frozen=True)
class RadiusCheck:
    r: float
    passed: bool
    margin: float
    gamma_k_ok: bool
    log_domain: bool = False

    def to_dict(self) -> dict:
        return {"r": self.r, "pass": self.passed, "margin": self.margin,
                "gamma_k_ok": self.gamma_k_ok, "log_domain": self.log_domain}


@dataclass(frozen=True)
class SubsolutionReport:
    """A verdict per radius, held as columns: row i of `radii`, `passes`,
    `margins`, `gamma_k_ok` and `log_domain` is the check at `radii[i]`."""

    params: ProblemParams
    A: float
    alpha: float
    radii: tuple
    passes: tuple
    margins: tuple
    gamma_k_ok: tuple
    log_domain: tuple
    passed: bool
    first_failure: float | None

    @functools.cached_property
    def checks(self) -> list:
        """The rows as :class:`RadiusCheck` objects, built on first access."""
        return list(map(RadiusCheck, self.radii, self.passes, self.margins,
                        self.gamma_k_ok, self.log_domain))

    def to_dict(self) -> dict:
        return {
            "params": self.params.to_dict(),
            "A": self.A,
            "alpha": self.alpha,
            "passed": self.passed,
            "first_failure": self.first_failure,
            "radii": [c.to_dict() for c in self.checks],
        }


def default_radii(p: ProblemParams, A: float, r_max: float) -> np.ndarray:
    """Mixed linear/geometric radius grid on [0, r_max]: 256 linear and 256
    geometric radii.

    The inequalities are smooth in r and failures localize either at the
    origin or at the minimum of the trace quadratic, so the grid always
    contains 0 and, for mu < 0, the explicit minimizer r* = -mu n / (4A) of
    the trace slack.
    """
    if not (math.isfinite(r_max) and r_max > 0):
        raise ValueError(f"need finite r_max > 0, got r_max={r_max}")
    GaussianCandidate(A)
    lin = np.linspace(0.0, r_max, 256)
    geo = np.geomspace(r_max * 1e-3, r_max, 257)[:-1]
    pts = np.concatenate((lin, geo))
    if p.mu < 0:
        r_star = -p.mu * p.n / (4.0 * A)
        if 0 < r_star <= r_max:
            pts = np.append(pts, r_star)
    return np.unique(pts)


def _libm(f, x: np.ndarray) -> np.ndarray:
    """The float function `f` (math.log, math.exp) mapped over `x`."""
    return np.fromiter(map(f, x.tolist()), float, len(x))


def verify_subsolution(p: ProblemParams, A: float, alpha: float,
                       radii) -> SubsolutionReport:
    """Check S_k(spectrum) >= u^(k alpha) and Gamma_k membership per radius.

    alpha <= 1 is the range with a guarantee at and above the threshold;
    other alpha are accepted and verified empirically.  The inequality is
    accepted up to a relative slack of 1e-12 (exact-threshold candidates sit
    on equality, where roundoff has either sign).  Failures are data: they
    are reported per radius, never raised.
    """
    GaussianCandidate(A)
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    r = np.asarray(radii, dtype=float)
    if r.ndim != 1 or not (r >= 0).all():
        raise ValueError("radii must be a one-dimensional sequence of r >= 0")
    k = p.k
    # S_1..S_k on radius columns, with the bits of the per-radius recurrence
    with np.errstate(over="ignore", invalid="ignore"):
        lam1, lam2 = _scaled_spectrum(p, A, r)
        # S_k = e^(k A r^2) S_k(scaled)  vs  u^(k alpha) = e^(k alpha A r^2)
        log_scale, log_rhs = k * A * r * r, k * alpha * A * r * r
        if not np.isfinite([lam1, lam2, log_scale, log_rhs]).all():
            raise ValueError("spectrum or k A r^2 not finite: r too big for A")
        sums = _elem_sym([lam1] + [lam2] * (p.n - 1), k)
        # redo rows where some S_j overflowed or fell below the normal floats
        # on the spectrum times 2^-e, e chosen to bring
        # |S_k| ~ max|lambda| |lambda_2|^(k-1) near 1; an S_j that is 0 by
        # cancellation is 0 on the scaled spectrum too
        redo = ~(np.isfinite(sums) & (abs(sums) >= _DBL_MIN)).all(axis=0)
        shift = np.zeros_like(r)
        if redo.any():
            e = (np.frexp(np.maximum(abs(lam1[redo]), abs(lam2[redo])))[1]
                 + (k - 1) * np.frexp(lam2[redo])[1]) // k
            l1, l2 = np.ldexp(lam1[redo], -e), np.ldexp(lam2[redo], -e)
            sums[:, redo] = _elem_sym([l1] + [l2] * (p.n - 1), k)
            shift[redo] = k * e * math.log(2.0)   # log S_k - log S_k(scaled)
        gamma = (sums > 0.0).all(axis=0)  # as in_gamma_k
        # rows with S_k <= 0 fail with margin -inf in the log domain; the
        # others take math.log and math.exp, as a one-radius check would
        logs = ~(sums[-1] <= 0.0)
        log_sk = _libm(math.log, sums[-1][logs]) + shift[logs]
        log_scale, log_rhs = log_scale[logs], log_rhs[logs]
        log_lhs = log_scale + log_sk
        # the exponents cancel before log S_k is added, which a difference
        # of log_lhs and log_rhs would round away
        margin = (log_scale - log_rhs) + log_sk
        ok, log_domain = np.zeros_like(gamma), np.ones_like(gamma)
        ok[logs] = margin >= -_REL_TOL
        raw = ~(np.maximum(log_lhs, log_rhs) >= _LOG_HUGE)
        log_domain[logs] = ~raw
        margin[raw] = (_libm(math.exp, log_lhs[raw])
                       - _libm(math.exp, log_rhs[raw]))
    margins = np.full_like(r, -math.inf)
    margins[logs] = margin
    passes = ok & gamma
    radii = tuple(r.tolist())
    failures = np.flatnonzero(~passes)
    return SubsolutionReport(
        p, float(A), float(alpha), radii, tuple(passes.tolist()),
        tuple(margins.tolist()), tuple(gamma.tolist()),
        tuple(log_domain.tolist()), not failures.size,
        radii[failures[0]] if failures.size else None)
