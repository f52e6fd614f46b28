"""Closed-form radial reduction of S_k(D^2 u + mu |Du| I).

For u(x) = phi(|x|) with phi'(0) = 0 the augmented Hessian is a rank-one
update of the identity, so its spectrum and S_k value have closed forms.
The induced ODE has a divergence structure, and integrating it once turns
the radial problem into a Volterra integral equation

    phi'(r) = ( r^(k-n) e^(-n mu r) int_0^r (k/C(n-1,k-1))
               e^(n mu s) s^(n-1) (1+mu s)^(1-k) f(phi(s))^k ds )^(1/k)

whose pieces live here, on scalars or ndarrays where the solver needs it.
G and phi' split into radius and state parts for the pass in solver._pass.
"""

import math
from dataclasses import dataclass

import numpy as np

from .symmetric import _integers, binom, mu_zero

__all__ = [
    "ProblemParams", "AdmissibilityError", "SingularityError",
    "chi", "dphi_from_integral", "ddphi_at_zero",
]


class AdmissibilityError(ValueError):
    """Raised for parameter regimes with no admissible radial solution
    (k >= 2 with mu < 0: the off-diagonal eigenvalue changes sign at
    r = -1/mu and the spectrum leaves Gamma_k)."""


class SingularityError(ValueError):
    """Raised where the integrand factor (1 + mu s)^(1-k) meets 1 + mu s <= 0
    with k >= 2 (only reachable outside the admissible regime)."""


@dataclass(frozen=True)
class ProblemParams:
    """Dimension n, Hessian order k, gradient coefficient mu."""

    n: int
    k: int
    mu: float = 0.0

    def __post_init__(self):
        n, k = _integers(n=self.n, k=self.k)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        if self.n < 2:
            raise ValueError(f"need n >= 2, got n={self.n}")
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu}")

    def admissible_regime(self) -> bool:
        """True iff entire admissible radial solutions are possible:
        k = 1 (any mu) or k >= 2 with mu >= 0."""
        return self.k == 1 or self.mu >= 0

    def mu0(self) -> float:
        return mu_zero(self.n, self.k)

    def ko_equiv_regime(self) -> bool:
        """True iff the integral growth condition is sharp (necessary and
        sufficient): mu < mu0 inside the admissible regime."""
        return self.admissible_regime() and self.mu < self.mu0()

    def to_dict(self) -> dict:
        return {"n": self.n, "k": self.k, "mu": self.mu}


def chi(p: ProblemParams, r):
    """Integrating factor exponent chi(r) = n mu r + (n-k) ln r at radii
    r > 0, the radius part of the slope phi'(r) = (e^(-chi(r)) I(r))^(1/k)."""
    r_arr = np.asarray(r, dtype=float)
    if not (r_arr > 0.0).all() or (r_arr == math.inf).any():
        raise ValueError(f"chi needs finite r > 0, got {r}")
    out = p.n * p.mu * r_arr + (p.n - p.k) * np.log(r_arr)
    return float(out) if np.ndim(r) == 0 else out


def _log_G_terms(p: ProblemParams, s):
    """The radius terms of log G: log(k/C(n-1,k-1)) + n mu s, then for k >= 2
    (1-k) log(1 + mu s), left out at mu = 0, where it is -0.0."""
    logc = math.log(p.k) - math.log(binom(p.n - 1, p.k - 1))
    terms = [logc + p.n * p.mu * s]
    if p.k >= 2 and p.mu != 0.0:
        base = 1.0 + p.mu * s
        if np.any(base <= 0.0):
            raise SingularityError(f"integrand factor (1 + mu s)^(1-k) "
                                   f"needs 1 + mu s > 0 (mu={p.mu}, k={p.k})")
        terms.append((1.0 - p.k) * np.log(base))
    return terms


def _G_into(k: int, logf, terms, out):
    """G = e^(k log f + the radius terms) into `out`; the caller holds
    np.errstate, which would cost more per call in a sweep."""
    # k log f is log f at k = 1, where the exact product is skipped
    np.add(logf if k == 1 else logf * float(k), terms[0], out=out)
    for term in terms[1:]:
        out += term
    return np.exp(out, out=out)


def _slope_into(k: int, chi_r, I, out):
    """phi' = e^((log I - chi) / k) into `out`: exactly 0 at I = 0 and +inf
    where it overflows; the caller holds np.errstate."""
    np.log(I, out=out)
    out -= chi_r
    if k != 1:
        out /= float(k)
    return np.exp(out, out=out)


def _smooth_factor(p: ProblemParams, f, s, phi_s):
    """G(s) = (k/C(n-1,k-1)) e^(n mu s) (1+mu s)^(1-k) f(phi(s))^k.

    The s^(n-1) weight is deliberately excluded: the quadrature integrates it
    exactly, and G itself is smooth down to s = 0.  Computed in the log
    domain, so overflow happens only where the true value overflows; with
    k >= 2 it needs 1 + mu s > 0 (always, in the admissible regime).
    """
    terms = _log_G_terms(p, s)
    with np.errstate(over="ignore"):
        return _G_into(p.k, f.log_eval(phi_s), terms,
                       np.empty(np.broadcast(s, phi_s).shape))


def dphi_from_integral(p: ProblemParams, r, I):
    """phi'(r) = (r^(k-n) e^(-n mu r) I)^(1/k), evaluated in the log domain.

    Accepts scalars or ndarrays; I = 0 maps to exactly 0 and an overflowing
    accumulated integral propagates as +inf for the blow-up detector.
    """
    chi_r = chi(p, r)
    I_arr = np.asarray(I, dtype=float)
    if not (I_arr >= 0.0).all():
        raise ValueError(f"accumulated integral must be >= 0, got {I}")
    out = np.empty(np.broadcast(chi_r, I_arr).shape)
    with np.errstate(divide="ignore", over="ignore"):
        _slope_into(p.k, chi_r, I_arr, out)
    return float(out) if (np.ndim(r) == 0 and np.ndim(I) == 0) else out


def ddphi_at_zero(p: ProblemParams, f, a: float) -> float:
    """Exact second derivative of the radial solution at the origin:
    f(a) / C(n,k)^(1/k)."""
    if not math.isfinite(a):
        raise ValueError(f"initial value a must be finite, got {a}")
    return f.eval(a) / binom(p.n, p.k) ** (1.0 / p.k)
