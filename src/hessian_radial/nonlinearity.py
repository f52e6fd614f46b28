"""Source terms f(t) and their k-th powers.

Built-in families:

  const:c    f(t) = c            (c > 0)
  exp:alpha  f(t) = e^(alpha t)  (alpha >= 0)
  pow:q      f(t) = t^q for t > 0, 0 for t <= 0   (q >= 0, degenerate cutoff)

plus user callbacks, positive and monotone on the caller's word.  The same
family spec strings are accepted by the CLI.  Powers f(t)^k are taken in the
log domain, exp(k * log f(t)), so that large k and fast-growing f only
overflow where the true value does.
"""

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = ["Nonlinearity", "AuditReport", "parse_f_spec", "audit_monotone_positive"]

_FAMILIES = ("const", "exp", "pow", "custom")


@dataclass(frozen=True)
class Nonlinearity:
    """A positive source term t -> f(t).

    Custom callbacks must be reentrant and pure: the break-line walk evaluates
    f at a node once per sweep of its window, several times in all, and needs
    the same value each time; an impure callback is not detected, and the walk
    returns columns that no single f gives.  They must return a float >= 0,
    or +inf, at every finite argument (a negative or nan value raises
    ValueError in :meth:`log_eval`): the walk also evaluates f at the
    iterates of a window's unsettled part, finite values that can lie far
    beyond any phi the walk keeps.  `degenerate_at_nonpositive` is trusted,
    not proved (use :func:`audit_monotone_positive` for a sampling check).
    """

    family: str
    param: float | None = None
    fn: Callable[[float], float] | None = None
    degenerate_at_nonpositive: bool = False
    label: str = field(default="", compare=False)

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family != "custom" and not math.isfinite(self.param):
            raise ValueError(f"{self.family} family needs a finite "
                             f"parameter, got {self.param}")
        if self.family == "const" and not self.param > 0:
            raise ValueError("const family needs c > 0")
        if self.family == "exp" and not self.param >= 0:
            raise ValueError("exp family needs alpha >= 0")
        if self.family == "pow" and not self.param >= 0:
            raise ValueError("pow family needs q >= 0")
        if self.family == "custom" and self.fn is None:
            raise ValueError("custom family needs a callback")
        if not self.label:
            object.__setattr__(self, "label", self._default_label())

    def _default_label(self) -> str:
        if self.family == "custom":
            return "custom"
        # short where that names the parameter exactly, else every digit
        short = f"{self.param:g}"
        return f"{self.family}:" + (
            short if float(short) == self.param else repr(float(self.param)))

    @classmethod
    def constant(cls, c: float) -> "Nonlinearity":
        return cls("const", float(c))

    @classmethod
    def exponential(cls, alpha: float) -> "Nonlinearity":
        return cls("exp", float(alpha))

    @classmethod
    def power_cutoff(cls, q: float) -> "Nonlinearity":
        return cls("pow", float(q), degenerate_at_nonpositive=True)

    @classmethod
    def custom(cls, fn: Callable[[float], float], *,
               degenerate_at_nonpositive: bool = False,
               label: str = "custom") -> "Nonlinearity":
        return cls("custom", None, fn, degenerate_at_nonpositive, label)

    def eval(self, t):
        """f(t) for a scalar or ndarray argument; pow:q returns 0 for t <= 0."""
        scalar = np.ndim(t) == 0
        tt = np.atleast_1d(np.asarray(t, dtype=float))
        if self.family == "const":
            out = np.full_like(tt, self.param)
        elif self.family == "exp":
            with np.errstate(over="ignore"):
                out = np.exp(self.param * tt)
        elif self.family == "pow":
            out = np.zeros_like(tt)
            mask = tt > 0
            out[mask] = tt[mask] ** self.param
        else:
            out = np.array([float(self.fn(float(v))) for v in tt])
        return float(out[0]) if scalar else out.reshape(np.shape(t))

    def log_eval(self, t):
        """log f(t); -inf where f(t) = 0.  Raises if f(t) < 0 or is nan."""
        scalar = np.ndim(t) == 0
        tt = np.atleast_1d(np.asarray(t, dtype=float))
        if self.family == "const":
            out = np.full_like(tt, np.log(self.param))
        elif self.family == "exp":
            out = self.param * tt
        elif self.family == "pow" and (tt > 0).all():
            out = self.param * np.log(tt)
        elif self.family == "pow":
            out = np.full_like(tt, -np.inf)
            mask = tt > 0
            out[mask] = self.param * np.log(tt[mask])
        else:
            vals = np.array([float(self.fn(float(v))) for v in tt])
            if not (vals >= 0).all():
                raise ValueError("custom nonlinearity takes negative values "
                                 "or nan")
            out = np.full_like(vals, -np.inf)
            mask = vals > 0
            out[mask] = np.log(vals[mask])
        return float(out[0]) if scalar else out.reshape(np.shape(t))

    def pow_k(self, t, k: int):
        """f(t)^k via exp(k * log f(t)); exactly 0 where f vanishes."""
        if k < 1:
            raise ValueError(f"power k must be >= 1, got {k}")
        lg = self.log_eval(t)
        with np.errstate(over="ignore"):
            out = np.exp(k * np.asarray(lg, dtype=float))
        return float(out) if np.ndim(t) == 0 else out


def parse_f_spec(spec: str) -> Nonlinearity:
    """Parse a family spec string: const:<c> | exp:<alpha> | pow:<q>."""
    parts = spec.split(":")
    if len(parts) != 2:
        raise ValueError(f"bad f spec {spec!r}; expected family:param")
    family, raw = parts
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"bad f spec {spec!r}; parameter not a number") from None
    if family == "const":
        return Nonlinearity.constant(value)
    if family == "exp":
        return Nonlinearity.exponential(value)
    if family == "pow":
        return Nonlinearity.power_cutoff(value)
    raise ValueError(f"bad f spec {spec!r}; unknown family {family!r}")


@dataclass(frozen=True)
class AuditReport:
    passed: bool
    positivity_ok: bool
    monotone_ok: bool
    degenerate_flagged: bool
    violations: list


def audit_monotone_positive(f: Nonlinearity, t_lo: float, t_hi: float,
                            samples: int) -> AuditReport:
    """Sample f on a uniform grid and flag positivity/monotonicity violations.

    Advisory only: finitely many samples cannot prove the analytic
    hypotheses.  Degenerate families are allowed to vanish at t <= 0; that is
    noted, not flagged.
    """
    if not t_lo < t_hi:
        raise ValueError("audit needs t_lo < t_hi")
    if samples < 2:
        raise ValueError("audit needs at least 2 samples")
    ts = np.linspace(t_lo, t_hi, samples)
    vals = [float(f.eval(float(t))) for t in ts]
    violations = []
    positivity_ok = True
    degenerate_flagged = False
    for t, v in zip(ts, vals):
        if v > 0:
            continue
        if v == 0 and t <= 0 and f.degenerate_at_nonpositive:
            degenerate_flagged = True
        else:
            positivity_ok = False
            violations.append(("positivity", float(t), v))
    monotone_ok = True
    for t0, v0, t1, v1 in zip(ts, vals, ts[1:], vals[1:]):
        if v1 < v0:
            monotone_ok = False
            violations.append(("monotonicity", float(t0), float(t1), v0, v1))
    return AuditReport(positivity_ok and monotone_ok, positivity_ok,
                       monotone_ok, degenerate_flagged, violations)
