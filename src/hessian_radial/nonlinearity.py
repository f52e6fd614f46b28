"""Source terms f(t) and their logarithms.

Built-in families:

  const:c    f(t) = c            (c > 0)
  exp:alpha  f(t) = e^(alpha t)  (alpha >= 0)
  pow:q      f(t) = t^q for t > 0, 0 for t <= 0   (q >= 0, degenerate cutoff)

plus user callbacks, positive and monotone on the caller's word.  The same
family spec strings are accepted by the CLI.  The solvers read f through
log f, and take f(t)^k as exp(k log f(t) + ...), so that large k and
fast-growing f only overflow where the true value does.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

__all__ = ["Nonlinearity", "parse_f_spec"]

_FAMILIES = ("const", "exp", "pow", "custom")


@dataclass(frozen=True)
class Nonlinearity:
    """A positive source term t -> f(t).

    Custom callbacks must be reentrant and pure: the break-line walk evaluates
    f at a node once per sweep that reaches it, several times in all, and
    needs the same value each time; an impure callback is not detected, and
    the walk returns columns that no single f gives.  They must return a
    float >= 0, or +inf, at every finite argument (a negative or nan value
    raises ValueError in :meth:`eval` and :meth:`log_eval`): the walk also
    evaluates f at the iterates of the nodes past its settled front, finite
    values that can lie far beyond any phi the walk keeps.
    """

    family: str
    param: float | None = None
    fn: Callable[[float], float] | None = None
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
        return cls("pow", float(q))

    @classmethod
    def custom(cls, fn: Callable[[float], float], *,
               label: str = "custom") -> "Nonlinearity":
        return cls("custom", None, fn, label=label)

    def eval(self, t):
        """f(t) for a scalar or ndarray argument; pow:q returns 0 for t <= 0.
        Raises if f(t) < 0 or is nan."""
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
            out = self._custom_values(tt)
        return float(out[0]) if scalar else out.reshape(np.shape(t))

    def log_eval(self, t):
        """log f(t); -inf where f(t) = 0.  Raises if f(t) < 0 or is nan."""
        scalar = np.ndim(t) == 0
        tt = np.atleast_1d(np.asarray(t, dtype=float))
        with np.errstate(divide="ignore", invalid="ignore"):
            out = self._log_kernel(tt)
        return float(out[0]) if scalar else out.reshape(np.shape(t))

    @cached_property
    def _log_kernel(self):
        """log f on a float64 ndarray, with none of :meth:`log_eval`'s
        argument handling: the form the walk and Picard call, built once
        per source.  The caller holds np.errstate, since the pow and custom
        forms take the log of 0 and of negative values."""
        q = self.param
        if self.family == "const":
            log_c = np.log(q)
            return lambda t: np.full(t.shape, log_c)
        if self.family == "exp":
            return lambda t: q * t
        if self.family == "pow":
            def log_pow(t):
                out = q * np.log(t)
                # argmin finds the least t or the first nan, and f is 0 at
                # t <= 0 and at nan
                if len(t) and not t[t.argmin()] > 0:
                    out[~(t > 0)] = -np.inf
                return out
            return log_pow
        # log 0 is -inf, where f is 0
        return lambda t: np.log(self._custom_values(t))

    def _custom_values(self, tt):
        """The callback's values on `tt`, checked to be >= 0 or +inf."""
        vals = np.array([float(self.fn(v)) for v in tt.tolist()])
        if not (vals >= 0).all():
            raise ValueError("custom nonlinearity takes negative values "
                             "or nan")
        return vals


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
