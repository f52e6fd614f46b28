"""Elementary symmetric polynomials, the Gamma_k cone, and the mu0 threshold.

The k-Hessian operator of a symmetric matrix is the k-th elementary symmetric
polynomial S_k of its eigenvalues; Gamma_k = {S_p > 0 for all p <= k} is the
open cone on which the operator is elliptic.
"""

import math
import operator
from typing import Sequence

import numpy as np

__all__ = ["elem_sym", "elem_sym_all", "in_gamma_k", "binom", "mu_zero"]


def _integers(**values):
    """The values as plain ints, in order: operator.index maps True and
    numpy integers to int, and any other type, 2.0 included, raises
    ValueError."""
    try:
        return tuple(map(operator.index, values.values()))
    except TypeError:
        got = ", ".join(f"{name}={value!r}" for name, value in values.items())
        noun = "integers" if len(values) > 1 else "an integer"
        raise ValueError(f"{' and '.join(values)} must be {noun}, "
                         f"got {got}") from None


def binom(n: int, k: int) -> int:
    """Exact binomial coefficient C(n, k) for integers 0 <= k <= n."""
    n, k = _integers(n=n, k=k)
    if not 0 <= k <= n:
        raise ValueError(f"binom requires 0 <= k <= n, got n={n}, k={k}")
    return math.comb(n, k)


def elem_sym_all(values: Sequence[float], p: int) -> list[float]:
    """All elementary symmetric polynomials S_1..S_p of `values`."""
    (p,) = _integers(p=p)
    lam = [float(v) for v in values]
    if not 1 <= p <= len(lam):
        raise ValueError(f"order p must satisfy 1 <= p <= {len(lam)}, got {p}")
    if not all(map(math.isfinite, lam)):
        raise ValueError(f"spectrum entries must be finite, got {lam}")
    return _elem_sym(lam, p).tolist()


def _elem_sym(values, p: int) -> np.ndarray:
    """S_1..S_p, unchecked, as a `(p, ...)` array: the coefficients of
    prod(x + v_i), one linear factor at a time.  Entries may be floats or
    equal-shape arrays.  A factor updates every order at once from the
    coefficients before it, e_j + v e_(j-1), so each entry gets the one `*`
    and one `+` of the descending scalar loop, which numpy rounds like
    floats, and like floats overflows to inf without a warning."""
    e = np.zeros((p + 1,) + np.shape(values[0]))
    e[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for v in values:
            e[1:] += v * e[:-1]
    return e[1:]


def elem_sym(values: Sequence[float], p: int) -> float:
    """The p-th elementary symmetric polynomial of the entries of `values`."""
    return elem_sym_all(values, p)[-1]


def in_gamma_k(values: Sequence[float], k: int) -> bool:
    """Whether the spectrum lies in the open cone Gamma_k.

    Requires S_p(values) > 0 strictly for every p = 1..k.  The comparison is
    exact (no tolerance): the cone is open, so callers needing slack should
    perturb the spectrum themselves.
    """
    return all(s > 0.0 for s in elem_sym_all(values, k))


def mu_zero(n: int, k: int) -> float:
    """Threshold sqrt(k / (n (k+1) C(n,k)^(1/k))) on the gradient coefficient.

    Below this value the integral growth condition is both necessary and
    sufficient for existence of entire admissible subsolutions.
    """
    n, k = _integers(n=n, k=k)
    if not (1 <= k <= n):
        raise ValueError(f"mu_zero requires 1 <= k <= n, got n={n}, k={k}")
    return math.sqrt(k / (n * (k + 1) * binom(n, k) ** (1.0 / k)))
