"""Reference formulas that tests check library output against.

Plain definitions from the paper's radial reduction, with no checks of
their own and none of the library's radial code: the spectrum of
D^2 u + mu |Du| I for u(x) = phi(|x|), S_k as the elementary symmetric
polynomial of that spectrum, phi'' solved from S_k = f(phi)^k, and the
convergence order of a method from the ratios of its errors.
"""

import math
from itertools import pairwise

import numpy as np

from hessian_radial import elem_sym


def spectrum(p, r, dphi, ddphi):
    """Eigenvalues of D^2 u + mu |Du| I at radius r, for phi' >= 0.

    With e = x / r, D^2 u + mu |Du| I = (phi'/r + mu phi') I
    + (phi'' - phi'/r) e e^T, a rank-one update of the identity.  At r = 0
    (where phi'(0) = 0) it is phi''(0) I.
    """
    if r == 0:
        return np.full(p.n, float(ddphi))
    out = np.full(p.n, dphi / r + p.mu * dphi)
    out[0] += ddphi - dphi / r
    return out


def s_k(p, r, dphi, ddphi):
    """S_k of the radial spectrum."""
    return elem_sym(spectrum(p, r, dphi, ddphi), p.k)


def ddphi_from_s_k(p, f, r, phi, dphi):
    """phi'' at r > 0 from S_k = f(phi)^k.  phi'' enters one eigenvalue
    only, so S_k is affine in it and two evaluations give the root; a
    slope with no root (phi' = 0 at k >= 2) raises ZeroDivisionError."""
    at0, at1 = s_k(p, r, dphi, 0.0), s_k(p, r, dphi, 1.0)
    return (f.eval(phi) ** p.k - at0) / (at1 - at0)


def convergence_order(solve, hs, reference=None):
    """Mean of log(e0 / e1) / log(h0 / h1) over successive steps h of a
    method `solve(h) -> RadialProfile`.  An error is the largest deviation
    of a profile from `reference(r)` or, without one, the difference of the
    end values of two successive profiles (paired with the larger h)."""
    profiles = [solve(h) for h in hs]
    if reference is None:
        ends = [float(prof.phi[-1]) for prof in profiles]
        errors = [abs(e1 - e0) for e0, e1 in pairwise(ends)]
    else:
        errors = [float(np.max(np.abs(prof.phi - reference(prof.grid))))
                  for prof in profiles]
    orders = [math.log(e0 / e1) / math.log(h0 / h1)
              for (h0, e0), (h1, e1) in pairwise(zip(hs, errors))]
    return sum(orders) / len(orders)
