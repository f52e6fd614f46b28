"""Cauchy solver for the radial integral equation, plus blow-up detection.

Two routes to the same fixed point:

* :func:`euler_break_line` -- piecewise-linear profile advanced with the slope
  frozen at the left node, the slope being recovered from the running
  quadrature of the Volterra integrand along the line built so far.
* :func:`picard_solve` -- fixed-point iteration of the integral operator on a
  fixed grid, starting from the constant initial value.

One walker, :func:`_walk`, carries the break line node by node in plain
floats, on fixed nodes for :func:`euler_break_line` and with an adaptive
step for :func:`detect_blowup`; its step inlines the scalar form of the
array layers that Picard runs on whole arrays, equal to them bit for bit.

The Volterra accumulation uses a product-trapezoid rule: the integrand is
split as s^(n-1) * G(s) with G smooth down to s = 0, G is interpolated
linearly on each cell and the s^(n-1) weight is integrated exactly.  A plain
trapezoid rule mishandles the s^(n-1) vanishing at the origin, and that error
feeds straight into the curvature at 0; with the exact weight moments the
leading-order behaviour of the first cells is captured.
"""

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .nonlinearity import Nonlinearity
from .radial import (AdmissibilityError, ProblemParams, _smooth_factor,
                     dphi_from_integral)
from .symmetric import binom

__all__ = [
    "SCHEMA_ID", "RadialProfile", "BlowupReport", "NonConvergenceError",
    "RefinementDiagnosticError", "euler_break_line", "picard_solve",
    "per_cell_defect", "epsilon_defect", "detect_blowup", "refinement_order",
]

SCHEMA_ID = "hessian-radial/1"

GLOBAL = "global"
FINITE_BLOWUP = "finite_blowup"
ADMISSIBILITY_FAILURE = "admissibility_failure"

# a block of profile CSV rows is about 110 kB of text; the whole file at
# once would be ~10 MB for a 1e5-node profile
_CSV_BLOCK_ROWS = 1024
_CSV_ROW = "%.17g,%.17g,%.17g,%.17g,%.17g\n"

# log(DBL_MAX): numpy's exp is finite up to here and overflows one ulp above,
# where the walk returns +inf itself and so raises no overflow warning
_LOG_DBL_MAX = 709.782712893384


class NonConvergenceError(RuntimeError):
    """Fixed-point iteration failed; carries the last two node distances."""

    def __init__(self, message: str, last_deltas=()):
        super().__init__(message)
        self.last_deltas = tuple(last_deltas)


class RefinementDiagnosticError(RuntimeError):
    """Refinement study produced no usable error decay."""


@dataclass(frozen=True)
class RadialProfile:
    """Discrete solution of the Cauchy problem on a radial grid.

    `volterra[i]` is the accumulated integral over [0, grid[i]], and
    `dphi[i]` is always produced by :func:`dphi_from_integral` applied to it,
    so the two columns are consistent by construction.
    """

    grid: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray
    volterra: np.ndarray
    params: ProblemParams
    f: Nonlinearity
    truncated_at: float | None = None

    @property
    def a(self) -> float:
        return float(self.phi[0])

    @property
    def r_end(self) -> float:
        return float(self.grid[-1])

    def validate(self) -> None:
        g, phi, dphi, I = self.grid, self.phi, self.dphi, self.volterra
        if not (len(g) == len(phi) == len(dphi) == len(I)):
            raise ValueError("profile columns must share one grid")
        if g[0] != 0.0 or np.any(np.diff(g) <= 0):
            raise ValueError("grid must start at 0 and increase strictly")
        if dphi[0] != 0.0 or I[0] != 0.0:
            raise ValueError("initial slope and integral must vanish")
        if np.any(dphi < 0) or np.any(np.diff(phi) < 0) or np.any(np.diff(I) < 0):
            raise ValueError("phi and the accumulated integral must be "
                             "non-decreasing with dphi >= 0")
        for name, col in (("phi", phi), ("dphi", dphi), ("volterra", I)):
            if not np.all(np.isfinite(col)):
                raise ValueError(f"non-finite values in {name}")

    def cell_defects(self) -> np.ndarray:
        """:func:`per_cell_defect`; empty for a one-node profile (no cells)."""
        return per_cell_defect(self) if len(self.grid) >= 2 else np.zeros(0)

    def to_csv(self, fileobj) -> None:
        """Write columns r,phi,dphi,volterra,defect with 17 significant
        digits (byte-identical for identical profiles); the defect of the
        cell ending at node i is written on row i, 0.0 on row 0.  Rows go
        out _CSV_BLOCK_ROWS at a time, one formatted string per write."""
        defects = np.concatenate(([0.0], self.cell_defects()))
        fileobj.write("r,phi,dphi,volterra,defect\n")
        columns = (self.grid, self.phi, self.dphi, self.volterra, defects)
        for start in range(0, len(self.grid), _CSV_BLOCK_ROWS):
            block = np.column_stack(
                [col[start:start + _CSV_BLOCK_ROWS] for col in columns])
            # %.17g on a Python float formats exactly as f"{v:.17g}" does
            # on a numpy float64: both go through PyOS_double_to_string
            fileobj.write((_CSV_ROW * len(block))
                          % tuple(block.ravel().tolist()))

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEMA_ID,
            "params": self.params.to_dict(),
            "f": self.f.label,
            "a": self.a,
            "truncated_at": self.truncated_at,
            "r": self.grid.tolist(),
            "phi": self.phi.tolist(),
            "dphi": self.dphi.tolist(),
            "volterra": self.volterra.tolist(),
            "defect": self.cell_defects().tolist(),
        }

    def to_json(self, fileobj) -> None:
        json.dump(self.to_json_dict(), fileobj, indent=2)
        fileobj.write("\n")


@dataclass(frozen=True)
class BlowupReport:
    """Outcome of the adaptive walk: global existence up to r_max, a finite
    blow-up radius bracket, or an a-priori admissibility rejection."""

    status: str
    r_max: float
    r_estimate: float | None = None
    bracket: tuple[float, float] | None = None
    r_fail: float | None = None
    profile: RadialProfile | None = None
    notes: str = ""

    def __post_init__(self):
        if self.status == FINITE_BLOWUP:
            lo, hi = self.bracket
            if not (lo < self.r_estimate <= hi):
                raise ValueError("blow-up estimate must lie in (lo, hi]")

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "r_max": self.r_max,
            "r_estimate": self.r_estimate,
            "bracket": list(self.bracket) if self.bracket else None,
            "r_fail": self.r_fail,
            "notes": self.notes,
        }


def _uniform_grid(r_end: float, h: float) -> np.ndarray:
    m = max(1, int(round(r_end / h)))
    return np.linspace(0.0, r_end, m + 1)


def _cell_weights(s0, s1, n: int):
    """Weights (A, B) of the cell [s0, s1], h = s1 - s0: the integrals of
    s^(n-1) (s1 - s) / h and s^(n-1) (s - s0) / h, as h / (n (n+1)) times
    sum_{i<n} (n-i, i+1) s0^(n-1-i) s1^i in one Horner loop in s0.  Terms
    >= 0 and only + and *: no cancellation, floats and arrays bit-equal."""
    A, B, t = 0, 0, 1
    for i in range(n):
        A = A * s0 + (n - i) * t
        B = B * s0 + (i + 1) * t
        t = t * s1
    c = (s1 - s0) / (n * (n + 1))
    return c * A, c * B


def _cell_increment(s0: float, s1: float, G0: float, G1: float, n: int) -> float:
    """Integral over [s0, s1] of s^(n-1) times the linear interpolant of G:
    the tests' scalar reference for the walk's inlined quadrature."""
    A, B = _cell_weights(s0, s1, n)
    return A * G0 + B * G1


def _cell_increments(grid: np.ndarray, G: np.ndarray, n: int) -> np.ndarray:
    A, B = _cell_weights(grid[:-1], grid[1:], n)
    with np.errstate(over="ignore", invalid="ignore"):
        return A * G[:-1] + B * G[1:]


def _forward_pass(p: ProblemParams, f: Nonlinearity, grid: np.ndarray,
                  phi: np.ndarray):
    """Accumulated integral and slope induced by a candidate profile.

    Overflow is deliberate here: an accumulation running to +inf signals
    blow-up and is caught by the callers' finiteness checks.
    """
    G = _smooth_factor(p, f, grid, phi)
    with np.errstate(over="ignore", invalid="ignore"):
        I = np.concatenate(([0.0], np.cumsum(_cell_increments(grid, G, p.n))))
    dphi = np.concatenate(([0.0], dphi_from_integral(p, grid[1:], I[1:])))
    return I, dphi


def _require_walk_sizes(n: int, r_name: str, r: float, h_name: str,
                        h: float) -> None:
    """Both sizes must be finite and > 0, and the radius must keep
    r^(n+1) < DBL_MAX (r < 5.6e102 at n=2): a sufficient bound under which
    every term of the cell weights, at most about r^n, stays finite."""
    for name, value in ((r_name, r), (h_name, h)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    try:
        float(r) ** (n + 1)
    except OverflowError:
        raise ValueError(f"{r_name}={r} is too large: {r_name}^(n+1) "
                         f"overflows a float at n={n}") from None


def _require_solvable(p: ProblemParams, a: float, r_end: float,
                      h: float) -> None:
    if not p.admissible_regime():
        raise AdmissibilityError(
            f"k={p.k} >= 2 with mu={p.mu} < 0 admits no admissible radial "
            "solution on the whole space")
    if not math.isfinite(a):
        raise ValueError(f"initial value must be finite, got {a}")
    _require_walk_sizes(p.n, "r_end", r_end, "h", h)
    if not h <= r_end:
        raise ValueError(f"need 0 < h <= r_end, got h={h}")


def _walk(p: ProblemParams, f: Nonlinearity, a: float, r_end: float,
          h: float, nodes: list | None = None, phi_cap: float = math.inf):
    """The break line from (0, a) to r_end in plain floats.  With `nodes`
    it visits exactly those radii and ends after the first non-finite node;
    otherwise it steps by h, halving it while the predicted increment exceeds
    max(1, 0.01 * phi_cap), and ends at blow-up: phi above phi_cap or a step
    below h * 2^-40; phi moves by dphi times the node spacing.  Returns the
    columns (r, phi, dphi, I) and the blow-up bracket, None at r_end.

    The step inlines the scalar forms of :func:`_smooth_factor` (log domain:
    the walk runs only where 1 + mu s > 0 or k = 1), :func:`_cell_weights`
    (coefficients bound once) and :func:`dphi_from_integral`, in their
    evaluation order and with numpy's exp and log (math's differ in the last
    bit on some hosts), so the columns agree with those layers bit for bit.
    G at the origin comes from the array layer itself.
    """
    n, k, mu = p.n, p.k, p.mu
    n_mu, k_n, one_k, nn1 = n * mu, k - n, 1.0 - k, n * (n + 1)
    coefs = [(float(n - i), float(i + 1)) for i in range(n)]
    # (1 - k) log(1 + mu s) is +-0.0 at mu = 0, so skipping it there is exact
    bent = k >= 2 and mu != 0.0
    logc = math.log(k) - math.log(binom(n - 1, k - 1))
    log_f = f._float_log()
    exp, log, isfinite, inf = np.exp, np.log, math.isfinite, math.inf
    step_cap = max(1.0, 0.01 * phi_cap)
    h_min = h * 2.0 ** -40
    r, phi, dphi, I = 0.0, float(a), 0.0, 0.0
    G = float(_smooth_factor(p, f, r, phi))
    rs, phis, dphis, Is = [r], [phi], [dphi], [I]
    bracket = None
    # sizes given as numpy scalars make the arithmetic numpy's, and overflow
    # is deliberate here: a column running to +inf signals blow-up
    with np.errstate(over="ignore", invalid="ignore"):
        while r_end - r > 1e-12 * r_end:
            if nodes is not None:
                if not dphi < inf:
                    break
                r_new = nodes[len(rs)]
            else:
                h_entry = h
                step = min(h, r_end - r)
                while not (isfinite(dphi * step) and dphi * step <= step_cap):
                    h /= 2.0
                    step = min(h, r_end - r)
                    if h < h_min:
                        break
                if h < h_min:
                    # the slope at this node defeats any representable step
                    bracket = (r, r + h_entry)
                    break
                r_new = r + step
            width = r_new - r
            phi += dphi * width
            if isfinite(phi):
                logG = logc + n_mu * r_new + k * log_f(phi)
                if bent:
                    logG += one_k * float(log(1.0 + mu * r_new))
                G_new = inf if logG > _LOG_DBL_MAX else float(exp(logG))
            else:
                G_new = inf
            A, B, t = 0.0, 0.0, 1.0
            for ca, cb in coefs:
                A = A * r + ca * t
                B = B * r + cb * t
                t *= r_new
            c = width / nn1
            I += c * A * G + c * B * G_new
            if 0.0 <= I < inf:
                log_I = -inf if I == 0.0 else float(log(I))
                x = (k_n * float(log(r_new)) - n_mu * r_new + log_I) / k
                dphi = inf if x > _LOG_DBL_MAX else float(exp(x))
            else:
                dphi = inf
            rs.append(r_new)
            phis.append(phi)
            dphis.append(dphi)
            Is.append(I)
            if phi > phi_cap:
                bracket = (r, r_new)
                break
            r, G = r_new, G_new
    return (rs, phis, dphis, Is), bracket


def euler_break_line(p: ProblemParams, f: Nonlinearity, a: float,
                     r_end: float, h: float) -> RadialProfile:
    """Advance the break line with the slope frozen at the left node.

    The walk (:func:`_walk`) visits the nodes of a uniform grid, and the
    slope at a node is recovered from the running quadrature of the
    integrand along the line built so far.  If the accumulation overflows
    before r_end, :func:`_profile_from_walk` cuts the profile before the
    first non-finite node and records that node's radius in `truncated_at`;
    use :func:`detect_blowup` for a proper bracket.
    """
    _require_solvable(p, a, r_end, h)
    columns, _ = _walk(p, f, a, r_end, h,
                       nodes=_uniform_grid(r_end, h).tolist())
    return _profile_from_walk(p, f, *columns)


def picard_solve(p: ProblemParams, f: Nonlinearity, a: float, r_end: float,
                 h: float, tol: float = 1e-10,
                 max_iter: int = 200) -> RadialProfile:
    """Iterate phi <- a + int_0^r F(s, phi) ds on a fixed grid to a fixed point.

    The iteration starts from phi == a and is monotone increasing for
    monotone f, so plain undamped iteration converges whenever the solution
    exists on [0, r_end]; convergence is declared when the maximum node
    change drops below `tol`, which must be finite and > 0 (an infinite one
    would accept the first iterate), after at most `max_iter` >= 1 sweeps.
    """
    _require_solvable(p, a, r_end, h)
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    if not max_iter >= 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    grid = _uniform_grid(r_end, h)
    hcells = np.diff(grid)
    phi = np.full(len(grid), float(a))
    deltas = []
    for _ in range(max_iter):
        _, dphi = _forward_pass(p, f, grid, phi)
        with np.errstate(over="ignore", invalid="ignore"):
            phi_new = a + np.concatenate(
                ([0.0], np.cumsum((dphi[:-1] + dphi[1:]) * hcells / 2.0)))
        if not np.all(np.isfinite(phi_new)):
            raise NonConvergenceError(
                f"iterates overflow on [0, {r_end}]: the solution appears to "
                "blow up before r_end (see detect_blowup)", deltas[-2:])
        deltas.append(float(np.max(np.abs(phi_new - phi))))
        phi = phi_new
        if deltas[-1] < tol:
            I, dphi = _forward_pass(p, f, grid, phi)
            profile = RadialProfile(grid, phi, dphi, I, p, f)
            profile.validate()
            return profile
    raise NonConvergenceError(
        f"no fixed point within {max_iter} iterations "
        f"(last node distances: {deltas[-2:]})", deltas[-2:])


def per_cell_defect(profile: RadialProfile) -> np.ndarray:
    """|slope of the profile on each cell - F at the cell midpoint|.

    F is reconstructed from the stored accumulation (linear interpolation of
    the integral at midpoints), not re-integrated, so the measurement is O(m).
    """
    g, phi, I = profile.grid, profile.phi, profile.volterra
    if len(g) < 2:
        raise ValueError("defect needs a profile with at least 2 nodes")
    mid = 0.5 * (g[:-1] + g[1:])
    I_mid = 0.5 * (I[:-1] + I[1:])
    slope = np.diff(phi) / np.diff(g)
    F_mid = dphi_from_integral(profile.params, mid, I_mid)
    return np.abs(slope - F_mid)


def epsilon_defect(profile: RadialProfile) -> float:
    """Maximum slope defect over all cells."""
    return float(np.max(per_cell_defect(profile)))


def _blowup_walk(p: ProblemParams, f: Nonlinearity, a: float, r_max: float,
                 phi_cap: float, h0: float) -> BlowupReport:
    columns, bracket = _walk(p, f, a, r_max, h0, phi_cap=phi_cap)
    profile = _profile_from_walk(p, f, *columns)
    if bracket is None:
        return BlowupReport(GLOBAL, r_max, profile=profile)
    lo, hi = bracket
    return BlowupReport(FINITE_BLOWUP, r_max, r_estimate=0.5 * (lo + hi),
                        bracket=bracket, profile=profile)


def _profile_from_walk(p, f, rs, phis, dphis, Is) -> RadialProfile:
    arrs = tuple(np.asarray(col, dtype=float) for col in (rs, phis, dphis, Is))
    finite = np.all([np.isfinite(c) for c in arrs], axis=0)
    end = len(rs) if finite.all() else int(np.argmin(finite))
    truncated_at = float(rs[end]) if end < len(rs) else None
    profile = RadialProfile(*(c[:end] for c in arrs), p, f,
                            truncated_at=truncated_at)
    profile.validate()
    return profile


def detect_blowup(p: ProblemParams, f: Nonlinearity, a: float, r_max: float,
                  phi_cap: float = 1e8, h0: float = 1e-3) -> BlowupReport:
    """Walk the break line adaptively and classify the run.

    The step is halved whenever the predicted increment exceeds
    max(1, 0.01 * phi_cap); blow-up is declared when the profile crosses
    phi_cap or the step underflows below h0 * 2^-40.  A finite blow-up
    estimate is Richardson-combined from runs at h0 and h0/2 (the walk is
    first-order), and the finer run's bracket is reported.
    """
    _require_walk_sizes(p.n, "r_max", r_max, "h0", h0)
    if not math.isfinite(a):
        raise ValueError(f"initial value must be finite, got {a}")
    if not phi_cap > a:
        raise ValueError(f"phi_cap={phi_cap} must exceed the initial value {a}")
    if not p.admissible_regime():
        return BlowupReport(ADMISSIBILITY_FAILURE, r_max, r_fail=-1.0 / p.mu)
    coarse = _blowup_walk(p, f, a, r_max, phi_cap, h0)
    if coarse.status != FINITE_BLOWUP:
        return coarse
    fine = _blowup_walk(p, f, a, r_max, phi_cap, h0 / 2.0)
    if fine.status != FINITE_BLOWUP:
        return replace(coarse, notes="refinement at h0/2 reached r_max; "
                                     "keeping the coarse bracket")
    r1 = coarse.r_estimate
    r2 = fine.r_estimate
    lo, hi = fine.bracket
    richardson = 2.0 * r2 - r1
    estimate = min(max(richardson, np.nextafter(lo, hi)), hi)
    return BlowupReport(FINITE_BLOWUP, r_max, r_estimate=float(estimate),
                        bracket=fine.bracket, profile=fine.profile)


def refinement_order(p: ProblemParams, f: Nonlinearity, a: float,
                     r_end: float, h_sequence, method: str = "euler",
                     reference=None, tol: float = 1e-10,
                     max_iter: int = 200) -> float:
    """Empirical convergence order from successive error ratios.

    With a `reference` callable (exact solution of r), errors are maximum
    node deviations from it; otherwise successive endpoint differences
    between consecutive grids are used.  Raises
    :class:`RefinementDiagnosticError` when the error sequence does not
    decrease strictly (including identical profiles across h).
    """
    hs = [float(h) for h in h_sequence]
    if len(hs) < 3 or any(h1 >= h0 for h0, h1 in zip(hs, hs[1:])):
        raise ValueError("need >= 3 strictly decreasing steps")

    def solve(h):
        if method == "euler":
            return euler_break_line(p, f, a, r_end, h)
        if method == "picard":
            return picard_solve(p, f, a, r_end, h, tol=tol, max_iter=max_iter)
        raise ValueError(f"unknown method {method!r}")

    profiles = [solve(h) for h in hs]
    if reference is not None:
        errors = [float(np.max(np.abs(prof.phi - reference(prof.grid))))
                  for prof in profiles]
        pairs = list(zip(hs, errors))
    else:
        ends = [float(prof.phi[-1]) for prof in profiles]
        diffs = [abs(v1 - v0) for v0, v1 in zip(ends, ends[1:])]
        pairs = list(zip(hs[:-1], diffs))
    for (h0, e0), (h1, e1) in zip(pairs, pairs[1:]):
        if e1 <= 0 or e0 <= 0:
            raise RefinementDiagnosticError(
                "order undefined: identical solutions across steps")
        if e1 >= e0:
            raise RefinementDiagnosticError(
                f"error sequence not decreasing: {e0} -> {e1}")
    orders = [np.log(e0 / e1) / np.log(h0 / h1)
              for (h0, e0), (h1, e1) in zip(pairs, pairs[1:])]
    return float(np.mean(orders))
