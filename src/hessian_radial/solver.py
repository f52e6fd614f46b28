"""Cauchy solver for the radial integral equation, plus blow-up detection.

Two routes to the same fixed point:

* :func:`euler_break_line` -- piecewise-linear profile advanced with the slope
  frozen at the left node, the slope being recovered from the running
  quadrature of the Volterra integrand along the line built so far.
* :func:`picard_solve` -- fixed-point iteration of the integral operator on a
  fixed grid, starting from the constant initial value.

One walker, :func:`_walk`, carries the break line, on fixed nodes for
:func:`euler_break_line` and with an adaptive step for :func:`detect_blowup`,
a window of nodes at a time: it sweeps the window's lower-triangular
recurrence on arrays until the log f(phi) a sweep reads is bitwise
unchanged, which is the step-by-step walk bit for bit (waveform relaxation:
Lelarasmee, Ruehli & Sangiovanni-Vincentelli, 1982).  A sweep and a Picard
iteration run one pass, :func:`_pass`, so each formula is written once.

The Volterra accumulation uses a product-trapezoid rule: the integrand is
split as s^(n-1) * G(s) with G smooth down to s = 0, G is interpolated
linearly on each cell and the s^(n-1) weight is integrated exactly.  A plain
trapezoid rule mishandles the s^(n-1) vanishing at the origin, and that error
feeds straight into the curvature at 0; with the exact weight moments the
leading-order behaviour of the first cells is captured.
"""

import json
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .nonlinearity import Nonlinearity
from .radial import (AdmissibilityError, ProblemParams, _G_into,
                     _log_G_terms, _slope_into, chi, dphi_from_integral)

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

# walk window lengths (a sweep's fixed cost is that of ~700 nodes) and the
# largest lam * (span in r) of a window, lam the growth rate of dphi
_WINDOW_MIN, _WINDOW_MAX = 32, 2048
_GROWTH_SPAN = 3.0


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
    the tests' scalar reference for the cell quadrature."""
    A, B = _cell_weights(s0, s1, n)
    return A * G0 + B * G1


def _cell_increments(grid: np.ndarray, G: np.ndarray, n: int) -> np.ndarray:
    A, B = _cell_weights(grid[:-1], grid[1:], n)
    with np.errstate(over="ignore", invalid="ignore"):
        return A * G[:-1] + B * G[1:]


def _cells(p: ProblemParams, s: np.ndarray):
    """:func:`_pass`'s radius parts: the cell weights, the log G terms at
    every node, chi past the origin."""
    s0, s1 = s[:-1], s[1:]
    return (*_cell_weights(s0, s1, p.n), _log_G_terms(p, s), chi(p, s1))


def _pass(k: int, cells, logf: np.ndarray, I: np.ndarray, dphi: np.ndarray,
          lo: int) -> None:
    """The recurrence past node lo, in place: G from log f at the
    len(logf) nodes from lo and +inf past them (where phi is +inf), I from
    I[lo] by running sum of A G(s0) + B G(s1), phi' (+inf where I is not
    finite)."""
    wA, wB, terms, chi_r = cells
    I1, D1 = I[lo + 1:], dphi[lo + 1:]
    fin = len(logf)
    G = np.empty(len(I) - lo)
    _G_into(k, logf, [t[lo:lo + fin] for t in terms], G[:fin])
    G[fin:] = math.inf
    np.multiply(wB[lo:], G[1:], out=I1)
    # A G(s0) goes through the slope's buffer, which the slope overwrites
    np.multiply(wA[lo:], G[:-1], out=D1)
    I1 += D1
    np.add.accumulate(I[lo:], out=I[lo:])
    _slope_into(k, chi_r[lo:], I1, D1)
    if not I[-1] < math.inf:
        D1[~(I1 < math.inf)] = math.inf


def _forward_pass(p: ProblemParams, f: Nonlinearity, grid: np.ndarray,
                  phi: np.ndarray, cells):
    """Accumulated integral and slope induced by a candidate profile: the
    walk's :func:`_pass` from node 0, where I and phi' are 0, on the grid's
    radius parts `cells` (:func:`_cells`).  Overflow is deliberate: an
    accumulation running to +inf signals blow-up and is caught by the
    callers' finiteness checks."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        I, dphi = np.zeros(len(grid)), np.zeros(len(grid))
        _pass(p.k, cells, f.log_eval(phi), I, dphi, 0)
    return I, dphi


def _require_walk_sizes(n: int, r_name: str, r: float, h_name: str,
                        h: float) -> None:
    """Both sizes must be finite and > 0, and the radius must keep
    r^(n+1) < DBL_MAX (r < 5.6e102 at n=2): a sufficient bound under which
    every term of the cell weights, at most about r^n, stays finite.  Also
    r / h < 2^52: a step h then exceeds one ulp of the radius, so the grid
    nodes are distinct; at or above it a walk would take >= 4.5e15 steps."""
    for name, value in ((r_name, r), (h_name, h)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    if not r / h < 2.0 ** 52:
        raise ValueError(f"{h_name}={h} is too small for {r_name}={r}: "
                         f"{r_name}/{h_name} must stay below 2^52")
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
          h: float, nodes: np.ndarray | None = None,
          phi_cap: float = math.inf):
    """The break line from (0, a) to r_end.  With `nodes` it visits exactly
    those radii and ends after the first non-finite dphi; otherwise it steps
    by h, halving it while the predicted increment exceeds
    max(1, 0.01 * phi_cap), and ends at blow-up: phi above phi_cap, or a
    step below h * 2^-40 or too small to move r (r + step == r), where the
    bracket is at least one ulp wide; phi moves by dphi times the node
    spacing.  Returns the columns (r, phi, dphi, I) as rows and the blow-up
    bracket, None at r_end.

    The nodes go in windows settled by :func:`_settle_window`, each kept
    whole up to its first stop: slices of `nodes`, or r, r + h, ... summed
    as r + step up to a clamped last step or one that r + step rounds
    away.  A window has _GROWTH_SPAN / (lam h) nodes, h before the window's
    own halvings, clamped to [_WINDOW_MIN, _WINDOW_MAX]: the most at
    lam = 0, as at the origin.  lam, the growth rate of dphi over the last
    cell kept, also seeds each window's first guess.
    """
    # dphi * step passes the halving test iff it is finite and <= the cap;
    # on fixed nodes (step 1) the walk stops where dphi is not finite
    step, step_cap = 1.0, sys.float_info.max
    if nodes is None:
        step_cap = min(max(1.0, 0.01 * phi_cap), step_cap)
    h_min, tail = h * 2.0 ** -40, 1e-12 * r_end
    r, phi, dphi, I = 0.0, float(a), 0.0, 0.0
    columns = [np.array([[r], [phi], [dphi], [I]])]
    bracket, j, lam = None, 0, 0.0
    # sizes given as numpy scalars make the arithmetic numpy's, and overflow
    # is deliberate here: a column running to +inf signals blow-up
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while r_end - r > tail:
            size = (_WINDOW_MAX if lam * h * _WINDOW_MAX <= _GROWTH_SPAN
                    else max(int(_GROWTH_SPAN / (lam * h)), _WINDOW_MIN))
            if nodes is None:
                h_entry = h
                step = min(h, r_end - r)
                while not dphi * step <= step_cap and h >= h_min:
                    h /= 2.0
                    step = min(h, r_end - r)
                # blow-up: no step >= h_min tames the slope, or the one
                # that does no longer moves r
                if h < h_min or r + step == r:
                    bracket = (r, max(float(r + h_entry),
                                      math.nextafter(r, math.inf)))
                    break
                s = np.concatenate(([r], np.full(size, step)))
                np.add.accumulate(s, out=s)
                left = r_end - s[:-1]
                # steps of this size that move r: a clamped last step, or
                # one that r + step rounds away, starts a new window
                steps = ((np.minimum(h, left) == step) & (left > tail)
                         & (s[1:] > s[:-1]))
                m = len(steps) if steps.all() else int(np.argmin(steps))
                s = s[:m + 1]
            else:
                # the grid ends at r_end, its spacing far above tail
                s = nodes[j:j + size + 1]
            _, rows = _settle_window(p, f, s, I, dphi, phi, phi_cap, step,
                                     step_cap, lam)
            columns.append(rows[:, 1:])
            r, phi, dphi, I = rows[:, -1].tolist()
            if phi > phi_cap:
                bracket = tuple(rows[0, -2:].tolist())
                break
            if nodes is not None and not dphi < math.inf:
                break
            # growth over the last cell: in (0, inf], or 0 where dphi does
            # not grow
            r0, d0 = rows[0, -2], rows[2, -2]
            lam = np.log(dphi / d0) / (r - r0) if 0 < d0 < dphi < math.inf \
                else 0.0
            j += rows.shape[1] - 1
    return np.concatenate(columns, axis=1), bracket


def _settle_window(p: ProblemParams, f: Nonlinearity, s: np.ndarray,
                   I: float, dphi: float, phi: float,
                   phi_cap: float, step: float, step_cap: float,
                   lam: float):
    """The break line on the nodes s[0] < ... < s[m] from the state at s[0],
    swept to a bitwise fixed point.  A sweep is phi by running sum with the
    slope frozen at the left node, rewritten in place, and then Picard's
    :func:`_pass` over the unsettled nodes.  It reads phi only through
    log f, or as the +inf tail where f is not evaluated, and node j+1
    depends only on that input at nodes <= j; so the nodes before the first
    whose input the next sweep would change hold the one-step walk's values
    bit for bit, one more at least each sweep.  The first guess has the
    slope dphi e^(lam (s - s[0])).  Returns the sweeps, at most m, and the
    rows (r, phi, dphi, I) up to the first node where phi > phi_cap or
    dphi * step > step_cap, else to s[m].
    """
    m, inf = len(s) - 1, math.inf
    cells, width = _cells(p, s), s[1:] - s[:-1]
    rows = np.empty((4, m + 1))
    rows[0] = s
    _, phis, dphis, Is = rows
    Is[0], phis[0] = I, phi
    # the guess; e^0 is 1, so the first cell takes the walk's own slope
    np.multiply(dphi, np.exp(lam * (s[:-1] - s[0])), out=dphis[:-1])
    lo, logf = 0, None  # the last settled node; the log f a sweep read
    # each check settles one more node, so sweep m returns at the latest
    for sweep in range(m + 1):
        np.multiply(dphis[lo:-1], width[lo:], out=phis[lo + 1:])
        np.add.accumulate(phis[lo:], out=phis[lo:])
        ahead = phis[lo:]
        # phi never decreases, so only a tail of it can be +inf, where G is
        # +inf and f is not evaluated
        fin = len(ahead) if ahead[-1] < inf else int(np.argmin(ahead < inf))
        new = f.log_eval(ahead[:fin])
        if sweep:
            # nodes lo and lo + 1 were read at the walk's phi; settled ends
            # at the first node past them whose log f or tail state changed
            both = min(fin, len(logf))
            same = new[2:both].view(np.int64) == logf[2:both].view(np.int64)
            settled = (lo + 2 + int(same.argmin()) if not same.all()
                       else m + 1 if fin == len(logf) else lo + both)
            # done when all settled, or at a settled stop
            kept, slopes = phis[lo + 1:settled], dphis[lo + 1:settled]
            end = settled - 1 if settled > m else None
            if len(kept) and not (slopes.max() * step <= step_cap
                                  and kept[-1] <= phi_cap):
                stops = (kept > phi_cap) | ~(slopes * step <= step_cap)
                end = lo + 1 + int(stops.argmax())
            if end is not None:
                return sweep, rows[:, :end + 1]
            new, lo = new[settled - 1 - lo:], settled - 1
        logf = new
        _pass(p.k, cells, logf, Is, dphis, lo)


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
    columns, _ = _walk(p, f, a, r_end, h, nodes=_uniform_grid(r_end, h))
    return _profile_from_walk(p, f, columns)


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
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        cells = _cells(p, grid)
    phi = np.full(len(grid), float(a))
    deltas = []
    for _ in range(max_iter):
        _, dphi = _forward_pass(p, f, grid, phi, cells)
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
            I, dphi = _forward_pass(p, f, grid, phi, cells)
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
    profile = _profile_from_walk(p, f, columns)
    if bracket is None:
        return BlowupReport(GLOBAL, r_max, profile=profile)
    lo, hi = bracket
    return BlowupReport(FINITE_BLOWUP, r_max,
                        r_estimate=math.nextafter(lo, hi),
                        bracket=bracket, profile=profile)


def _profile_from_walk(p, f, columns) -> RadialProfile:
    finite = np.isfinite(columns).all(axis=0)
    end = len(finite) if finite.all() else int(np.argmin(finite))
    truncated_at = float(columns[0, end]) if end < len(finite) else None
    profile = RadialProfile(*columns[:, :end], p, f, truncated_at=truncated_at)
    profile.validate()
    return profile


def detect_blowup(p: ProblemParams, f: Nonlinearity, a: float, r_max: float,
                  phi_cap: float = 1e8, h0: float = 1e-3) -> BlowupReport:
    """Walk the break line adaptively and classify the run.

    The step is halved whenever the predicted increment exceeds
    max(1, 0.01 * phi_cap); blow-up is declared when the profile crosses
    phi_cap or the step falls below h0 * 2^-40 or becomes too small to move
    r (r + step == r).  A blow-up found at h0 is walked again at h0/2, and
    that walk's report is returned: its bracket, and as the estimate the
    least float above the bracket's lower end.  If the h0/2 walk reaches
    r_max, the h0 report is kept with a note.
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
    return fine


def refinement_order(solve, h_sequence, reference=None) -> float:
    """Empirical convergence order from successive error ratios.

    `solve` maps a step h to a :class:`RadialProfile`, for example
    ``lambda h: euler_break_line(p, f, a, r_end, h)``.  With a `reference`
    callable (exact solution of r), errors are maximum node deviations from
    it; otherwise successive endpoint differences between consecutive grids
    are used.  Raises :class:`RefinementDiagnosticError` when the error
    sequence does not decrease strictly (including identical profiles
    across h).
    """
    hs = [float(h) for h in h_sequence]
    if len(hs) < 3 or any(h1 >= h0 for h0, h1 in zip(hs, hs[1:])):
        raise ValueError("need >= 3 strictly decreasing steps")
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
