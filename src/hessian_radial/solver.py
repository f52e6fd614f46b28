"""Cauchy solver for the radial integral equation, plus blow-up detection.

Two routes to the same fixed point:

* :func:`euler_break_line` -- piecewise-linear profile advanced with the slope
  frozen at the left node, the slope being recovered from the running
  quadrature of the Volterra integrand along the line built so far.
* :func:`picard_solve` -- fixed-point iteration of the integral operator on a
  fixed grid, starting from the constant initial value.

One walker, :func:`_walk`, carries the break line, on fixed nodes for
:func:`euler_break_line` and with an adaptive step for :func:`detect_blowup`,
as a front (:func:`_front`) on one buffer of nodes: each sweep runs the
lower-triangular recurrence on arrays from the settled front to a lookahead
past it, and the front moves to the first node whose log f(phi) the sweep
changed, so the nodes behind it hold the step-by-step walk bit for bit
(waveform relaxation: Lelarasmee, Ruehli & Sangiovanni-Vincentelli, 1982).
A sweep and a Picard iteration run one pass, :func:`_pass`, so each formula
is written once.

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
from .symmetric import _integers

__all__ = [
    "SCHEMA_ID", "RadialProfile", "BlowupReport", "NonConvergenceError",
    "euler_break_line", "picard_solve", "per_cell_defect", "detect_blowup",
]

SCHEMA_ID = "hessian-radial/1"

GLOBAL = "global"
FINITE_BLOWUP = "finite_blowup"
ADMISSIBILITY_FAILURE = "admissibility_failure"

# a block of profile CSV rows is about 110 kB of text; the whole file at
# once would be ~10 MB for a 1e5-node profile
_CSV_BLOCK_ROWS = 1024
_CSV_ROW = "%.17g,%.17g,%.17g,%.17g,%.17g\n"

# the walk's lookahead past its settled front, in nodes (a sweep's fixed
# cost is that of ~1500 nodes), and its largest lam * (span in r), lam the
# growth rate of dphi
_LOOKAHEAD_MIN, _LOOKAHEAD_MAX = 32, 2048
_GROWTH_SPAN = 3.0


class NonConvergenceError(RuntimeError):
    """Fixed-point iteration failed; carries the last two node distances."""

    def __init__(self, message: str, last_deltas=()):
        super().__init__(message)
        self.last_deltas = tuple(last_deltas)


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
    >= 0 and only + and *: no cancellation, floats and arrays bit-equal.
    The loop starts past its first step, whose A = n and B = 1 are exact at
    finite s0."""
    A, B, t = n, 1, 1
    for i in range(1, n):
        t = t * s1
        A = A * s0 + (n - i) * t
        B = B * s0 + (i + 1) * t
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
    """The radius parts of the nodes s: per cell its width, its weights
    and chi at its right end, then the log G terms at every node."""
    s0, s1 = s[:-1], s[1:]
    return (s1 - s0, *_cell_weights(s0, s1, p.n), chi(p, s1),
            *_log_G_terms(p, s))


def _pass(k: int, cells, c: int, logf: np.ndarray, I: np.ndarray,
          dphi: np.ndarray) -> None:
    """The recurrence on the nodes of I and dphi past the first, in place,
    on the radius parts `cells` from their index c: G from log f at the
    len(logf) nodes from the first and +inf past them (where phi is +inf),
    I from I[0] by running sum of A G(s0) + B G(s1), phi' (+inf where I is
    not finite)."""
    _, wA, wB, chi_r, *terms = cells
    m, fin = len(I) - 1, len(logf)
    I1, D1 = I[1:], dphi[1:]
    G = np.empty(m + 1)
    _G_into(k, logf, [t[c:c + fin] for t in terms], G[:fin])
    if fin <= m:
        G[fin:] = math.inf
    np.multiply(wB[c:c + m], G[1:], out=I1)
    # A G(s0) goes through the slope's buffer, which the slope overwrites
    np.multiply(wA[c:c + m], G[:-1], out=D1)
    I1 += D1
    np.add.accumulate(I, out=I)
    _slope_into(k, chi_r[c:c + m], I1, D1)
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
        _pass(p.k, cells, 0, f._log_kernel(phi), I, dphi)
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

    The columns are one buffer that :func:`_front` sweeps, one run at a
    time, and fills with the radii its `more` gives as the front needs
    them.  On `nodes` it is one run, whose `more` slices the grid.  The
    adaptive walk is a run per step size: r, r + step, ... summed as
    r + step, up to the node where the step halves, a clamped last step or
    one that r + step rounds away; its lookahead takes h before the run's
    own halvings.
    """
    # dphi * step passes the halving test iff it is finite and <= the cap;
    # on fixed nodes (step 1) the walk stops where dphi is not finite
    step, step_cap = 1.0, sys.float_info.max
    if nodes is None:
        step_cap = min(max(1.0, 0.01 * phi_cap), step_cap)
    h_min, tail = h * 2.0 ** -40, 1e-12 * r_end
    log_f, bracket, j, h_entry = f._log_kernel, None, 0, h
    # sizes given as numpy scalars make the arithmetic numpy's, and overflow
    # is deliberate here: a column running to +inf signals blow-up
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if nodes is None:
            rows = np.empty((4, min(int(r_end / h) + 2, 2 ** 16)))
        else:
            # the grid ends at r_end, its spacing far above tail
            rows = np.empty((4, len(nodes)))

            def more(r0, count):
                """Up to `count` nodes past r0, a node of the grid."""
                start = nodes.searchsorted(r0) + 1
                return nodes[start:start + count]
        rows[:, 0] = 0.0, float(a), 0.0, 0.0
        while True:
            if nodes is None:
                r, dphi = rows[0::2, j].tolist()
                if not r_end - r > tail:
                    break
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

                def more(r0, count, h=h, step=step):
                    """Up to `count` nodes past r0 by steps of this size
                    that move r: fewer where the step would be clamped or
                    rounded away."""
                    count = min(count, int((r_end - r0) / step) + 2)
                    s = np.concatenate(([r0], np.full(count, step)))
                    np.add.accumulate(s, out=s)
                    left = r_end - s[:-1]
                    steps = ((np.minimum(h, left) == step) & (left > tail)
                             & (s[1:] > s[:-1]))
                    return s[1:] if steps.all() \
                        else s[1:int(np.argmin(steps)) + 1]
            rows, j = _front(p, log_f, rows, j, more, h_entry, step,
                             step_cap, phi_cap)
            if rows[1, j] > phi_cap:
                bracket = tuple(rows[0, j - 1:j + 1].tolist())
                break
            if nodes is not None:
                break
    return rows[:, :j + 1], bracket


def _growth(r: np.ndarray, dphi: np.ndarray, i: int) -> float:
    """The growth rate of dphi over the cell ending at node i: in
    (0, inf], or 0 where dphi does not grow, as at the origin."""
    if i:
        d0, d1 = dphi.item(i - 1), dphi.item(i)
        if 0 < d0 < d1 < math.inf:
            return math.log(d1 / d0) / (r.item(i) - r.item(i - 1))
    return 0.0


def _lookahead(r: np.ndarray, dphi: np.ndarray, i: int, h: float) -> int:
    """The nodes a sweep looks past node i: _GROWTH_SPAN / (lam h),
    clamped to [_LOOKAHEAD_MIN, _LOOKAHEAD_MAX], lam the growth rate of
    dphi over the cell ending at node i, and unbounded where dphi rises
    from 0, as on the first cell."""
    if i and dphi.item(i - 1) == 0 < dphi.item(i):
        return _LOOKAHEAD_MIN
    lam = _growth(r, dphi, i)
    return (_LOOKAHEAD_MAX if lam * h * _LOOKAHEAD_MAX <= _GROWTH_SPAN
            else max(int(_GROWTH_SPAN / (lam * h)), _LOOKAHEAD_MIN))


def _first_stop(phis: np.ndarray, dphis: np.ndarray, lo: int, hi: int,
                step: float, step_cap: float, phi_cap: float) -> int | None:
    """The first of the nodes lo+1..hi where phi > phi_cap or
    dphi * step > step_cap (or is nan), None if none is."""
    ahead, slopes = phis[lo + 1:hi + 1], dphis[lo + 1:hi + 1]
    # phi never decreases: the largest slope and the last phi tell whether
    # any node stops
    if len(ahead) and not (slopes[slopes.argmax()] * step <= step_cap
                           and ahead[-1] <= phi_cap):
        stops = (ahead > phi_cap) | ~(slopes * step <= step_cap)
        return lo + 1 + int(stops.argmax())
    return None


def _front(p: ProblemParams, log_f, rows: np.ndarray, j: int, more,
           h: float, step: float, step_cap: float, phi_cap: float):
    """The break line past node j of the columns `rows`, kept up to node j,
    swept to a bitwise fixed point on the nodes from the settled front lo to
    lo + L.  A sweep is phi by running sum with the slope frozen at the left
    node, rewritten in place, then Picard's :func:`_pass`.  It reads phi
    only through log f, or as the +inf tail where f is not evaluated, and
    node i+1 depends only on that input at nodes <= i; so the nodes before
    the first whose input the next sweep would change hold the one-step
    walk's values bit for bit, and the front moves there.

    L is :func:`_lookahead` at the front.  Nodes entering the lookahead
    take the slope dphi(s_hi) e^(g (s - s_hi)), g the growth rate over the
    cell ending at s_hi, the last node the sweep before reached.  Neither
    changes a value.  The radii come from `more(r, count)`: the radii past
    r, `count` of them unless the run ends there.  Their radius parts
    (:func:`_cells`) are formed as the front needs them, for the larger of
    one lookahead past node hi and half the nodes the run has kept (at most
    two of the longest lookaheads), but not past the first node where the
    sweep before stops (:func:`_first_stop`).  A call costs about as much
    as forming a thousand nodes, parts past the stop go unused, and larger
    arrays take fresh memory pages.

    Returns the columns (a larger buffer where the run outgrew `rows`) and
    the last node kept: the first where phi > phi_cap or
    dphi * step > step_cap, else the run's last.
    """
    inf = math.inf
    r, phis, dphis, Is = rows
    # the radii are known up to node `top` and their parts `cells` from
    # node `base`; the sweep before reached node hi, and logf is the log f
    # it read, from node lo
    base = lo = hi = top = j
    cells = logf = None
    while True:
        size = _lookahead(r, dphis, lo, h)
        if lo + size > top and more:
            count = max(_lookahead(r, dphis, hi, h),
                        min((lo - j) // 2, 2 * _LOOKAHEAD_MAX))
            stop = _first_stop(phis, dphis, lo, hi, step, step_cap, phi_cap)
            if stop is not None:
                count = min(count, stop + 1 - top)
            fresh = more(r[top], count) if count > 0 else ()
            if len(fresh) < count:
                more = None
            end = top + len(fresh)
            if end > top:
                if end >= rows.shape[1]:
                    grown = np.empty((4, max(2 * rows.shape[1], end + 1)))
                    grown[:, :top + 1] = rows[:, :top + 1]
                    rows = grown
                    r, phis, dphis, Is = rows
                r[top + 1:end + 1] = fresh
                parts = _cells(p, r[top:end + 1])
                # drop the parts of the nodes before the front
                cells = parts if cells is None else tuple(
                    np.concatenate((old[lo - base:top - base], part))
                    for old, part in zip(cells, parts))
                base, top = lo, end
        if lo == top:
            return rows, lo
        reach = min(lo + size, top)
        if reach > hi:
            np.multiply(dphis[hi], np.exp(_growth(r, dphis, hi)
                                          * (r[hi + 1:reach] - r[hi])),
                        out=dphis[hi + 1:reach])
        prev, hi = hi, reach
        width = cells[0][lo - base:hi - base]
        np.multiply(dphis[lo:hi], width, out=phis[lo + 1:hi + 1])
        np.add.accumulate(phis[lo:hi + 1], out=phis[lo:hi + 1])
        ahead = phis[lo:hi + 1]
        # phi never decreases, so only a tail of it can be +inf, where G is
        # +inf and f is not evaluated
        fin = len(ahead) if ahead[-1] < inf else int(np.argmin(ahead < inf))
        new = log_f(ahead[:fin])
        if logf is not None:
            # nodes lo and lo + 1 were read at the walk's phi; settled ends
            # at the first node past them whose log f or tail state changed,
            # or past the nodes both sweeps reached
            both, reached = min(fin, len(logf)), min(hi, prev) + 1
            same = new[2:both].view(np.int64) == logf[2:both].view(np.int64)
            # argmin and argmax give the first False and the first largest
            # entry, at a fraction of the cost of all() and max()
            first = int(same.argmin()) if len(same) else 0
            settled = (lo + 2 + first if len(same) and not same[first]
                       else reached if fin == len(logf)
                       else min(lo + both, reached))
            stop = _first_stop(phis, dphis, lo, settled - 1, step, step_cap,
                               phi_cap)
            if stop is not None:
                return rows, stop
            new, lo = new[settled - 1 - lo:], settled - 1
        logf = new
        if hi > lo:
            _pass(p.k, cells, lo - base, logf, Is[lo:hi + 1],
                  dphis[lo:hi + 1])


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
    would accept the first iterate), after at most `max_iter` sweeps, an
    integer >= 1.
    """
    _require_solvable(p, a, r_end, h)
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    (max_iter,) = _integers(max_iter=max_iter)
    if not max_iter >= 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    grid = _uniform_grid(r_end, h)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        cells = _cells(p, grid)
    hcells = cells[0]
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
