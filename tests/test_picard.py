"""Picard's forward pass against the Volterra formulas written out on whole
arrays, the counterpart of the break line's per-step `reference_walk`: the
walk and Picard run one shared pass, so this reference is what keeps Picard
checked against a second copy of the formulas."""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hessian_radial import (Nonlinearity, NonConvergenceError, ProblemParams,
                            binom, picard_solve, solver)
from hessian_radial.solver import _cells, _forward_pass, _uniform_grid

SOURCES = {
    "const": Nonlinearity.constant(1.7),
    "exp": Nonlinearity.exponential(1.3),
    "pow": Nonlinearity.power_cutoff(2.5),
    "custom": Nonlinearity.custom(lambda t: t * t + 0.5 if t > 0 else 0.5),
}


def reference_weights(s0, s1, n):
    """The product-trapezoid weights (A, B) of the cells [s0, s1]: one
    Horner loop in s0 over sum_{i<n} (n-i, i+1) s0^(n-1-i) s1^i, times
    h / (n (n+1))."""
    A, B, t = 0.0, 0.0, 1.0
    for i in range(n):
        A = A * s0 + (n - i) * t
        B = B * s0 + (i + 1) * t
        t = t * s1
    c = (s1 - s0) / (n * (n + 1))
    return c * A, c * B


def reference_forward_pass(p, f, grid, phi):
    """(I, phi') of a candidate profile by the formulas on whole arrays:
    G = exp(log(k/C(n-1,k-1)) + n mu s + k log f (+ (1-k) log(1 + mu s) for
    k >= 2)), I the running sum of the cell increments A G(s0) + B G(s1),
    and phi' = exp(((k-n) log r - n mu r + log I) / k)."""
    n, k, mu = p.n, p.k, p.mu
    logc = math.log(k) - math.log(binom(n - 1, k - 1))
    with np.errstate(all="ignore"):
        logG = logc + n * mu * grid + k * f.log_eval(phi)
        if k >= 2:
            logG = logG + (1.0 - k) * np.log(1.0 + mu * grid)
        G = np.exp(logG)
        A, B = reference_weights(grid[:-1], grid[1:], n)
        I = np.concatenate(([0.0], np.cumsum(A * G[:-1] + B * G[1:])))
        r, Ir = grid[1:], I[1:]
        logv = ((k - n) * np.log(r) - n * mu * r + np.log(Ir)) / k
        dphi = np.concatenate(([0.0], np.exp(logv)))
    return I, dphi


def reference_picard(p, f, a, r_end, h, tol, max_iter):
    """picard_solve's iteration on reference_forward_pass: the columns, or
    the NonConvergenceError's message and last node distances."""
    grid = _uniform_grid(r_end, h)
    hcells = np.diff(grid)
    phi = np.full(len(grid), float(a))
    deltas = []
    for _ in range(max_iter):
        _, dphi = reference_forward_pass(p, f, grid, phi)
        with np.errstate(all="ignore"):
            phi_new = a + np.concatenate(
                ([0.0], np.cumsum((dphi[:-1] + dphi[1:]) * hcells / 2.0)))
        if not np.all(np.isfinite(phi_new)):
            return ("iterates overflow", tuple(deltas[-2:]))
        deltas.append(float(np.max(np.abs(phi_new - phi))))
        phi = phi_new
        if deltas[-1] < tol:
            I, dphi = reference_forward_pass(p, f, grid, phi)
            return grid, phi, dphi, I
    return ("no fixed point", tuple(deltas[-2:]))


def picard_outcome(p, f, a, r_end, h, tol, max_iter):
    """picard_solve's columns, or its error in reference_picard's terms."""
    try:
        prof = picard_solve(p, f, a, r_end, h, tol=tol, max_iter=max_iter)
    except NonConvergenceError as exc:
        kind = "iterates overflow" if str(exc).startswith("iterates") \
            else "no fixed point"
        return kind, exc.last_deltas
    return prof.grid, prof.phi, prof.dphi, prof.volterra


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def assert_same_pass(got, want):
    """I bit for bit; phi' bit for bit where I is finite.  Where it is not,
    the shared pass reads phi' = +inf (the walk's rule) and the formulas
    read +inf or nan; Picard rejects both alike, as iterates that overflow."""
    (I, dphi), (want_I, want_dphi) = got, want
    assert np.array_equal(bits(I), bits(want_I))
    finite = I < math.inf
    assert np.array_equal(bits(dphi[finite]), bits(want_dphi[finite]))
    assert np.all(dphi[~finite] == math.inf)
    assert not np.any(want_dphi[~finite] < math.inf)


# k >= 2 with mu > 0 (the (1 + mu s) term), k = 1 with any mu
regimes = st.tuples(st.sampled_from([(2, 1), (3, 1), (3, 2), (4, 4), (5, 3),
                                     (6, 2)]),
                    st.floats(min_value=-2, max_value=2)).map(
    lambda t: ProblemParams(*t[0], t[1] if t[0][1] == 1 else abs(t[1])))


class TestPicardReference:
    @given(regimes, st.sampled_from(sorted(SOURCES)),
           st.floats(min_value=-1, max_value=2),
           st.floats(min_value=0.1, max_value=4), st.integers(1, 400),
           st.floats(min_value=0, max_value=3),
           st.floats(min_value=1, max_value=3))
    @example(ProblemParams(3, 2, 0.7), "custom", 0.5, 2.0, 300, 1.0, 2.0)
    @example(ProblemParams(2, 1, -1.5), "exp", 0.2, 3.0, 200, 0.5, 1.5)
    # n mu s overflows and meets log f(-1) = -inf: log G and I are nan
    @example(ProblemParams(2, 1, 1e306), "pow", -1.0, 200.0, 20, 0.0, 1.0)
    @settings(max_examples=150, deadline=None)
    def test_forward_pass(self, p, family, a, r_end, m, c, q):
        f, grid = SOURCES[family], _uniform_grid(r_end, r_end / m)
        phi = a + c * grid ** q
        with np.errstate(all="ignore"):
            cells = _cells(p, grid)
        assert_same_pass(_forward_pass(p, f, grid, phi, cells),
                         reference_forward_pass(p, f, grid, phi))

    @given(regimes, st.sampled_from(sorted(SOURCES)),
           st.floats(min_value=-1, max_value=1),
           st.floats(min_value=0.1, max_value=3), st.integers(1, 300),
           st.integers(1, 40))
    @example(ProblemParams(4, 2, 0.5), "custom", 0.3, 1.5, 150, 40)
    @example(ProblemParams(3, 1, -0.8), "const", 0.0, 2.0, 100, 40)
    # Liouville past its blow-up radius sqrt(8): the iterates overflow
    @example(ProblemParams(2, 1, 0.0), "exp", 0.0, 3.0, 300, 40)
    # too few iterations to converge
    @example(ProblemParams(5, 3, 0.4), "pow", 1.0, 2.0, 200, 2)
    @example(ProblemParams(2, 1, 1e306), "pow", -1.0, 200.0, 20, 5)
    @settings(max_examples=100, deadline=None)
    def test_picard_solve(self, p, family, a, r_end, m, max_iter):
        args = (p, SOURCES[family], a, r_end, r_end / m, 1e-10, max_iter)
        got, want = picard_outcome(*args), reference_picard(*args)
        if isinstance(want[0], str):
            assert got[0] == want[0]
            assert (struct.pack(f"{len(got[1])}d", *got[1])
                    == struct.pack(f"{len(want[1])}d", *want[1]))
        else:
            for g, w in zip(got, want):
                assert np.array_equal(bits(g), bits(w))


class TestRadiusParts:
    @pytest.mark.parametrize("p, family, r_end", [
        (ProblemParams(3, 2, 0.4), "const", 2.0),
        (ProblemParams(2, 1, 0.0), "exp", 2.0),  # Liouville: 11 passes
    ])
    def test_formed_once_per_solve(self, p, family, r_end, monkeypatch):
        # the cell weights, log G terms and chi depend on the grid alone
        formed, cells = [], solver._cells

        def counting(*args):
            formed.append(None)
            return cells(*args)
        monkeypatch.setattr(solver, "_cells", counting)
        picard_solve(p, SOURCES[family], 0.0, r_end, 1e-3)
        assert len(formed) == 1
