"""The windowed break-line walk against a per-step reference walk."""

import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hessian_radial import (Nonlinearity, ProblemParams, binom,
                            detect_blowup, solver)
from hessian_radial.radial import _smooth_factor
from hessian_radial.solver import (_WINDOW_MAX, _WINDOW_MIN, _uniform_grid,
                                   _walk)

SOURCES = {
    "const": Nonlinearity.constant(1.7),
    "exp": Nonlinearity.exponential(1.3),
    "pow": Nonlinearity.power_cutoff(2.5),
    "custom": Nonlinearity.custom(lambda t: t * t if t > 0 else 0.0),
}

# log(DBL_MAX): numpy's exp is finite up to here and overflows one ulp above,
# where the reference walk returns +inf itself
LOG_DBL_MAX = 709.782712893384


def float_log(f):
    """log f as a function of one float, the scalar form of
    Nonlinearity.log_eval: numpy's log on a Python float."""
    q = f.param
    if f.family == "const":
        log_c = float(np.log(q))
        return lambda t: log_c
    if f.family == "exp":
        return lambda t: q * t
    if f.family == "pow":
        return lambda t: q * float(np.log(t)) if t > 0 else -math.inf

    def log_custom(t):
        v = float(f.fn(float(t)))
        if v < 0:
            raise ValueError("custom nonlinearity takes negative values")
        return float(np.log(v)) if v > 0 else -math.inf
    return log_custom


def reference_walk(p, f, a, r_end, h, nodes=None, phi_cap=math.inf):
    """The walk one step at a time in plain floats, every term formed at its
    step: the cell weights by the Horner loop of solver._cell_weights, G and
    phi' in the evaluation order of radial._smooth_factor and
    dphi_from_integral.  `nodes` is a list of floats."""
    n, k, mu = p.n, p.k, p.mu
    n_mu, k_n, one_k, nn1 = n * mu, k - n, 1.0 - k, n * (n + 1)
    coefs = [(float(n - i), float(i + 1)) for i in range(n)]
    bent = k >= 2 and mu != 0.0
    logc = math.log(k) - math.log(binom(n - 1, k - 1))
    log_f = float_log(f)
    exp, log, isfinite, inf = np.exp, np.log, math.isfinite, math.inf
    step_cap = max(1.0, 0.01 * phi_cap)
    h_min = h * 2.0 ** -40
    r, phi, dphi, I = 0.0, float(a), 0.0, 0.0
    G = float(_smooth_factor(p, f, r, phi))
    rs, phis, dphis, Is = [r], [phi], [dphi], [I]
    bracket = None
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
                # no step >= h_min tames the slope, or the one that does no
                # longer moves r; the bracket is at least one ulp wide
                if h < h_min or r + step == r:
                    bracket = (r, max(r + h_entry, math.nextafter(r, inf)))
                    break
                r_new = r + step
            width = r_new - r
            phi += dphi * width
            if isfinite(phi):
                logG = logc + n_mu * r_new + k * log_f(phi)
                if bent:
                    logG += one_k * float(log(1.0 + mu * r_new))
                G_new = inf if logG > LOG_DBL_MAX else float(exp(logG))
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
                dphi = inf if x > LOG_DBL_MAX else float(exp(x))
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


def both_walks(p, f, a, r_end, h, fixed, phi_cap=math.inf):
    """(windowed walk, reference walk) on the same problem."""
    if fixed:
        grid = _uniform_grid(r_end, h)
        return (_walk(p, f, a, r_end, h, nodes=grid, phi_cap=phi_cap),
                reference_walk(p, f, a, r_end, h, nodes=grid.tolist(),
                               phi_cap=phi_cap))
    return (_walk(p, f, a, r_end, h, phi_cap=phi_cap),
            reference_walk(p, f, a, r_end, h, phi_cap=phi_cap))


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def assert_same_walk(got, want):
    """Equal bit patterns: == would equate -0.0 with 0.0."""
    (got_cols, got_bracket), (want_cols, want_bracket) = got, want
    assert len(got_cols) == len(want_cols) == 4
    for g, w in zip(got_cols, want_cols):
        assert np.array_equal(bits(g), bits(w))
    if want_bracket is None:
        assert got_bracket is None
    else:
        assert all(type(x) is float for x in got_bracket)
        assert (struct.pack("2d", *got_bracket)
                == struct.pack("2d", *want_bracket))


@pytest.fixture
def windows(monkeypatch):
    """The (nodes, sweeps, end) of every window the walk settles, in order:
    a window of `nodes` steps kept its first `end`."""
    seen = []
    settle = solver._settle_window

    def recording(p, f, s, *args):
        sweeps, rows = settle(p, f, s, *args)
        seen.append((len(s) - 1, sweeps, rows.shape[1] - 1))
        return sweeps, rows
    monkeypatch.setattr(solver, "_settle_window", recording)
    return seen


def cut_inside_a_later_window(seen, node):
    """Node `node` is the last one kept by a window after the first, which
    it cut short past that window's first step."""
    start = 0
    for i, (m, _, end) in enumerate(seen):
        if start + end == node:
            return i > 0 and 1 < end < m
        start += end
    return False


class TestChunkedWalk:
    """The windowed walk gives the reference walk's columns and bracket,
    bit for bit, on walks that span several windows."""

    @pytest.mark.parametrize("fixed", [True, False])
    @pytest.mark.parametrize("p, family, a", [
        (ProblemParams(2, 1, 0.0), "const", 1.0),
        (ProblemParams(3, 2, 0.4), "pow", 0.5),
        (ProblemParams(5, 3, 1.1), "custom", 0.7),
        (ProblemParams(3, 1, -0.3), "exp", -0.5),
    ])
    def test_walks_spanning_several_chunks(self, p, family, a, fixed,
                                           windows):
        got, want = both_walks(p, SOURCES[family], a, 1.5, 2e-4, fixed)
        assert len(windows) >= 4
        # each sweep after the first settles at least one more node, so a
        # window of m nodes returns within m sweeps
        assert all(sweeps <= m for m, sweeps, _ in windows)
        assert_same_walk(got, want)

    def test_halving_in_the_middle_of_a_chunk(self, windows):
        # Liouville, exp(phi) with n = 2: blow-up at sqrt(8)
        args = (ProblemParams(2, 1, 0.0), Nonlinearity.exponential(1.0),
                0.0, 4.0, 5e-4, False, 1e8)
        got, want = both_walks(*args)
        steps = np.diff(want[0][0])
        halved = int(np.argmax(steps < 0.5 * steps[0]))
        assert cut_inside_a_later_window(windows, halved)
        assert want[1] is not None
        assert_same_walk(got, want)

    def test_clamped_last_step(self):
        h = 1e-3
        got, want = both_walks(ProblemParams(4, 2, 0.3), SOURCES["const"],
                               0.2, 1.3004, h, False)
        r = want[0][0]
        assert r[-1] == 1.3004 and 0 < r[-1] - r[-2] < 0.5 * h
        assert_same_walk(got, want)

    def test_cap_crossing_in_the_middle_of_a_chunk(self, windows):
        args = (ProblemParams(3, 2, 0.5), SOURCES["exp"], 0.0, 3.0, 1e-3,
                False, 5.0)
        got, want = both_walks(*args)
        crossing = len(want[0][0]) - 1
        assert want[0][1][-1] > 5.0
        assert cut_inside_a_later_window(windows, crossing)
        assert_same_walk(got, want)

    def test_overflow_in_the_middle_of_a_chunk(self, windows):
        args = (ProblemParams(2, 1, 0.0), Nonlinearity.exponential(1.0),
                0.0, 4.0, 1e-3, True)
        got, want = both_walks(*args)
        dphi = want[0][2]
        assert not dphi[-1] < math.inf
        assert cut_inside_a_later_window(windows, len(dphi) - 1)
        assert_same_walk(got, want)

    def test_stop_on_the_first_step_of_a_window(self, windows):
        # the halvings before the last window leave a step that crosses
        # the cap at once
        args = (ProblemParams(2, 1, 0.0), Nonlinearity.exponential(1.0),
                0.0, 4.0, 2e-3, False, 1e8)
        got, want = both_walks(*args)
        assert want[1] is not None
        assert windows[-1][2] == 1
        assert_same_walk(got, want)

    @pytest.mark.parametrize("p, a, r_end, h", [
        (ProblemParams(3, 1, 0.0), -2.0, 200.0, 1e-3),
        (ProblemParams(3, 1, 0.5), 0.0, 60.0, 1e-3),
        (ProblemParams(3, 1, 0.5), 0.0, 60.0, 5e-4),
    ])
    def test_blowup_at_the_resolution_of_r(self, p, a, r_end, h):
        # the step halves until it no longer moves r (first case) or falls
        # below h * 2^-40, an ulp or two of r: the walk ends there
        got, want = both_walks(p, Nonlinearity.exponential(3.0), a, r_end, h,
                               False, 30.0)
        lo, hi = want[1]
        assert lo < hi <= math.nextafter(math.nextafter(lo, r_end), r_end)
        assert_same_walk(got, want)

    def test_window_that_needs_many_sweeps(self, windows):
        # steep exp with k >= 2 and mu > 0, halving up to its blow-up: 100
        # full sweeps when a window still unsettled after 16 sweeps was cut
        # at its last settled node, 92 with every window swept to the end
        got, want = both_walks(ProblemParams(3, 2, 1.0),
                               Nonlinearity.exponential(3.0), 0.0, 2.0, 1e-4,
                               False, 1e8)
        assert all(sweeps <= m for m, sweeps, _ in windows)
        assert sum(sweeps for _, sweeps, _ in windows) <= 92
        assert_same_walk(got, want)

    @pytest.mark.parametrize("fixed", [True, False])
    def test_custom_source_never_sees_a_non_finite_argument(self, fixed):
        def square(t):
            if not math.isfinite(t):
                raise AssertionError(f"f evaluated at {t}")
            return t * t if t > 0 else 0.0

        f = Nonlinearity.custom(square)
        got, want = both_walks(ProblemParams(2, 1, 0.0), f, 1.0, 8.0, 1e-3,
                               fixed)
        if fixed:
            assert not want[0][2][-1] < math.inf
        else:
            assert want[1] is not None
        assert_same_walk(got, want)

    @pytest.mark.parametrize("fixed", [True, False])
    def test_nan_integral_gives_infinite_slope(self, fixed):
        # past s = 90, n mu s overflows, and log G = inf + k log f(-1) is
        # nan: the integral turns nan and phi' must read +inf
        got, want = both_walks(ProblemParams(2, 1, 1e306), SOURCES["pow"],
                               -1.0, 200.0, 10.0, fixed)
        assert math.isnan(want[0][3][-1]) and want[0][2][-1] == math.inf
        assert_same_walk(got, want)

    @pytest.mark.parametrize("n, mu, c, r_end, m", [
        (3, -1.75, 300.0, 336.0, 10), (2, -1.0238, 1.1168, 709.356, 100)])
    def test_phi_overflows_before_its_slope(self, n, mu, c, r_end, m):
        # mu < 0 scales phi' by e^(-n mu s): a finite slope carries phi past
        # DBL_MAX, where G is +inf and f is not evaluated
        got, want = both_walks(ProblemParams(n, 1, mu),
                               Nonlinearity.constant(c), 0.0, r_end,
                               r_end / m, True)
        phi, dphi = want[0][1], want[0][2]
        assert phi[-1] == math.inf and dphi[-2] < math.inf
        assert_same_walk(got, want)

    @pytest.mark.parametrize("fixed", [True, False])
    @pytest.mark.parametrize("f, a, turn", [
        (Nonlinearity.exponential(0.0), -0.5, 0.0),  # log f -0.0, then 0.0
        (Nonlinearity.power_cutoff(0.0), 0.5, 1.0),  # -0.0 below 1, then 0.0
        (Nonlinearity.custom(lambda t: 2.0 if t < 3 else t), 0.5, 3.0),
        (SOURCES["const"], 0.5, 1.0),  # log f never changes
    ])
    def test_flat_log_f(self, f, a, turn, fixed, windows):
        # a window settles where the log f that a sweep read comes back
        # bitwise unchanged, which happens before phi stops moving where
        # log f is flat; phi passes `turn`, where log f changes, if at all
        got, want = both_walks(ProblemParams(3, 1, 0.2), f, a, 4.0, 2e-3,
                               fixed)
        assert want[0][1][0] < turn < want[0][1][-1]
        assert_same_walk(got, want)
        if f.family == "const":
            assert all(sweeps == 1 for _, sweeps, _ in windows)

    def test_full_sweeps_of_a_growing_walk(self, windows):
        # the growth-rate first guess and the growth-capped windows: 316
        # full sweeps with a frozen-slope guess and phi as the fixed-point
        # test, 215 with 32-node first windows, 190 with every window sized
        # by its growth span
        solver.euler_break_line(ProblemParams(2, 1, 0),
                                Nonlinearity.power_cutoff(1.0), 1.0, 50, 2e-3)
        assert sum(sweeps for _, sweeps, _ in windows) <= 200

    def test_window_length_follows_halvings(self, windows):
        # computing node terms for far more nodes than the walks keep was
        # the cost of restarting every window at full length after a halving
        kept = []
        walk = solver._walk

        def counting(*args, **kwargs):
            columns, bracket = walk(*args, **kwargs)
            kept.append(len(columns[0]) - 1)
            return columns, bracket

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_walk", counting)
            report = detect_blowup(ProblemParams(4, 4, 0),
                                   Nonlinearity.power_cutoff(2.5), 0.5,
                                   r_max=5, h0=1e-3)
        assert report.status == "finite_blowup" and len(kept) == 2
        computed = sum(m for m, _, _ in windows)
        assert computed <= 1.5 * sum(kept)
        # 344 full sweeps with 32-node windows at first and after each
        # halving, 314 with them after each halving only, 298 with none,
        # 264 with no window cut after 16 sweeps
        assert sum(sweeps for _, sweeps, _ in windows) <= 270
        assert all(_WINDOW_MIN <= m <= _WINDOW_MAX
                   for m, _, end in windows[:-1] if end == m)

    @given(st.sampled_from([(2, 1), (3, 1), (3, 2), (4, 4), (5, 3), (6, 2)]),
           st.floats(min_value=-0.5, max_value=1.5),
           st.sampled_from(sorted(SOURCES)),
           st.floats(min_value=-1, max_value=2),
           st.floats(min_value=0.2, max_value=4),
           st.integers(min_value=1, max_value=3000),
           st.sampled_from([math.inf, 1e8, 30.0]), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_random_walks(self, nk, mu, family, a, r_end, m, phi_cap, fixed):
        n, k = nk
        p = ProblemParams(n, k, mu if k == 1 else abs(mu))
        got, want = both_walks(p, SOURCES[family], a, r_end, r_end / m,
                               fixed, phi_cap)
        assert_same_walk(got, want)


def float_path(fn, *args):
    """fn(*args) on floats, asserting that no RuntimeWarning escapes."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert type(out) is float
    return out


def array_path(fn, *args):
    """Element 0 of fn on length-2 arrays whose first entries are args."""
    with np.errstate(all="ignore"):
        return fn(*(np.array([x, 1.0]) for x in args))[0]


class TestReferenceWalk:
    """The reference walk's scalar terms are those of the array layers."""

    # the examples are arguments where math.log differs from numpy's log in
    # the last bit, by enough to change the result
    @given(st.sampled_from(sorted(SOURCES)),
           st.floats(min_value=-800, max_value=800))
    @example("pow", 1.006146274048984)
    @example("custom", 1.006146274048984)
    @settings(max_examples=300, deadline=None)
    def test_log_eval(self, family, t):
        f = SOURCES[family]
        assert float_path(float_log(f), t) == array_path(f.log_eval, t)

    def test_overflow_threshold(self):
        # numpy's exp is finite at the reference walk's threshold,
        # log(DBL_MAX), and overflows one ulp above
        with np.errstate(over="ignore"):
            assert np.exp(LOG_DBL_MAX) < math.inf
            assert np.exp(np.nextafter(LOG_DBL_MAX, 800.0)) == math.inf
