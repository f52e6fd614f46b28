"""The chunked break-line walk against a per-step reference walk."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hessian_radial import Nonlinearity, ProblemParams, binom
from hessian_radial.radial import _smooth_factor
from hessian_radial.solver import (_LOG_DBL_MAX, _WALK_CHUNK, _uniform_grid,
                                   _walk)

SOURCES = {
    "const": Nonlinearity.constant(1.7),
    "exp": Nonlinearity.exponential(1.3),
    "pow": Nonlinearity.power_cutoff(2.5),
    "custom": Nonlinearity.custom(lambda t: t * t if t > 0 else 0.0),
}


def reference_walk(p, f, a, r_end, h, nodes=None, phi_cap=math.inf):
    """The walk one step at a time, every term formed at its step: the
    cell weights by the Horner loop of solver._cell_weights, G and phi' in
    the evaluation order of radial._smooth_factor and dphi_from_integral.
    `nodes` is a list of floats."""
    n, k, mu = p.n, p.k, p.mu
    n_mu, k_n, one_k, nn1 = n * mu, k - n, 1.0 - k, n * (n + 1)
    coefs = [(float(n - i), float(i + 1)) for i in range(n)]
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


def both_walks(p, f, a, r_end, h, fixed, phi_cap=math.inf):
    """(chunked walk, reference walk) on the same problem."""
    if fixed:
        grid = _uniform_grid(r_end, h)
        return (_walk(p, f, a, r_end, h, nodes=grid, phi_cap=phi_cap),
                reference_walk(p, f, a, r_end, h, nodes=grid.tolist(),
                               phi_cap=phi_cap))
    return (_walk(p, f, a, r_end, h, phi_cap=phi_cap),
            reference_walk(p, f, a, r_end, h, phi_cap=phi_cap))


def assert_same_walk(got, want):
    (got_cols, got_bracket), (want_cols, want_bracket) = got, want
    assert got_cols == want_cols
    assert got_bracket == want_bracket


def mid_chunk(i):
    """Step i (from 0) is past the first chunk and not a chunk's first."""
    return i > _WALK_CHUNK and i % _WALK_CHUNK != 0


class TestChunkedWalk:
    """The chunked walk gives the reference walk's columns and bracket
    (==, never approx) on walks that span several chunks."""

    @pytest.mark.parametrize("fixed", [True, False])
    @pytest.mark.parametrize("p, family, a", [
        (ProblemParams(2, 1, 0.0), "const", 1.0),
        (ProblemParams(3, 2, 0.4), "pow", 0.5),
        (ProblemParams(5, 3, 1.1), "custom", 0.7),
        (ProblemParams(3, 1, -0.3), "exp", -0.5),
    ])
    def test_walks_spanning_several_chunks(self, p, family, a, fixed):
        got, want = both_walks(p, SOURCES[family], a, 1.5, 1e-3, fixed)
        assert len(want[0][0]) > 2 * _WALK_CHUNK + 1
        assert_same_walk(got, want)

    def test_halving_in_the_middle_of_a_chunk(self):
        # Liouville, exp(phi) with n = 2: blow-up at sqrt(8)
        args = (ProblemParams(2, 1, 0.0), Nonlinearity.exponential(1.0),
                0.0, 4.0, 2e-3, False, 1e8)
        got, want = both_walks(*args)
        steps = np.diff(want[0][0])
        halved = int(np.argmax(steps < 0.5 * steps[0]))
        assert 0 < halved and mid_chunk(halved)
        assert want[1] is not None
        assert_same_walk(got, want)

    def test_clamped_last_step(self):
        h = 1e-3
        got, want = both_walks(ProblemParams(4, 2, 0.3), SOURCES["const"],
                               0.2, 1.3004, h, False)
        r = want[0][0]
        assert r[-1] == 1.3004 and 0 < r[-1] - r[-2] < 0.5 * h
        assert_same_walk(got, want)

    def test_cap_crossing_in_the_middle_of_a_chunk(self):
        args = (ProblemParams(3, 2, 0.5), SOURCES["exp"], 0.0, 3.0, 1e-3,
                False, 5.0)
        got, want = both_walks(*args)
        assert want[0][1][-1] > 5.0 and mid_chunk(len(want[0][0]) - 2)
        assert_same_walk(got, want)

    def test_overflow_in_the_middle_of_a_chunk(self):
        args = (ProblemParams(2, 1, 0.0), Nonlinearity.exponential(1.0),
                0.0, 4.0, 1e-3, True)
        got, want = both_walks(*args)
        dphi = want[0][2]
        assert not dphi[-1] < math.inf and mid_chunk(len(dphi) - 2)
        assert_same_walk(got, want)

    @given(st.sampled_from([(2, 1), (3, 1), (3, 2), (4, 4), (5, 3), (6, 2)]),
           st.floats(min_value=-0.5, max_value=1.5),
           st.sampled_from(sorted(SOURCES)),
           st.floats(min_value=-1, max_value=2),
           st.floats(min_value=0.2, max_value=4),
           st.integers(min_value=1, max_value=3 * _WALK_CHUNK),
           st.sampled_from([math.inf, 1e8, 30.0]), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_random_walks(self, nk, mu, family, a, r_end, m, phi_cap, fixed):
        n, k = nk
        p = ProblemParams(n, k, mu if k == 1 else abs(mu))
        got, want = both_walks(p, SOURCES[family], a, r_end, r_end / m,
                               fixed, phi_cap)
        assert_same_walk(got, want)
