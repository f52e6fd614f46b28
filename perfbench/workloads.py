"""Benchmark workloads: inputs drawn from a seed, the operations that run
them through `hessian_radial`, and the independent oracles that check them.

Every workload is a list of rounds and a round is a fixed list of operation
kinds whose parameters the seed draws; run.py runs whole rounds, so the
mix of kinds, which is what sets the latency distribution, is the same in
every run and for every seed.  Operations look the library up through its
modules at call time, so the traced run sees the wrapped functions.

The oracles are closed forms, scaling laws and scipy, never the library
itself.  A failed check is recorded and counted, and never stops the run.
"""

import hashlib
import json
import math
import random
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from hessian_radial import cli, keller_osserman, nonlinearity, radial, solver

ROUNDS = 4
LIOUVILLE_R0 = math.sqrt(8.0)
PAIRS = [(2, 1), (3, 2), (4, 4), (5, 3)]

# Tolerances sit several times above the errors of the parent code, so that
# a check fails on a broken result, not on a change of discretisation order.
SWEEP_R_REL_TOL = 1e-2
GLOBAL_CONST_REL_TOL = 5e-3
GLOBAL_POW_REL_TOL = 0.1
SOLVE_REL_TOL = 1e-6
KO_EXPONENT_TOL = 0.02
R_MATCH_TOL = 1e-9


class Op(NamedTuple):
    """One operation: `call()` runs the program, `check(result)` returns the
    oracle failures.  CLI operations write to `out`."""

    kind: str
    key: str
    call: Callable
    check: Callable
    out: Path | None = None


class Workload:
    """Base: holds the rounds, the accuracy aggregates and the fingerprints."""

    name = ""
    why = ""
    accuracy = ()  # names of the accuracy metrics this workload reports

    def __init__(self, seed, tmp):
        self.rng = random.Random(seed)
        self.tmp = Path(tmp)
        self.fingerprints = {}
        self.acc = {}
        self.rounds = [self.make_round(i) for i in range(ROUNDS)]

    def make_round(self, index):
        raise NotImplementedError

    def prepare(self):
        """Oracle set-up that the inputs do not need (e.g. scipy imports)."""

    def cli_op(self, kind, argv, check, suffix):
        out = self.tmp / f"{self.name}-{kind}.{suffix}"
        key = " ".join(argv)
        argv = argv + ["--out", str(out)]
        return Op(kind, key, lambda: cli.main(argv),
                  lambda rc: check(rc, out), out)

    def fingerprint(self, op):
        """sha256 of a CLI op's output file; identical inputs must give
        identical bytes.  Hashed in blocks: a whole CSV read into memory
        would show in peak_rss_mb."""
        with open(op.out, "rb") as fh:
            digest = hashlib.file_digest(fh, "sha256").hexdigest()
        seen = self.fingerprints.setdefault(op.key, digest)
        return [] if seen == digest else [f"output changed for {op.key}"]

    def note_max(self, name, value):
        self.acc[name] = max(self.acc.get(name, 0.0), float(value))

    def accuracy_metrics(self):
        return {name: (self.acc.get(name, 0.0), "1") for name in self.accuracy}


def _fmt(x):
    return repr(float(x))


def _rel_err(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    scale = np.abs(want)
    mask = scale > 0
    if not np.all(np.isfinite(got)):
        return math.inf
    return float(np.max(np.abs(got[mask] - want[mask]) / scale[mask],
                        initial=0.0))


def _const_closed_form(n, k, a, r):
    return a + np.asarray(r) ** 2 / (2.0 * math.comb(n, k) ** (1.0 / k))


def _blowup_radius_mu0(n, k, cap=40.0):
    """Blow-up radius of the exp:1 problem at mu = 0, a = 0 by scipy DOP853
    on the (phi, integral) system, stopped where phi reaches `cap`."""
    from scipy.integrate import solve_ivp
    c = k / math.comb(n - 1, k - 1)

    def rhs(r, y):
        phi, integral = y
        return [(max(integral, 0.0) * r ** (k - n)) ** (1.0 / k),
                c * r ** (n - 1) * math.exp(k * phi)]

    r0 = 1e-6
    y0 = [r0 * r0 / (2.0 * math.comb(n, k) ** (1.0 / k)), c * r0 ** n / n]

    def hit_cap(r, y):
        return y[0] - cap
    hit_cap.terminal = True
    sol = solve_ivp(rhs, (r0, 10.0), y0, method="DOP853", rtol=1e-12,
                    atol=1e-14, events=hit_cap)
    return float(sol.t_events[0][0])


class Sweep(Workload):
    name = "sweep"
    why = ("CLI sweeps of exp:1 tuples that all blow up: two adaptive walks "
           "with step halving and a Richardson step per tuple, run through "
           "the CLI thread pool")
    accuracy = ("r_rel_err_max", "bracket_miss_ratio")

    def prepare(self):
        # R(a) = R(0) e^(-a/2) at mu = 0: Liouville closed form for (2,1),
        # scipy for R(0) of (3,2); scipy's import shows in this workload's
        # peak_rss_mb, which no bound in BENCHMARK.json gates
        self.r0 = {(2, 1): LIOUVILLE_R0, (3, 2): _blowup_radius_mu0(3, 2)}
        self.known_rows = 0
        self.bracket_misses = 0

    def make_round(self, index):
        rng = self.rng
        ops = []
        for n, k in ((2, 1), (3, 2)):
            mu_hi = rng.uniform(0.2, 0.3)
            a_lo, a_hi = rng.uniform(0.0, 0.2), rng.uniform(1.8, 2.0)
            argv = ["sweep", "--n", str(n), "--k", str(k),
                    "--mu", f"0:{_fmt(mu_hi)}:2", "--f", "exp:1",
                    "--a", f"{_fmt(a_lo)}:{_fmt(a_hi)}:3",
                    "--r-max", "20", "--h", "0.001"]
            want = sorted((mu, a) for mu in (0.0, mu_hi)
                          for a in np.linspace(a_lo, a_hi, 3))
            ops.append(self.cli_op(
                "sweep", argv,
                lambda rc, out, n=n, k=k, want=want:
                    self._check(rc, out, n, k, want),
                "csv"))
        return ops

    def _check(self, rc, out, n, k, want):
        errors = [] if rc == 0 else [f"exit code {rc}"]
        lines = out.read_text().splitlines()
        if lines[0] != "n,k,mu,f,a,status,r_estimate,r_lo,r_hi":
            return errors + [f"bad header {lines[0]!r}"]
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != len(want):
            return errors + [f"{len(rows)} rows, expected {len(want)}"]
        for row, (mu_want, a_want) in zip(rows, want):
            mu, a = float(row[2]), float(row[4])
            if (int(row[0]), int(row[1])) != (n, k) or row[3] != "exp:1" \
                    or abs(mu - mu_want) > 1e-12 or abs(a - a_want) > 1e-12:
                errors.append(f"row {row[:5]} is not tuple {(mu_want, a_want)}")
                continue
            if row[5] != "finite_blowup":
                errors.append(f"status {row[5]} at mu={mu}, a={a}")
                continue
            est, lo, hi = float(row[6]), float(row[7]), float(row[8])
            if not lo < est <= hi:
                errors.append(f"estimate {est} outside ({lo}, {hi}]")
            if mu == 0.0:
                r_true = self.r0[(n, k)] * math.exp(-a / 2.0)
                err = abs(est - r_true) / r_true
                self.note_max("r_rel_err_max", err)
                self.known_rows += 1
                self.bracket_misses += not lo <= r_true <= hi
                self.acc["bracket_miss_ratio"] = \
                    self.bracket_misses / self.known_rows
                if err > SWEEP_R_REL_TOL:
                    errors.append(f"R rel err {err:.3g} at n={n}, k={k}, "
                                  f"a={a}")
        return errors


class Global(Workload):
    name = "global"
    why = ("long fixed-step walks to r_max 50 on sources with global "
           "solutions: tens of thousands of steps, no halving, one walk, "
           "large profiles; the pool is bypassed")
    accuracy = ("phi_rel_err_max",)

    def make_round(self, index):
        rng = self.rng
        # (n, k, f spec, phi_cap); pow:1 needs a cap above the true phi(50)
        cases = [(n, k, "const:1", 1e8) for n, k in PAIRS]
        cases += [(2, 1, "pow:1", 1e30), (3, 1, "pow:1", 1e30)]
        ops = []
        for i, (n, k, spec, cap) in enumerate(cases):
            # a > 0 keeps the relative error defined at the origin
            a = rng.uniform(0.5, 1.5)
            walker = "detect_blowup" if (i + index) % 2 == 0 \
                else "euler_break_line"
            ops.append(self._op(walker, n, k, spec, a, cap))
        return ops

    def _op(self, walker, n, k, spec, a, cap):
        r_max, h = 50.0, 2e-3
        p = radial.ProblemParams(n, k, 0.0)
        f = nonlinearity.parse_f_spec(spec)
        if walker == "detect_blowup":
            def call():
                return solver.detect_blowup(p, f, a, r_max=r_max,
                                            phi_cap=cap, h0=h)
        else:
            def call():
                return solver.euler_break_line(p, f, a, r_max, h)
        key = f"{walker} n={n} k={k} f={spec} a={_fmt(a)} cap={cap:g}"
        return Op(walker, key, call,
                  lambda res: self._check(res, walker, n, k, spec, a, r_max))

    def _check(self, res, walker, n, k, spec, a, r_max):
        if walker == "detect_blowup":
            if res.status != "global":
                return [f"status {res.status}"]
            res = res.profile
        if res.truncated_at is not None or abs(res.grid[-1] - r_max) > 1e-9:
            return [f"profile ends at {res.grid[-1]}"]
        r = res.grid
        if spec == "const:1":
            want, tol = _const_closed_form(n, k, a, r), GLOBAL_CONST_REL_TOL
        else:
            # numpy's I0, not scipy's: the oracle must not load a module the
            # program does not, since that would show in peak_rss_mb
            want = a * np.i0(r) if n == 2 else \
                a * np.concatenate(([1.0], np.sinh(r[1:]) / r[1:]))
            tol = GLOBAL_POW_REL_TOL
        err = _rel_err(res.phi, want)
        self.note_max("phi_rel_err_max", err)
        return [] if err <= tol else [f"phi rel err {err:.3g} > {tol:g}"]


class Solve(Workload):
    name = "solve"
    why = ("CLI solves by Picard on fixed grids of 1e4-4e4 nodes written as "
           "17-digit CSV: the same layers on whole arrays, no walk")
    accuracy = ("phi_rel_err_max",)

    def make_round(self, index):
        rng = self.rng
        ops = []
        # Each input moves by 2% around fixed strata of node count (which
        # sets the CSV writer's cost) and of distance to the blow-up radius
        # (which sets the Picard iteration count), so that every seed loads
        # the program alike.
        for ratio, r_liouville, (n, k, r_const) in zip(
                (0.55, 0.7, 0.85), (1.2, 1.6, 2.0),
                ((3, 2, 1.5), (4, 4, 2.5), (5, 3, 3.5))):
            r_end = r_liouville * rng.uniform(0.98, 1.02)
            ratio *= rng.uniform(0.98, 1.02)
            # the a that puts r_end at `ratio` of R(a) = sqrt(8) e^(-a/2)
            a = 2.0 * math.log(LIOUVILLE_R0 * ratio / r_end)
            ops.append(self._op(2, 1, "exp:1", a, r_end))
            ops.append(self._op(n, k, "const:1", rng.uniform(0.0, 1.0),
                                r_const * rng.uniform(0.98, 1.02)))
        return ops

    def _op(self, n, k, spec, a, r_end):
        h = 1e-4
        argv = ["solve", "--n", str(n), "--k", str(k), "--mu", "0",
                "--f", spec, "--a", _fmt(a), "--r-end", _fmt(r_end),
                "--h", _fmt(h), "--format", "csv"]
        if spec == "exp:1":
            def exact(r):
                return a - 2.0 * np.log1p(-r * r * math.exp(a) / 8.0)
        else:
            def exact(r):
                return _const_closed_form(n, k, a, r)
        nodes = max(1, int(round(r_end / h))) + 1
        return self.cli_op(
            "solve", argv,
            lambda rc, out: self._check(rc, out, exact, nodes, r_end), "csv")

    def _check(self, rc, out, exact, nodes, r_end):
        if rc != 0:
            return [f"exit code {rc}"]
        with open(out, encoding="utf-8") as fh:
            if fh.readline() != "r,phi,dphi,volterra,defect\n":
                return ["bad CSV header"]
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        if data.shape != (nodes, 5):
            return [f"CSV shape {data.shape}, expected ({nodes}, 5)"]
        r, phi = data[:, 0], data[:, 1]
        if r[0] != 0.0 or abs(r[-1] - r_end) > R_MATCH_TOL:
            return [f"grid spans [{r[0]}, {r[-1]}], expected [0, {r_end}]"]
        err = _rel_err(phi, exact(r))
        self.note_max("phi_rel_err_max", err)
        return [] if err <= SOLVE_REL_TOL else \
            [f"phi rel err {err:.3g} > {SOLVE_REL_TOL:g}"]


def _mu0(n, k):
    return math.sqrt(k / (n * (k + 1) * math.comb(n, k) ** (1.0 / k)))


def _ko_table(n, k, mu, family, param):
    """Verdict table of the growth-integral dichotomy for built-in sources."""
    diverges = family == "const" or (family == "exp" and param == 0) \
        or (family == "pow" and param <= 1)
    classification = "diverges" if diverges else "converges"
    if k >= 2 and mu < 0:
        return classification, "not_exists"
    if diverges:
        return classification, "exists"
    return classification, "not_exists" if mu < _mu0(n, k) else "outside_theory"


class Verify(Workload):
    name = "verify"
    why = ("Gaussian verification at and just below the threshold, analytic "
           "ko verdicts and numeric ko fits on custom sources: the only "
           "load on gaussian, symmetric and keller_osserman")

    # The last three pairs cost 1.2 to 1.6 times the first six, and the three
    # ko operations of a round a seventh: with as many operations above the
    # first six as below them, the median latency sits in the middle of
    # their band.  At its lower edge, it would move further than throughput
    # whenever part of a run falls in a phase where the host is faster.
    VERIFY_PAIRS = [(2, 1), (3, 1), (3, 2), (4, 2), (4, 4), (5, 3),
                    (8, 4), (10, 5), (12, 6)]

    def make_round(self, index):
        rng = self.rng
        # Every round verifies each pair once, about half of them just below
        # the threshold, so that the rounds' costs do not depend on the seed.
        pairs = list(self.VERIFY_PAIRS)
        rng.shuffle(pairs)
        ops = [self._verify(n, k, below=i % 2 == 1)
               for i, (n, k) in enumerate(pairs)]
        ops += [self._ko(), self._ko(), self._ko_numeric()]
        rng.shuffle(ops)
        return ops

    def _verify(self, n, k, below):
        rng = self.rng
        shrink = rng.uniform(1e-3, 1e-2) if below else 0.0
        threshold = 0.5 * math.comb(n, k) ** (-1.0 / k)
        argv = ["verify", "--n", str(n), "--k", str(k),
                "--mu", _fmt(rng.uniform(0.0, 0.5)),
                "--A", _fmt(threshold * (1.0 - shrink)),
                "--alpha", _fmt(rng.uniform(0.2, 1.0))]
        return self.cli_op("verify_below" if below else "verify_at", argv,
                           lambda rc, out: self._check_verify(rc, out,
                                                              not below),
                           "json")

    def _check_verify(self, rc, out, should_pass):
        if rc != 0:
            return [f"exit code {rc}"]
        report = json.loads(out.read_text())
        if should_pass:
            return [] if report["passed"] else \
                [f"fails at threshold, first at r={report['first_failure']}"]
        # below the threshold S_k(origin) < u(0)^(k alpha) = 1
        if report["passed"] or report["first_failure"] != 0.0:
            return [f"below threshold: passed={report['passed']}, first "
                    f"failure {report['first_failure']}, expected r=0"]
        return []

    def _ko(self):
        rng = self.rng
        k = rng.choice((1, 2, 3))
        n = rng.randint(max(k, 2), 5)
        family = rng.choice(("const", "exp", "pow"))
        param = {"const": rng.uniform(0.5, 2.0),
                 "exp": rng.choice((0.0, rng.uniform(0.5, 2.0))),
                 "pow": rng.uniform(0.0, 2.0)}[family]
        mu = rng.uniform(-0.3, 0.6)
        if abs(mu - _mu0(n, k)) < 1e-3:
            mu += 2e-3
        spec = f"{family}:{param:g}"
        want = _ko_table(n, k, mu, family, float(f"{param:g}"))
        argv = ["ko", "--k", str(k), "--f", spec, "--n", str(n),
                "--mu", _fmt(mu)]
        return self.cli_op("ko", argv,
                           lambda rc, out: self._check_ko(rc, out, want),
                           "json")

    def _check_ko(self, rc, out, want):
        if rc != 0:
            return [f"exit code {rc}"]
        payload = json.loads(out.read_text())
        got = (payload["ko"]["classification"],
               payload["existence"]["verdict"])
        return [] if got == want else [f"verdict {got}, expected {want}"]

    def _ko_numeric(self):
        rng = self.rng
        k = rng.choice((1, 2, 3))
        # f(t) = (1+t)^q: tail exponent (kq+1)/(k+1), kept off the band
        # around 1 where no numeric verdict is issued
        q = rng.choice((rng.uniform(0.2, 0.7), rng.uniform(1.4, 2.0)))
        f = nonlinearity.Nonlinearity.custom(lambda t: (1.0 + t) ** q,
                                             label=f"(1+t)^{q:g}")
        exponent = (k * q + 1.0) / (k + 1.0)

        def call():
            return keller_osserman.ko_classify_numeric(f, k)

        def check(verdict):
            want = "diverges" if q < 1 else "converges"
            errors = []
            if verdict.classification != want:
                errors.append(f"{verdict.classification}, expected {want}")
            if abs(verdict.tail_exponent - exponent) > KO_EXPONENT_TOL:
                errors.append(f"tail exponent {verdict.tail_exponent}, "
                              f"expected {exponent}")
            return errors
        return Op("ko_numeric", f"ko_numeric k={k} q={_fmt(q)}", call, check)


WORKLOADS = {cls.name: cls for cls in (Sweep, Global, Solve, Verify)}
