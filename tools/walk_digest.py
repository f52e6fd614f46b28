"""Digest the break-line walks and Picard solves of one source tree.

    python tools/walk_digest.py --src DIR [--cases N] [--seed S] [--verify | --ko | --sweeps]

imports `hessian_radial` from DIR (a `src/` directory) and prints one line
per case: its index, the call, and a sha256 over what the call returned --
the float64 bytes of the profile columns, the status, bracket, estimate,
notes and `truncated_at` -- or over the exception's type and message.  Run
it on two trees and diff the outputs to check that a change keeps every
walk bit for bit:

    python tools/walk_digest.py --src old/src > old.txt
    python tools/walk_digest.py --src src > new.txt
    diff old.txt new.txt

It names on stderr the tree it imports, the numpy version and whether numpy
dispatches AVX512_SKX code: the committed digests below were made with
numpy 2.4.6 on AVX-512, and numpy's exp and log may round differently in
the last bit elsewhere.

The first 300 lines are committed as `tests/data/walk_digest.txt`, which
`tests/test_tools.py` diffs against a fresh run; a change that means to
alter walks regenerates it from the repository root with

    python tools/walk_digest.py --src src --cases 300 > tests/data/walk_digest.txt

The cases come from the seed alone.  Of every ten, six are general walks
(`euler_break_line` and `detect_blowup`, all four source families, n <= 6,
caps 30, 1e4, 1e8 and inf, up to 4000 nodes), three are steep blow-ups
(`exp:1`-`exp:5` and `pow:1.5`-`pow:3`, h0 in 2^-4..2^-13, 1e-3 and 3e-3,
r_max 500) and one is a `picard_solve` on a short grid; the first N cases
of any run are those of `--cases N`.  The default 2000 cases take about
half a minute on one core.

With `--verify` the cases are `verify` CLI runs instead (n <= 14, any k,
mu and alpha in [-3, 3], A in [1e-3, 10], the default --r-max or one up to
1e150, JSON or CSV), and each digest is a sha256 over the exit code and the
bytes the CLI wrote to stdout and stderr; two trees diff the same way.
The first 300 of these lines are committed as `tests/data/verify_digest.txt`;
a change that means to alter verify reports regenerates it with

    python tools/walk_digest.py --src src --verify --cases 300 > tests/data/verify_digest.txt

With `--ko` the cases are numeric growth-integral verdicts,
`ko_classify_numeric(f, k)` at k = 1..7 for each of a run of sources that
cycles through `const`, `exp`, `pow`, custom `(1+t)^q`, scaled
`c (1+t)^q`, a source that is 0 up to some t0 and `(1+t)^q` from there
(some vanish on most of the range and are rejected) and a large `c (1+t)^q`
that overflows to inf.  Each line gives the classification, the
`exponential_decay` flag (or the exception's type and `-`) and a sha256 over
`repr` of the `KOVerdict` or over the exception's type and message.  The
first 200 of these lines are committed as `tests/data/ko_digest.txt`; a
change that means to alter numeric verdicts regenerates it with

    python tools/walk_digest.py --src src --ko --cases 200 > tests/data/ko_digest.txt

With `--sweeps` the cases are a fixed list of walks (`SWEEP_CASES`): the
six sources of the `global` benchmark workload on `euler_break_line`, one
of them on `detect_blowup`, a blow-up that halves its step many times and
a steep `exp:3` blow-up.  Each line counts what the walks did: the runs
(`_front` calls, one per step size), the log f evaluations (one per
sweep), the nodes they evaluated per node the walks kept, the `_cells`
calls and the nodes whose radius parts they formed per node kept, the
nodes kept, and the median wall time per node kept over 7 calls.  The
counts are exact and repeat; the times depend on the host.  It reads
either the walk's bare `Nonlinearity._log_kernel` or, in a tree without
one, `log_eval`, so two trees compare the same way; a tree without
`_front` prints `-` for the runs.
"""

import argparse
import contextlib
import functools
import hashlib
import importlib
import io
import math
import random
import statistics
import sys
import time

import numpy

PAIRS = [(n, k) for n in range(2, 7) for k in range(1, n + 1)]
CAPS = [30.0, 1e4, 1e8, math.inf]
STEEP_H0 = [2.0 ** -e for e in range(4, 14)] + [1e-3, 3e-3]


def square(t):
    return t * t if t > 0 else 0.0


def square_plus_half(t):
    return t * t + 0.5 if t > 0 else 0.5


def _params(rng, pairs, mu_hi):
    """(n, k, mu): any mu >= -0.5 at k = 1, mu >= 0 at k >= 2."""
    n, k = rng.choice(pairs)
    mu = rng.uniform(-0.5 if k == 1 else 0.0, mu_hi)
    return n, k, mu


def _general(rng):
    n, k, mu = _params(rng, PAIRS, 1.5)
    family = rng.choice(["const", "exp", "pow", "custom"])
    source = (family, rng.choice([square, square_plus_half])
              if family == "custom" else round(rng.uniform(0.1, 3.0), 3))
    a = rng.uniform(-1.0, 2.0)
    r_end = rng.uniform(0.2, 4.0)
    h = r_end / rng.randint(1, 4000)
    if rng.random() < 0.5:
        return "euler_break_line", (n, k, mu), source, (a, r_end, h), {}
    cap = rng.choice(CAPS)
    if not cap > a:
        cap = math.inf
    return ("detect_blowup", (n, k, mu), source, (a,),
            {"r_max": r_end, "phi_cap": cap, "h0": h})


def _steep(rng):
    n, k, mu = _params(rng, [p for p in PAIRS if p[0] <= 5], 1.0)
    if rng.random() < 0.5:
        source = ("exp", float(rng.randint(1, 5)))
    else:
        source = ("pow", rng.choice([1.5, 2.0, 2.5, 3.0]))
    a = rng.uniform(0.0, 1.0)
    return ("detect_blowup", (n, k, mu), source, (a,),
            {"r_max": 500.0, "phi_cap": rng.choice([1e4, 1e8]),
             "h0": rng.choice(STEEP_H0)})


def _picard(rng):
    n, k, mu = _params(rng, PAIRS, 1.5)
    source = (rng.choice(["const", "exp", "pow"]),
              round(rng.uniform(0.1, 2.0), 3))
    r_end = rng.uniform(0.1, 3.0)
    return ("picard_solve", (n, k, mu), source,
            (rng.uniform(-1.0, 1.0), r_end, r_end / rng.randint(1, 400)),
            {"max_iter": rng.randint(1, 60)})


def cases(seed, count):
    rng = random.Random(seed)
    kinds = [_general] * 6 + [_steep] * 3 + [_picard]
    return [kinds[i % 10](rng) for i in range(count)]


def _source(hr, family, param):
    if family == "custom":
        return hr.Nonlinearity.custom(param, label=param.__name__)
    return {"const": hr.Nonlinearity.constant,
            "exp": hr.Nonlinearity.exponential,
            "pow": hr.Nonlinearity.power_cutoff}[family](param)


def describe(case):
    name, (n, k, mu), (family, param), args, kwargs = case
    source = param.__name__ if family == "custom" else f"{family}:{param!r}"
    words = [f"ProblemParams({n}, {k}, {mu!r})", source]
    words += [repr(x) for x in args]
    words += [f"{key}={value!r}" for key, value in kwargs.items()]
    return f"{name}({', '.join(words)})"


def digest(hr, case):
    name, params, (family, param), args, kwargs = case
    call = getattr(hr, name)
    sha = hashlib.sha256()
    try:
        out = call(hr.ProblemParams(*params), _source(hr, family, param),
                   *args, **kwargs)
    except Exception as exc:  # the exception is part of the outcome
        sha.update(f"{type(exc).__name__}: {exc}".encode())
        return sha.hexdigest()
    if isinstance(out, hr.BlowupReport):
        fields = (out.status, out.bracket, out.r_estimate, out.r_fail,
                  out.notes)
        sha.update(repr(fields).encode())
        out = out.profile
    if out is not None:
        for column in (out.grid, out.phi, out.dphi, out.volterra):
            sha.update(column.astype("<f8").tobytes())
        sha.update(repr(out.truncated_at).encode())
    return sha.hexdigest()


def verify_cases(seed, count):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(2, 14)
        argv = ["verify", "--n", str(n), "--k", str(rng.randint(1, n)),
                "--mu", repr(rng.uniform(-3.0, 3.0)),
                "--A", repr(10.0 ** rng.uniform(-3.0, 1.0)),
                "--alpha", repr(rng.uniform(-3.0, 3.0)),
                "--format", rng.choice(["json", "csv"])]
        if rng.random() < 0.5:
            argv += ["--r-max", repr(10.0 ** rng.uniform(-2.0, 150.0))]
        out.append(argv)
    return out


def verify_digest(cli, argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return hashlib.sha256(f"{code}\n{stdout.getvalue()}\n{stderr.getvalue()}"
                          .encode()).hexdigest()


class Power:
    """f(t) = c (1+t)^q, 0 for t < t0: a custom source with a readable
    label."""

    def __init__(self, q, c=1.0, t0=-math.inf):
        self.q, self.c, self.t0 = q, c, t0

    def __call__(self, t):
        return 0.0 if t < self.t0 else self.c * (1.0 + t) ** self.q

    def __repr__(self):
        words = f"(1+t)**{self.q!r}"
        if self.c != 1.0:
            words = f"{self.c!r}*{words}"
        if self.t0 > -math.inf:
            words = f"0 if t < {self.t0!r} else {words}"
        return words


def _ko_source(rng, kind):
    q = round(rng.uniform(0.0, 3.0), 3)
    if kind == "const":
        return "const", 10.0 ** round(rng.uniform(-150.0, 150.0), 1)
    if kind == "exp":
        return "exp", rng.choice([0.0, round(rng.uniform(0.0, 3.0), 3)])
    if kind == "pow":
        return "pow", rng.choice([q, float(rng.randint(4, 40))])
    if kind == "custom":
        return "custom", Power(q)
    if kind == "scaled":
        return "custom", Power(q, 10.0 ** round(rng.uniform(-100.0, 100.0), 1))
    if kind == "late":
        return "custom", Power(q, t0=round(10.0 ** rng.uniform(0.0, 5.5), 3))
    # 1e280..1e307 (1+t)^q, q in [1, 4]: past the largest float before 1e6
    return "custom", Power(round(rng.uniform(1.0, 4.0), 3),
                           10.0 ** round(rng.uniform(280.0, 307.0), 1))


KO_KINDS = ["const", "exp", "pow", "custom", "scaled", "late", "overflow"]


def ko_cases(seed, count):
    rng = random.Random(seed)
    sources = [_ko_source(rng, KO_KINDS[i % len(KO_KINDS)])
               for i in range((count + 6) // 7)]
    return [(sources[i // 7], i % 7 + 1) for i in range(count)]


def ko_line(hr, case):
    (family, param), k = case
    if family == "custom":
        label = repr(param)
        f = hr.Nonlinearity.custom(param, label=label)
    else:
        label, f = f"{family}:{param!r}", _source(hr, family, param)
    call = f"ko_classify_numeric({label}, {k})"
    sha = hashlib.sha256()
    try:
        verdict = hr.ko_classify_numeric(f, k)
    except Exception as exc:  # the exception is part of the outcome
        sha.update(f"{type(exc).__name__}: {exc}".encode())
        return f"{call} {type(exc).__name__} - {sha.hexdigest()}"
    sha.update(repr(verdict).encode())
    return (f"{call} {verdict.classification} {verdict.exponential_decay} "
            f"{sha.hexdigest()}")


SWEEP_CASES = [
    *[("euler_break_line", (n, k, 0.0), ("const", 1.0), (1.0, 50.0, 2e-3),
       {}) for n, k in [(2, 1), (3, 2), (4, 4), (5, 3)]],
    *[("euler_break_line", (n, 1, 0.0), ("pow", 1.0), (1.0, 50.0, 2e-3), {})
      for n in (2, 3)],
    ("detect_blowup", (2, 1, 0.0), ("pow", 1.0), (1.0,),
     {"r_max": 50.0, "phi_cap": 1e30, "h0": 2e-3}),
    ("detect_blowup", (4, 4, 0.0), ("pow", 2.5), (0.5,),
     {"r_max": 5.0, "h0": 1e-3}),
    ("detect_blowup", (3, 2, 1.0), ("exp", 3.0), (0.0,),
     {"r_max": 2.0, "h0": 1e-4}),
]


@contextlib.contextmanager
def counting(hr, counts):
    """While open, add to `counts` the `_front` runs, the walk's log f
    evaluations and the nodes they evaluate, the `_cells` calls and the
    nodes they form, and the nodes `_walk` keeps."""
    solver = importlib.import_module("hessian_radial.solver")
    cls = hr.Nonlinearity
    cells, walk = solver._cells, solver._walk
    front = getattr(solver, "_front", None)

    def counted_log(log):
        def counted(t):
            counts["log_f"] += 1
            counts["nodes"] += len(t)
            return log(t)
        return counted

    def counted_cells(p, s):
        counts["cells"] += 1
        counts["formed"] += len(s) - 1
        return cells(p, s)

    def counted_front(*args, **kwargs):
        counts["runs"] += 1
        return front(*args, **kwargs)

    def counted_walk(*args, **kwargs):
        columns, bracket = walk(*args, **kwargs)
        counts["kept"] += columns.shape[1] - 1
        return columns, bracket

    kernel = vars(cls).get("_log_kernel")
    if kernel is not None:
        patched = functools.cached_property(
            lambda self: counted_log(kernel.func(self)))
        patched.__set_name__(cls, "_log_kernel")
        restore = ("_log_kernel", kernel)
    else:
        log_eval = cls.log_eval
        patched = lambda self, t: counted_log(  # noqa: E731
            lambda u: log_eval(self, u))(t)
        restore = ("log_eval", log_eval)
    setattr(cls, restore[0], patched)
    solver._cells, solver._walk = counted_cells, counted_walk
    if front is not None:
        solver._front = counted_front
    try:
        yield counts
    finally:
        setattr(cls, *restore)
        solver._cells, solver._walk = cells, walk
        if front is not None:
            solver._front = front


def sweeps_line(hr, case, repeats=7):
    name, params, (family, param), args, kwargs = case
    call = getattr(hr, name)

    def run():
        return call(hr.ProblemParams(*params), _source(hr, family, param),
                    *args, **kwargs)
    run()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    counts = dict.fromkeys(
        ("runs", "log_f", "nodes", "cells", "formed", "kept"), 0)
    with counting(hr, counts):
        run()
    kept = counts["kept"]
    return (f"{describe(case)} runs {counts['runs'] or '-'} "
            f"log_f {counts['log_f']} nodes_per_kept "
            f"{counts['nodes'] / kept:.3f} cells {counts['cells']} "
            f"formed_per_kept {counts['formed'] / kept:.3f} "
            f"kept {kept} "
            f"us_per_kept {statistics.median(times) / kept * 1e6:.4f}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True,
                        help="directory that holds the hessian_radial package")
    parser.add_argument("--cases", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--verify", action="store_true",
                      help="digest verify CLI runs instead of walks")
    mode.add_argument("--ko", action="store_true",
                      help="digest numeric growth-integral verdicts instead")
    mode.add_argument("--sweeps", action="store_true",
                      help="count the sweeps of SWEEP_CASES' walks instead")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    hr = importlib.import_module("hessian_radial")
    avx512 = numpy._core._multiarray_umath.__cpu_features__.get("AVX512_SKX")
    print(f"hessian_radial from {hr.__file__}; numpy {numpy.__version__}, "
          f"AVX512_SKX {avx512}", file=sys.stderr)
    if args.verify:
        cli = importlib.import_module("hessian_radial.cli")
        for i, case in enumerate(verify_cases(args.seed, args.cases)):
            print(i, " ".join(case), verify_digest(cli, case), flush=True)
        return
    if args.ko:
        for i, case in enumerate(ko_cases(args.seed, args.cases)):
            print(i, ko_line(hr, case), flush=True)
        return
    if args.sweeps:
        for i, case in enumerate(SWEEP_CASES):
            print(i, sweeps_line(hr, case), flush=True)
        return
    for i, case in enumerate(cases(args.seed, args.cases)):
        print(i, describe(case), digest(hr, case), flush=True)


if __name__ == "__main__":
    main()
