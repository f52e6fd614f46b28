"""Digest the break-line walks and Picard solves of one source tree.

    python tools/walk_digest.py --src DIR [--cases N] [--seed S] [--verify]

imports `hessian_radial` from DIR (a `src/` directory) and prints one line
per case: its index, the call, and a sha256 over what the call returned --
the float64 bytes of the profile columns, the status, bracket, estimate,
notes and `truncated_at` -- or over the exception's type and message.  Run
it on two trees and diff the outputs to check that a change keeps every
walk bit for bit:

    python tools/walk_digest.py --src old/src > old.txt
    python tools/walk_digest.py --src src > new.txt
    diff old.txt new.txt

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
"""

import argparse
import contextlib
import hashlib
import importlib
import io
import math
import random
import sys

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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True,
                        help="directory that holds the hessian_radial package")
    parser.add_argument("--cases", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--verify", action="store_true",
                        help="digest verify CLI runs instead of walks")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    hr = importlib.import_module("hessian_radial")
    print(f"hessian_radial from {hr.__file__}", file=sys.stderr)
    if args.verify:
        cli = importlib.import_module("hessian_radial.cli")
        for i, case in enumerate(verify_cases(args.seed, args.cases)):
            print(i, " ".join(case), verify_digest(cli, case), flush=True)
        return
    for i, case in enumerate(cases(args.seed, args.cases)):
        print(i, describe(case), digest(hr, case), flush=True)


if __name__ == "__main__":
    main()
