"""Command-line front end: solve, ko, verify, mu0 and sweep workflows.

Exit codes: 0 ok, 1 `solve` found no fixed point although the blow-up walk
stays bounded up to r_end, 2 admissibility rejection, 3 blow-up before r_end,
10 I/O failure, 64 usage error (including non-finite numbers where a finite
one is needed).  A radius (--r-end, --r-max) must keep r^(n+1), and
`verify --r-max` r^2, 4 A^2 r^2, k A r^2 and k alpha A r^2, below the
largest float; `solve` and `sweep` also need r / --h below 2^52.  A
rejected sweep tuple gets an `error` row and the sweep exits 64 after
writing every row.  Outputs are deterministic: CSV floats carry 17
significant digits; sweep rows are sorted by parameter tuple.
"""

import argparse
import contextlib
import functools
import json
import math
import re
import sys

import numpy as np

from .gaussian import default_radii, verify_subsolution
from .keller_osserman import (DIVERGES, ExistenceReport, existence_verdict,
                              ko_classify_analytic)
from .nonlinearity import parse_f_spec
from .radial import AdmissibilityError, ProblemParams
from .solver import (FINITE_BLOWUP, SCHEMA_ID, NonConvergenceError,
                     _require_walk_sizes, detect_blowup, picard_solve)

__all__ = ["main"]

EXIT_OK = 0
EXIT_ADMISSIBILITY = 2
EXIT_BLOWUP = 3
EXIT_IO = 10
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # -5e-05 and -0.5:0:2 are values (argparse < 3.13 reads only -1.5)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    # keep exit code 2 reserved for admissibility rejections
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _parse_grid(spec: str) -> np.ndarray:
    """`lo:hi:count` -> linspace(lo, hi, count); a single number -> [value]."""
    parts = spec.split(":")
    if len(parts) == 1:
        return np.array([float(parts[0])])
    if len(parts) == 3:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise ValueError(f"grid count must be >= 1 in {spec!r}")
        return np.linspace(lo, hi, count)
    raise ValueError(f"bad grid spec {spec!r}; expected value or lo:hi:count")


def _parse_f_grid(spec: str):
    """`family:param` or `family:lo:hi:count` -> list of nonlinearities."""
    parts = spec.split(":")
    if len(parts) == 2:
        return [parse_f_spec(spec)]
    if len(parts) == 4:
        family = parts[0]
        grid = _parse_grid(":".join(parts[1:]))
        # repr round-trips a float exactly, so each source runs its grid value
        return [parse_f_spec(f"{family}:{float(v)!r}") for v in grid]
    raise ValueError(f"bad f grid spec {spec!r}")


@contextlib.contextmanager
def _open_out(path: str | None):
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


# parsing leaves the parser as it was, so one tree serves every call
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hessian-radial", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(sp):
        sp.add_argument("--n", type=int, required=True, help="space dimension")
        sp.add_argument("--k", type=int, required=True, help="Hessian order")
        sp.add_argument("--mu", type=float, required=True,
                        help="gradient coefficient")

    solve = sub.add_parser("solve", help="solve the radial Cauchy problem")
    add_params(solve)
    solve.add_argument("--f", required=True, help="const:<c>|exp:<a>|pow:<q>")
    solve.add_argument("--a", type=float, required=True, help="initial value")
    solve.add_argument("--r-end", type=float, required=True)
    solve.add_argument("--h", type=float, default=1e-3)
    solve.add_argument("--tol", type=float, default=1e-10)
    solve.add_argument("--phi-cap", type=float, default=1e8)
    solve.add_argument("--out", default="-")
    solve.add_argument("--format", choices=("csv", "json"), default="csv")

    ko = sub.add_parser("ko", help="classify the growth integral")
    ko.add_argument("--k", type=int, required=True)
    ko.add_argument("--f", required=True)
    ko.add_argument("--n", type=int)
    ko.add_argument("--mu", type=float)
    ko.add_argument("--out", default="-")

    verify = sub.add_parser("verify", help="verify a Gaussian candidate")
    add_params(verify)
    verify.add_argument("--A", type=float, required=True)
    verify.add_argument("--alpha", type=float, required=True)
    verify.add_argument("--r-max", type=float, default=10.0)
    verify.add_argument("--out", default="-")
    verify.add_argument("--format", choices=("csv", "json"), default="json")

    mu0 = sub.add_parser("mu0", help="print the mu0 threshold")
    mu0.add_argument("--n", type=int, required=True)
    mu0.add_argument("--k", type=int, required=True)

    sweep = sub.add_parser("sweep", help="batch blow-up runs over grids")
    sweep.add_argument("--n", type=int, required=True)
    sweep.add_argument("--k", type=int, required=True)
    sweep.add_argument("--mu", required=True, help="value or lo:hi:count")
    sweep.add_argument("--f", required=True,
                       help="family:param or family:lo:hi:count")
    sweep.add_argument("--a", required=True, help="value or lo:hi:count")
    sweep.add_argument("--r-max", type=float, default=20.0)
    sweep.add_argument("--h", type=float, default=1e-3)
    sweep.add_argument("--phi-cap", type=float, default=1e8)
    sweep.add_argument("--out", default="-")
    return parser


def cmd_solve(args) -> int:
    p = ProblemParams(args.n, args.k, args.mu)
    f = parse_f_spec(args.f)
    try:
        profile = picard_solve(p, f, args.a, args.r_end, args.h, tol=args.tol)
    except NonConvergenceError:
        report = detect_blowup(p, f, args.a, r_max=args.r_end,
                               phi_cap=args.phi_cap, h0=args.h)
        if report.status == FINITE_BLOWUP:
            print("blow-up before r_end: "
                  + json.dumps(report.to_dict()), file=sys.stderr)
            return EXIT_BLOWUP
        print("fixed-point iteration did not converge although the solution "
              "stays bounded; retry with a larger --tol or smaller --r-end",
              file=sys.stderr)
        return 1
    with _open_out(args.out) as fh:
        if args.format == "csv":
            profile.to_csv(fh)
        else:
            profile.to_json(fh)
    return EXIT_OK


def cmd_ko(args) -> int:
    if (args.n is None) != (args.mu is None):
        print("ko: provide both --n and --mu or neither", file=sys.stderr)
        return EXIT_USAGE
    f = parse_f_spec(args.f)
    ko = ko_classify_analytic(f, args.k)
    existence = None
    if args.n is not None:
        existence = existence_verdict(ProblemParams(args.n, args.k, args.mu),
                                      f, ko)
    elif ko.classification == DIVERGES and args.k == 1:
        # existence for k = 1 holds for every mu, so no regime data is needed
        existence = ExistenceReport(
            "exists", None,
            "growth integral diverges and k = 1 admits every mu", None, None, ko)
    payload = {"schema": SCHEMA_ID, "ko": ko.to_dict(),
               "existence": existence.to_dict() if existence else None}
    with _open_out(args.out) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return EXIT_OK


_JSON_BOOL = {False: "false", True: "true"}.__getitem__
_JSON_NON_FINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}.get
# a verify report row, its five values left out
_REPORT_ROW = ['\n    {\n      "r": ', None, ',\n      "pass": ', None,
               ',\n      "margin": ', None, ',\n      "gamma_k_ok": ', None,
               ',\n      "log_domain": ', None, "\n    },"]
_CSV_ROW = "%.17g,%d,%.17g,%d\n"


def _json_floats(column) -> list[str]:
    """json's spelling of each float of a column of Python floats: repr,
    or NaN, Infinity or -Infinity where the column holds one."""
    reprs = list(map(repr, column))
    # a float sum is finite only if every term is
    if math.isfinite(sum(column)):
        return reprs
    return list(map(_JSON_NON_FINITE, reprs, reprs))


def _dump_report(fh, report) -> None:
    """`json.dump({"schema": SCHEMA_ID, **report.to_dict()}, fh, indent=2)`
    and a newline, for a verify report: json's indented encoder runs in pure
    Python, so the rows, nearly all the bytes, are one join of the row
    template repeated, with the report's columns put in its gaps."""
    head = {"schema": SCHEMA_ID, "params": report.params.to_dict(),
            "A": report.A, "alpha": report.alpha, "passed": report.passed,
            "first_failure": report.first_failure}
    rows = len(report.radii)
    parts = _REPORT_ROW * rows
    width = len(_REPORT_ROW)
    parts[1::width] = _json_floats(report.radii)
    parts[3::width] = map(_JSON_BOOL, report.passes)
    parts[5::width] = _json_floats(report.margins)
    parts[7::width] = map(_JSON_BOOL, report.gamma_k_ok)
    parts[9::width] = map(_JSON_BOOL, report.log_domain)
    if rows:
        parts[-1] = "\n    }\n  "   # no comma after the last row
    fh.write(json.dumps(head, indent=2)[:-2] + ',\n  "radii": ['  # drop "\n}"
             + "".join(parts) + "]\n}\n")


def cmd_verify(args) -> int:
    p = ProblemParams(args.n, args.k, args.mu)
    radii = default_radii(p, args.A, r_max=args.r_max)
    report = verify_subsolution(p, args.A, args.alpha, radii)
    with _open_out(args.out) as fh:
        if args.format == "json":
            _dump_report(fh, report)
        else:
            fh.write("r,pass,margin,gamma_k_ok\n")
            fh.writelines(map(_CSV_ROW.__mod__, zip(
                report.radii, report.passes, report.margins,
                report.gamma_k_ok)))
    return EXIT_OK


def cmd_mu0(args) -> int:
    print(f"{ProblemParams(args.n, args.k).mu0():.6g}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    """One `detect_blowup` row per (mu, f, a) tuple, sorted by tuple.

    --r-max and --h are checked once, before any walk; a bad value there is
    a usage error and writes no rows.  A tuple whose parameters or walk are
    rejected with ValueError gets an `error` row (empty radii) and a line on
    stderr, the other tuples still run, and the exit code is then 64.
    """
    mus = _parse_grid(args.mu)
    avals = _parse_grid(args.a)
    fs = _parse_f_grid(args.f)
    _require_walk_sizes(args.n, "r_max", args.r_max, "h0", args.h)
    tuples = sorted(
        ((float(mu), f, float(a)) for mu in mus for f in fs for a in avals),
        key=lambda t: (t[0], t[1].label, t[2]))

    rows, failed = [], False
    for mu, f, a in tuples:
        tail = ",,"
        try:
            report = detect_blowup(ProblemParams(args.n, args.k, mu), f, a,
                                   r_max=args.r_max, phi_cap=args.phi_cap,
                                   h0=args.h)
        except ValueError as exc:
            print(f"sweep: mu={mu:.17g} f={f.label} a={a:.17g}: {exc}",
                  file=sys.stderr)
            status, failed = "error", True
        else:
            status = report.status
            if status == FINITE_BLOWUP:
                lo, hi = report.bracket
                tail = f"{report.r_estimate:.17g},{lo:.17g},{hi:.17g}"
        rows.append(f"{args.n},{args.k},{mu:.17g},{f.label},{a:.17g},"
                    f"{status},{tail}\n")
    with _open_out(args.out) as fh:
        fh.write("n,k,mu,f,a,status,r_estimate,r_lo,r_hi\n")
        fh.writelines(rows)
    return EXIT_USAGE if failed else EXIT_OK


_COMMANDS = {"solve": cmd_solve, "ko": cmd_ko, "verify": cmd_verify,
             "mu0": cmd_mu0, "sweep": cmd_sweep}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except AdmissibilityError as exc:
        print(f"admissibility rejection: {exc}", file=sys.stderr)
        return EXIT_ADMISSIBILITY
    except (ValueError, MemoryError) as exc:
        # a grid too large to allocate: numpy refuses it before touching
        # any memory
        print(f"invalid configuration: {exc or 'out of memory'}",
              file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
