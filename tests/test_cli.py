"""CLI commands, exit codes and deterministic outputs."""

import hashlib
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hessian_radial import (SCHEMA_ID, ProblemParams, SubsolutionReport,
                            gaussian, verify_subsolution)
from hessian_radial.cli import _dump_report, _parse_f_grid, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_quiet_usage_error(capsys, *argv):
    """Exit 64 with the usage message, no output and no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv)
    assert code == 64
    assert out == ""
    assert err.startswith("invalid configuration") and err.count("\n") == 1


class TestMu0:
    def test_prints_threshold(self, capsys):
        code, out, _ = run(capsys, "mu0", "--n", "2", "--k", "1")
        assert code == 0
        assert out.strip() == "0.353553"

    def test_dimension_below_two_is_usage_error(self, capsys):
        # it used to print 0.707107 and exit 0
        code, out, err = run(capsys, "mu0", "--n", "1", "--k", "1")
        assert code == 64
        assert out == ""
        assert "need n >= 2" in err


class TestSolve:
    def test_constant_source_csv(self, tmp_path, capsys):
        out = tmp_path / "profile.csv"
        code, _, _ = run(capsys, "solve", "--n", "2", "--k", "1", "--mu", "0",
                         "--f", "const:1", "--a", "0", "--r-end", "4",
                         "--h", "1e-3", "--out", str(out))
        assert code == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "r,phi,dphi,volterra,defect"
        data = np.array([[float(v) for v in row.split(",")]
                         for row in rows[1:]])
        r, phi = data[:, 0], data[:, 1]
        assert np.max(np.abs(phi - r ** 2 / 4)) < 1e-5

    def test_admissibility_exit_code(self, capsys):
        code, _, err = run(capsys, "solve", "--n", "3", "--k", "2",
                           "--mu", "-0.1", "--f", "const:1", "--a", "0",
                           "--r-end", "2")
        assert code == 2
        assert "admissibility" in err

    def test_blowup_exit_code_with_bracket(self, capsys):
        code, _, err = run(capsys, "solve", "--n", "2", "--k", "1", "--mu", "0",
                           "--f", "exp:1", "--a", "0", "--r-end", "100",
                           "--h", "2e-3")
        assert code == 3
        diag = json.loads(err.split("blow-up before r_end:", 1)[1])
        assert diag["status"] == "finite_blowup"
        lo, hi = diag["bracket"]
        assert lo < diag["r_estimate"] <= hi

    def test_bounded_non_convergence_exit_code(self, capsys):
        # Picard exhausts max_iter just below R = sqrt(8), and the walk from
        # h = 1e-2 finds no blow-up before r_end
        code, out, err = run(capsys, "solve", "--n", "2", "--k", "1",
                             "--mu", "0", "--f", "exp:1", "--a", "0",
                             "--r-end", "2.82", "--h", "1e-2")
        assert code == 1
        assert out == ""
        assert "did not converge although the solution stays bounded" in err

    def test_one_ulp_blowup_bracket_exit_code(self, capsys):
        # the h0/2 walk's bracket is one ulp wide and its midpoint rounds to
        # lo; BlowupReport raised, and the command exited 64
        code, _, err = run(capsys, "solve", "--n", "3", "--k", "1",
                           "--mu", "0.5", "--f", "exp:3", "--a", "0",
                           "--r-end", "60", "--h", "1e-3", "--phi-cap", "30")
        assert code == 3
        diag = json.loads(err.split("blow-up before r_end:", 1)[1])
        lo, hi = diag["bracket"]
        assert lo < diag["r_estimate"] <= hi

    def test_infinite_r_end_is_usage_error(self, capsys):
        code, _, err = run(capsys, "solve", "--n", "2", "--k", "1", "--mu", "0",
                           "--f", "const:1", "--a", "0", "--r-end", "inf")
        assert code == 64
        assert "invalid configuration" in err

    def test_grid_too_large_for_memory_is_usage_error(self, capsys):
        # r_end / h is below 2^52, but the grid would take 30.9 PiB: numpy
        # refuses the request at once, and the command ended in a traceback
        code, out, err = run(capsys, "solve", "--n", "2", "--k", "1",
                             "--mu", "0", "--f", "exp:1", "--a", "0",
                             "--r-end", "1", "--h", "2.3e-16")
        assert code == 64 and out == ""
        assert err.startswith("invalid configuration: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
    def test_degenerate_tol_is_usage_error(self, tmp_path, capsys, tol):
        # --tol inf used to write the first Picard iterate, phi = 1.0 at
        # r = 2, as converged (the solution has phi(2) = ln 4)
        out = tmp_path / "profile.csv"
        code, _, err = run(capsys, "solve", "--n", "2", "--k", "1", "--mu", "0",
                           "--f", "exp:1", "--a", "0", "--r-end", "2",
                           "--h", "1e-3", "--tol", tol, "--out", str(out))
        assert code == 64
        assert "tol must be finite and > 0" in err
        assert not out.exists()

    def test_radius_whose_power_overflows_is_usage_error(self, capsys):
        # Picard overflows first and the blow-up fallback used to raise
        # OverflowError from r^(n+1) with a traceback
        code, _, err = run(capsys, "solve", "--n", "2", "--k", "1", "--mu", "0",
                           "--f", "const:1", "--a", "0", "--r-end", "1e200",
                           "--h", "1e199")
        assert code == 64
        assert "invalid configuration" in err
        assert "Traceback" not in err

    # r_end / h >= 2^52: 5e-324 ended in an OverflowError traceback
    @pytest.mark.parametrize("h", ["5e-324", "1e-300"])
    def test_step_below_the_resolution_of_r_is_usage_error(self, tmp_path,
                                                            capsys, h):
        out = tmp_path / "profile.csv"
        code, _, err = run(capsys, "solve", "--n", "2", "--k", "1", "--mu", "0",
                           "--f", "exp:1", "--a", "0", "--r-end", "1",
                           "--h", h, "--out", str(out))
        assert code == 64
        assert "invalid configuration" in err and "2^52" in err
        assert not out.exists()

    def test_json_format(self, tmp_path, capsys):
        out = tmp_path / "profile.json"
        code, _, _ = run(capsys, "solve", "--n", "3", "--k", "2", "--mu", "0.1",
                         "--f", "exp:1", "--a", "0", "--r-end", "0.5",
                         "--h", "1e-2", "--format", "json", "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == "hessian-radial/1"
        assert payload["params"] == {"n": 3, "k": 2, "mu": 0.1}

    def test_byte_identical_reruns(self, tmp_path, capsys):
        args = ("solve", "--n", "3", "--k", "2", "--mu", "0.1", "--f",
                "exp:0.5", "--a", "0.5", "--r-end", "1", "--h", "1e-3")
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(capsys, *args, "--out", str(out1))[0] == 0
        assert run(capsys, *args, "--out", str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_io_failure_exit_code(self, capsys):
        code, _, err = run(capsys, "solve", "--n", "2", "--k", "1", "--mu", "0",
                           "--f", "const:1", "--a", "0", "--r-end", "1",
                           "--out", "/nonexistent-dir/x.csv")
        assert code == 10
        assert "i/o" in err


class TestKo:
    def test_power_diverges(self, capsys):
        code, out, _ = run(capsys, "ko", "--k", "2", "--f", "pow:0.5")
        assert code == 0
        payload = json.loads(out)
        assert payload["ko"]["classification"] == "diverges"

    def test_existence_with_regime(self, capsys):
        code, out, _ = run(capsys, "ko", "--k", "1", "--f", "exp:1",
                           "--n", "2", "--mu", "0.2")
        assert code == 0
        payload = json.loads(out)
        assert payload["ko"]["classification"] == "converges"
        assert payload["existence"]["verdict"] == "not_exists"

    def test_semilinear_divergence_exists_without_regime(self, capsys):
        code, out, _ = run(capsys, "ko", "--k", "1", "--f", "const:1")
        assert code == 0
        payload = json.loads(out)
        assert payload["ko"]["classification"] == "diverges"
        assert payload["existence"]["verdict"] == "exists"

    @pytest.mark.parametrize("spec", ["const:inf", "exp:inf", "exp:nan",
                                      "pow:inf"])
    def test_non_finite_source_is_usage_error(self, capsys, spec):
        assert_quiet_usage_error(capsys, "ko", "--k", "1", "--f", spec)

    def test_partial_regime_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "ko", "--k", "1", "--f", "const:1",
                         "--n", "2")
        assert code == 64


class TestVerify:
    def test_threshold_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "3", "--k", "2",
                           "--mu", "0.1", "--A", "0.2887", "--alpha", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert len(payload["radii"]) >= 500

    def test_csv_format(self, tmp_path, capsys):
        out = tmp_path / "verify.csv"
        code, _, _ = run(capsys, "verify", "--n", "2", "--k", "1", "--mu", "0",
                         "--A", "0.25", "--alpha", "1", "--format", "csv",
                         "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "r,pass,margin,gamma_k_ok"
        assert all(line.split(",")[1] == "1" for line in lines[1:])


    @pytest.mark.parametrize("flag,value", [("--A", "inf"), ("--A", "nan"),
                                            ("--alpha", "nan"),
                                            ("--alpha", "inf"),
                                            ("--r-max", "inf"),
                                            ("--r-max", "nan")])
    def test_non_finite_input_is_usage_error(self, capsys, flag, value):
        argv = {"--A": "0.2887", "--alpha": "1", "--r-max": "10"}
        argv[flag] = value
        assert_quiet_usage_error(capsys, "verify", "--n", "3", "--k", "2",
                                 "--mu", "0.1",
                                 *(x for kv in argv.items() for x in kv))

    # n=3, k=2 overflows r^2 past r = 1.3e154; this leaked numpy's
    # "overflow encountered in scalar multiply" before the usage error
    def test_huge_r_max_is_quiet_usage_error(self, capsys):
        assert_quiet_usage_error(capsys, "verify", "--n", "3", "--k", "2",
                                 "--mu", "0.1", "--A", "0.3", "--alpha", "1",
                                 "--r-max", "1e160")

    # k A r^2 overflows before the scaled spectrum when A < k/4: this exited
    # 0 with margin NaN, a failure for a candidate above its threshold
    def test_overflowing_margin_exponent_is_quiet_usage_error(self, capsys):
        assert_quiet_usage_error(capsys, "verify", "--n", "3", "--k", "3",
                                 "--mu", "0", "--A", "0.6", "--alpha", "1",
                                 "--r-max", "1.05e154")

    # 4 A^2 underflows: the spectrum was 0 and this exited 0 with
    # gamma_k_ok false at r = 0
    def test_A_whose_square_underflows_is_quiet_usage_error(self, capsys):
        assert_quiet_usage_error(capsys, "verify", "--n", "3", "--k", "2",
                                 "--mu", "0", "--A", "1e-200", "--alpha", "1")


# every float of a report, the non-finite ones and -0.0 drawn often
_floats = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])


@st.composite
def _reports(draw):
    """A report with arbitrary columns: the writer trusts its fields."""
    n = draw(st.integers(2, 9))
    params = ProblemParams(n, draw(st.integers(1, n)),
                           draw(st.floats(allow_nan=False,
                                          allow_infinity=False)))
    rows = draw(st.integers(0, 12))

    def column(values):
        return tuple(draw(st.lists(values, min_size=rows, max_size=rows)))

    return SubsolutionReport(
        params, draw(_floats), draw(_floats), column(_floats),
        column(st.booleans()), column(_floats), column(st.booleans()),
        column(st.booleans()), draw(st.booleans()),
        draw(st.none() | _floats))


def _report(radii):
    return verify_subsolution(ProblemParams(3, 2, 0.1), 0.3, 2.0, radii)


class TestDumpReport:
    @given(_reports())
    @example(_report([]))
    @example(_report([0.0, 0.5, 60.0, 1e130]))
    @example(SubsolutionReport(
        ProblemParams(2, 1, -0.0), 5e-324, -math.inf,
        (math.inf, math.nan, 5e-324, 0.1, -0.0),
        (True, True, False, True, False),
        (-math.inf, -0.0, 1e308, 1e16, math.nan),
        (False, False, True, False, True), (True, True, True, False, False),
        False, math.nan))
    @settings(max_examples=300, deadline=None)
    def test_bytes_equal_json_dump(self, report):
        want, got = io.StringIO(), io.StringIO()
        json.dump({"schema": SCHEMA_ID, **report.to_dict()}, want, indent=2)
        want.write("\n")
        _dump_report(got, report)
        assert got.getvalue() == want.getvalue()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_verify_builds_no_row_objects(self, tmp_path, capsys,
                                          monkeypatch, fmt):
        def refuse(*args):
            raise AssertionError("RadiusCheck built")
        out = tmp_path / f"verify.{fmt}"
        argv = ["verify", "--n", "4", "--k", "1", "--mu", "-1", "--A", "0.2",
                "--alpha", "1", "--format", fmt, "--out", str(out)]
        assert run(capsys, *argv) == (0, "", "")
        want = out.read_bytes()
        monkeypatch.setattr(gaussian, "RadiusCheck", refuse)
        assert run(capsys, *argv) == (0, "", "")
        assert out.read_bytes() == want


class TestSweep:
    def test_grid_shape_order_and_monotone_radii(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", "--n", "2", "--k", "1",
                         "--f", "exp:1", "--a", "0:2:5", "--mu", "0:0.3:4",
                         "--h", "2e-3", "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,k,mu,f,a,status,r_estimate,r_lo,r_hi"
        assert len(lines) == 21  # 5 a-values x 4 mu-values
        rows = [line.split(",") for line in lines[1:]]
        keys = [(float(r[2]), float(r[4])) for r in rows]
        assert keys == sorted(keys)
        assert all(r[5] == "finite_blowup" for r in rows)
        # blow-up radius non-increasing along the a-axis at fixed mu
        for mu in sorted({k[0] for k in keys}):
            estimates = [float(r[6]) for r in rows if float(r[2]) == mu]
            assert all(b <= a + 1e-12 for a, b in zip(estimates, estimates[1:]))

    def test_admissibility_failure_rows(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", "--n", "3", "--k", "2",
                         "--mu", "-0.5:0:2", "--f", "exp:1", "--a", "0",
                         "--r-max", "5", "--out", str(out))
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        assert rows[0] == "3,2,-0.5,exp:1,0,admissibility_failure,,,"
        assert rows[1].split(",")[5] == "finite_blowup"

    def test_byte_identical_reruns(self, tmp_path, capsys):
        args = ("sweep", "--n", "2", "--k", "1", "--f", "exp:1",
                "--a", "0:1:3", "--mu", "0:0.2:2", "--h", "5e-3")
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        assert run(capsys, *args, "--out", str(out1))[0] == 0
        assert run(capsys, *args, "--out", str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()


    def test_family_grid_runs_the_values_it_names(self, tmp_path, capsys):
        fs = _parse_f_grid("exp:0:1:4")
        assert [f.param for f in fs] == np.linspace(0, 1, 4).tolist()
        out = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", "--n", "2", "--k", "1",
                         "--f", "exp:0:1:4", "--a", "0", "--mu", "0",
                         "--r-max", "1", "--h", "1e-2", "--out", str(out))
        assert code == 0
        labels = [line.split(",")[3]
                  for line in out.read_text().strip().splitlines()[1:]]
        assert labels == ["exp:0", "exp:0.3333333333333333",
                          "exp:0.6666666666666666", "exp:1"]

    def test_invalid_tuple_gets_an_error_row(self, tmp_path, capsys):
        # a = 1e8 and 2e8 reach phi_cap; the grid still runs to the end
        out = tmp_path / "sweep.csv"
        code, _, err = run(capsys, "sweep", "--n", "2", "--k", "1",
                           "--f", "exp:1", "--a", "0:2e8:3", "--mu", "0",
                           "--out", str(out))
        assert code == 64
        rows = [line.split(",")
                for line in out.read_text().strip().splitlines()[1:]]
        assert [float(r[4]) for r in rows] == [0.0, 1e8, 2e8]
        assert [r[5] for r in rows] == ["finite_blowup", "error", "error"]
        assert all(r[6:] == ["", "", ""] for r in rows[1:])
        assert err.count("\n") == 2
        assert "a=100000000" in err and "a=200000000" in err

    @pytest.mark.parametrize("flag,value", [("--r-max", "1e200"),
                                            ("--r-max", "inf"),
                                            ("--h", "nan")])
    def test_bad_walk_size_writes_no_rows(self, tmp_path, capsys, flag,
                                          value):
        out = tmp_path / "sweep.csv"
        code, _, err = run(capsys, "sweep", "--n", "2", "--k", "1",
                           "--f", "exp:1", "--a", "0:1:2", "--mu", "0",
                           flag, value, "--out", str(out))
        assert code == 64
        assert "invalid configuration" in err
        assert not out.exists()


    # r_max / h >= 2^52: the walks did not return
    @pytest.mark.parametrize("h", ["5e-324", "1e-300"])
    def test_step_below_the_resolution_of_r_writes_no_rows(
            self, tmp_path, capsys, bounded_walks, h):
        out = tmp_path / "sweep.csv"
        code, _, err = run(capsys, "sweep", "--n", "2", "--k", "1",
                           "--f", "exp:1", "--a", "0", "--mu", "0",
                           "--r-max", "3", "--h", h, "--out", str(out))
        assert code == 64
        assert "invalid configuration" in err and "2^52" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [("--a", "0:1:0"),
                                            ("--mu", "0:1"),
                                            ("--f", "exp:0:1")])
    def test_bad_grid_spec_writes_no_rows(self, tmp_path, capsys, flag,
                                          value):
        argv = {"--f": "exp:1", "--a": "0:1:2", "--mu": "0", flag: value}
        out = tmp_path / "sweep.csv"
        code, _, err = run(capsys, "sweep", "--n", "2", "--k", "1",
                           *(x for kv in argv.items() for x in kv),
                           "--out", str(out))
        assert code == 64
        assert "invalid configuration" in err
        assert not out.exists()

    def test_blowup_at_the_resolution_of_r(self, tmp_path, capsys,
                                           bounded_walks):
        # the walk halves its step below ulp(r)/2; it used to append
        # windows at one radius until memory ran out
        out = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", "--n", "3", "--k", "1",
                         "--mu", "0", "--f", "exp:3", "--a", "-2",
                         "--r-max", "200", "--h", "1e-3", "--phi-cap", "30",
                         "--out", str(out))
        assert code == 0
        row = out.read_text().strip().splitlines()[1].split(",")
        assert row[5] == "finite_blowup"
        estimate, lo, hi = map(float, row[6:])
        assert lo < estimate <= hi


class TestUsage:
    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", "--bogus", "1"])
        assert excinfo.value.code == 64

    def test_bad_f_spec(self, capsys):
        code, _, err = run(capsys, "ko", "--k", "1", "--f", "tan:1")
        assert code == 64
        assert "invalid configuration" in err


class TestNegativeNumbers:
    """A negative value in exponent notation, or a negative grid start, is
    the option's value, as in the --opt=value form."""

    @pytest.mark.parametrize("argv", [
        ("ko", "--k", "1", "--f", "exp:1", "--n", "3", "--mu", "-5e-05"),
        ("solve", "--n", "2", "--k", "1", "--mu", "-1E-3", "--f", "const:1",
         "--a", "0", "--r-end", "0.01"),
        ("sweep", "--n", "2", "--k", "1", "--f", "exp:1", "--a", "0",
         "--mu", "-0.5:0:2", "--r-max", "1", "--h", "1e-2"),
        ("solve", "--n", "2", "--k", "1", "--mu", "0", "--f", "const:1",
         "--a", "-2.5e-1", "--r-end", "0.01"),
    ])
    def test_same_as_the_equals_form(self, capsys, argv):
        i = next(i for i, v in enumerate(argv) if v.startswith("-")
                 and v[1:2].isdigit())
        joined = argv[:i - 1] + (f"{argv[i - 1]}={argv[i]}",) + argv[i + 1:]
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == run(capsys, *joined)
        assert code == 0 and out and err == ""


class TestGoldenOutput:
    """sha256 of CLI output computed before the walk ran in windows (sweep,
    solve) and before the Gaussian margins ran on radius columns (verify),
    with numpy 2.4.6 on x86-64 (AVX-512): a speed-up must leave these bytes
    as they are.  A host whose numpy exp or log rounds differently in the last
    bit can print other digits."""

    def test_sweep_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", "--n", "3", "--k", "2",
                         "--f", "exp:0.5:1.5:3", "--a", "0:1:2",
                         "--mu", "0:0.4:2", "--r-max", "8", "--h", "2e-3",
                         "--out", str(out))
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "89fd455e7bd1542fa4f9040c6404ad533337ab00f2ce7c74651876ae93cbce1a")

    def test_solve_falling_back_to_the_blowup_walk(self, capsys):
        code, out, err = run(capsys, "solve", "--n", "4", "--k", "4",
                             "--mu", "0", "--f", "pow:2.5", "--a", "0.5",
                             "--r-end", "5", "--h", "1e-3")
        assert code == 3 and out == ""
        assert hashlib.sha256(err.encode()).hexdigest() == (
            "53bed3cd639c5d6e9a10d8d69143d4994e51631d47d4afd60b8122e2f4163f8d")

    @pytest.mark.parametrize("argv,sha", [
        # 513 rows, 275 of them S_1 <= 0 with margin -inf; first failure 0.392
        ("--n 4 --k 1 --mu -1 --A 0.2 --alpha 1",
         "bfd3c939dbf0698b328a05d3267482793d626ecc11539dbc3a16f3b92dcce56d"),
        ("--n 4 --k 1 --mu -1 --A 0.2 --alpha 1 --format csv",
         "523683a96c02f905748709537d1a1bc052beb64b16304afe7d2e1458ce8e851b"),
        # 209 of 512 rows in the log domain
        ("--n 3 --k 2 --mu 0.1 --A 0.3 --alpha 0.5 --r-max 100",
         "57569ae0ef9310cdf30ec9f9f79f33bd99178103b030ba91369800de9f2f6b8c"),
        # below the threshold 0.2887: fails at r = 0
        ("--n 3 --k 2 --mu 0 --A 0.25 --alpha 1",
         "10573b99b472f4bb42bb92034761f2011699ea2b6b1212c5f6d135f32973eb23"),
    ])
    def test_verify(self, capsys, argv, sha):
        code, out, _ = run(capsys, "verify", *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == sha
