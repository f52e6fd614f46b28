"""CLI commands, exit codes and deterministic outputs."""

import json

import numpy as np
import pytest

from hessian_radial.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMu0:
    def test_prints_threshold(self, capsys):
        code, out, _ = run(capsys, "mu0", "--n", "2", "--k", "1")
        assert code == 0
        assert out.strip() == "0.353553"


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

    def test_infinite_r_end_is_usage_error(self, capsys):
        code, _, err = run(capsys, "solve", "--n", "2", "--k", "1", "--mu", "0",
                           "--f", "const:1", "--a", "0", "--r-end", "inf")
        assert code == 64
        assert "invalid configuration" in err

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

    def test_deterministic_despite_concurrency(self, tmp_path, capsys):
        args = ("sweep", "--n", "2", "--k", "1", "--f", "exp:1",
                "--a", "0:1:3", "--mu", "0:0.2:2", "--h", "5e-3")
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        assert run(capsys, *args, "--out", str(out1))[0] == 0
        assert run(capsys, *args, "--out", str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestUsage:
    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", "--bogus", "1"])
        assert excinfo.value.code == 64

    def test_bad_f_spec(self, capsys):
        code, _, err = run(capsys, "ko", "--k", "1", "--f", "tan:1")
        assert code == 64
        assert "invalid configuration" in err
