"""The repository's tools run and give reproducible output."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def walk_digest(*args):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "walk_digest.py"),
         "--src", str(ROOT / "src"), *args],
        capture_output=True, text=True, check=True, timeout=120).stdout


def test_walk_digest_is_reproducible():
    first, second = walk_digest("--cases", "20"), walk_digest("--cases", "20")
    assert first == second
    lines = first.splitlines()
    assert [line.split(" ", 1)[0] for line in lines] == [
        str(i) for i in range(20)]
    # the steep and Picard cases are drawn too, and each digest is a sha256
    assert any(" picard_solve(" in line for line in lines)
    assert any("r_max=500.0" in line for line in lines)
    assert all(len(line.rsplit(" ", 1)[1]) == 64 for line in lines)
