"""The repository's tools run and give reproducible output."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = ROOT / "tests" / "data" / "walk_digest.txt"


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


def test_walk_digest_matches_the_committed_digests():
    """The first 300 digests of `tools/walk_digest.py`, committed with numpy
    2.4.6 on x86-64 (AVX-512): a change that keeps every walk and Picard
    solve bit for bit leaves them as they are.  A host whose numpy exp or
    log rounds differently in the last bit can give other digests."""
    want = DIGESTS.read_text().splitlines()
    got = walk_digest("--cases", str(len(want))).splitlines()
    changed = [line for line, old in zip(got, want) if line != old]
    assert len(got) == len(want) == 300
    assert not changed


def test_verify_digest_is_reproducible():
    first = walk_digest("--verify", "--cases", "20")
    assert first == walk_digest("--verify", "--cases", "20")
    lines = first.splitlines()
    assert [line.split(" ", 2)[:2] for line in lines] == [
        [str(i), "verify"] for i in range(20)]
    # both writers are hashed, and each digest is a sha256
    assert any("--format json" in line for line in lines)
    assert any("--format csv" in line for line in lines)
    assert all(len(line.rsplit(" ", 1)[1]) == 64 for line in lines)
