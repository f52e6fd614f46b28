"""The repository's tools run and give reproducible output."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = ROOT / "tests" / "data" / "walk_digest.txt"
VERIFY_DIGESTS = ROOT / "tests" / "data" / "verify_digest.txt"
KO_DIGESTS = ROOT / "tests" / "data" / "ko_digest.txt"


def walk_digest(*args):
    """A run of `tools/walk_digest.py`: digest lines on stdout, and on
    stderr the tree, the numpy version and AVX512_SKX dispatch."""
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "walk_digest.py"),
         "--src", str(ROOT / "src"), *args],
        capture_output=True, text=True, check=True, timeout=120)


def test_walk_digest_is_reproducible():
    first, second = (walk_digest("--cases", "20").stdout,
                     walk_digest("--cases", "20").stdout)
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
    run = walk_digest("--cases", str(len(want)))
    got, host = run.stdout.splitlines(), run.stderr
    changed = [line for line, old in zip(got, want) if line != old]
    assert len(got) == len(want) == 300, host
    assert not changed, (host, changed[:3])


def test_verify_digest_is_reproducible():
    first = walk_digest("--verify", "--cases", "20").stdout
    assert first == walk_digest("--verify", "--cases", "20").stdout
    lines = first.splitlines()
    assert [line.split(" ", 2)[:2] for line in lines] == [
        [str(i), "verify"] for i in range(20)]
    # both writers are hashed, and each digest is a sha256
    assert any("--format json" in line for line in lines)
    assert any("--format csv" in line for line in lines)
    assert all(len(line.rsplit(" ", 1)[1]) == 64 for line in lines)


def test_verify_digest_matches_the_committed_digests():
    """The first 300 digests of `tools/walk_digest.py --verify`, committed
    with numpy 2.4.6 on x86-64 (AVX-512): a change that keeps every verify
    report byte for byte leaves them as they are.  A host whose numpy exp
    or log rounds differently in the last bit can give other digests."""
    want = VERIFY_DIGESTS.read_text().splitlines()
    run = walk_digest("--verify", "--cases", str(len(want)))
    got, host = run.stdout.splitlines(), run.stderr
    changed = [line for line, old in zip(got, want) if line != old]
    assert len(got) == len(want) == 300, host
    assert not changed, (host, changed[:3])


def test_ko_digest_matches_the_committed_digests():
    """The first 200 digests of `tools/walk_digest.py --ko`, committed with
    numpy 2.4.6 on x86-64 (AVX-512): a change that keeps every numeric
    growth-integral verdict bit for bit leaves them as they are.  A host
    whose numpy exp or log rounds differently in the last bit can give
    other digests."""
    want = KO_DIGESTS.read_text().splitlines()
    run = walk_digest("--ko", "--cases", str(len(want)))
    got, host = run.stdout.splitlines(), run.stderr
    changed = [line for line, old in zip(got, want) if line != old]
    assert len(got) == len(want) == 200, host
    assert not changed, (host, changed[:3])


def test_sweep_counts():
    """`--sweeps` counts each listed walk's runs, log f evaluations, the
    nodes they evaluate, the `_cells` calls, the nodes whose radius parts
    they form and the nodes kept; every run forms parts and evaluates log
    f, every node kept has its parts formed, and the walks form them for no
    more than 1.5 times the nodes they keep in calls of 64 nodes or more on
    average."""
    lines = walk_digest("--sweeps").stdout.splitlines()
    assert len(lines) == 9
    for line in lines:
        words = line.split()
        fields = dict(zip(words[-14::2], words[-13::2]))
        assert list(fields) == ["runs", "log_f", "nodes_per_kept", "cells",
                                "formed_per_kept", "kept", "us_per_kept"]
        runs, log_f, cells, kept = (
            int(fields[name]) for name in ("runs", "log_f", "cells", "kept"))
        assert 0 < runs <= min(log_f, cells)
        assert 0 < cells <= kept / 64 + 1
        assert float(fields["nodes_per_kept"]) >= 1.0
        assert 1.0 <= float(fields["formed_per_kept"]) <= 1.5
