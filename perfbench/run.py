"""Benchmark runner for hessian-radial.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; the library is imported from its
`src/` directory and nowhere else.  One process, one client, closed loop:
each operation starts when the previous one has returned and been checked.
The workloads, their operations and their oracles are in `workloads.py`.

With `--trace 0` the run times whole rounds of operations for at least S
seconds and reports the end-to-end metrics.  With `--trace 1` every round
runs twice, untraced and then with every layer function wrapped by the span
tracer of `spans.py`; the run reports the per-layer metrics and the tracing
overhead (traced minus untraced median latency).  Set-up time is the median
over several fresh interpreters that import the CLI and generate the inputs.
The last line of standard output is one JSON object; the lines before it name
every metric with its unit, and the full result set (environment, accuracy
metrics, output fingerprints, oracle failures) goes to
`perfbench/out/results/`.

`--smoke` runs every workload briefly, traced and untraced, and checks that
every metric is emitted.  The `sweep` workload is run by name only: it is not
in BENCHMARK.json because its timings are not steady under the CLI thread
pool (see perfbench/baseline.json).
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 7
TAIL_SAMPLES = 10


def _require_source():
    if not (SRC / "hessian_radial" / "__init__.py").is_file():
        sys.exit(f"perfbench: no hessian_radial sources under {SRC}; run "
                 "from the root of a source checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(BENCH))


def _setup_seconds(workload, seed):
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for i in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=60)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed:\n{proc.stderr}")
        if i:  # the first probe also compiles bytecode; it is not timed
            times.append(elapsed)
    return statistics.median(times)


def _tail(latencies):
    """Highest percentile, up to p90, with TAIL_SAMPLES samples beyond it."""
    import numpy as np
    n = len(latencies)
    q = 0.9 if n * 0.1 >= TAIL_SAMPLES else max(0.0, 1.0 - TAIL_SAMPLES / n)
    return float(np.quantile(latencies, q)), q


def _run_op(wl, op, wrap=None):
    call = op.call if wrap is None else wrap(op.call)
    t0 = time.perf_counter()
    try:
        result = call()
    except Exception as exc:  # a raising op is a failed op, not a dead run
        return time.perf_counter() - t0, [f"{op.key}: raised {exc!r}"]
    elapsed = time.perf_counter() - t0
    try:
        errors = op.check(result)
        if op.out is not None:
            errors += wl.fingerprint(op)
    except Exception as exc:
        errors = [f"oracle raised {exc!r}"]
    return elapsed, [f"{op.key}: {e}" for e in errors]


class Phase:
    """Closed loop over whole rounds until `seconds` have passed.

    With a tracer, each round runs untraced and then traced, so that the two
    latency sets share inputs and machine conditions and their difference is
    the tracing overhead."""

    def __init__(self, wl, seconds, tracer=None):
        self.latencies, self.traced, self.failures = [], [], []
        self.round_rates = []
        start = time.perf_counter()
        index = 0
        while True:
            ops = wl.rounds[index % len(wl.rounds)]
            self._round(wl, ops, self.latencies)
            self.round_rates.append(len(ops) / sum(self.latencies[-len(ops):]))
            if tracer is not None:
                with tracer:
                    self._round(wl, ops, self.traced, tracer)
            index += 1
            if time.perf_counter() - start >= seconds:
                break

    def _round(self, wl, ops, latencies, tracer=None):
        for op in ops:
            wrap = None if tracer is None else tracer.op(len(latencies))
            elapsed, errors = _run_op(wl, op, wrap)
            latencies.append(elapsed)
            self.failures += errors

    def metrics(self):
        # throughput over the time spent in the program (the oracle checks
        # between operations are the benchmark's own work), as the median
        # over rounds so that one round slowed by the machine does not move it
        tail, q = _tail(self.latencies)
        return {"ops_per_s": (statistics.median(self.round_rates), "1/s"),
                "op_s_p50": (statistics.median(self.latencies), "s"),
                "op_s_p90": (tail, "s")}, q


def _environment():
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "src_lines": src_lines}


def run(workload, seed, seconds, trace):
    from workloads import WORKLOADS
    setup_s = _setup_seconds(workload, seed)
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT / "tmp")
    try:
        wl = WORKLOADS[workload](seed, tmp)
        wl.prepare()
        _, warm_failures = _run_op(wl, wl.rounds[0][0])
        tracer = None
        if trace:
            from spans import Tracer
            tracer = Tracer()
        phase = Phase(wl, seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = 1 + len(phase.latencies) + len(phase.traced)
    failures = warm_failures + phase.failures
    end_to_end, tail_q = phase.metrics()
    end_to_end["setup_s"] = (setup_s, "s")
    end_to_end["peak_rss_mb"] = (peak_rss_mb, "MB")
    end_to_end["fail_ratio"] = (len(failures) / attempted, "1")
    end_to_end.update(wl.accuracy_metrics())
    result = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "env": _environment(),
        "samples": len(phase.latencies),
        "latencies_s": phase.latencies,
        "op_s_p90_percentile": round(100 * tail_q, 1),
        "end_to_end": {k: {"value": v, "unit": u}
                       for k, (v, u) in end_to_end.items()},
        "fingerprints": wl.fingerprints,
        "failures": failures[:50],
    }
    for name, (value, unit) in end_to_end.items():
        print(f"{workload} {name} = {value:.6g} {unit}")
    print(f"{workload} op_s_p90 is the p{result['op_s_p90_percentile']:g} "
          f"of {result['samples']} operations")
    per_layer = {}
    if trace:
        per_layer = tracer.layer_metrics()
        overhead = statistics.median(phase.traced) \
            - statistics.median(phase.latencies)
        per_layer["trace.op_s_p50_overhead"] = (overhead, "s")
        result["per_layer"] = {k: {"value": v, "unit": u}
                               for k, (v, u) in per_layer.items()}
        result["spans_dropped"] = tracer.dropped
        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        tracer.write_spans(OUT / "spans" / f"{workload}-seed{seed}.csv")
        for name, (value, unit) in per_layer.items():
            print(f"{workload} {name} = {value:.6g} {unit}")
    print(f"{workload} environment {json.dumps(result['env'])}")
    digest = hashlib.sha256(json.dumps(
        wl.fingerprints, sort_keys=True).encode()).hexdigest()
    print(f"{workload} output fingerprint sha256:{digest} over "
          f"{len(wl.fingerprints)} CLI inputs")
    for line in failures[:10]:
        print(f"{workload} FAILED {line}")
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    with open(OUT / "results" / f"{workload}-seed{seed}-trace{int(trace)}.json",
              "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    source = per_layer if trace else end_to_end
    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": source[n][0], "unit": source[n][1]}
                    for n in names}}))


def smoke():
    """Run each workload briefly, traced and untraced; check every metric."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from workloads import WORKLOADS
    problems = []
    for name, workload in WORKLOADS.items():
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name,
                 "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            tag = f"{name} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}\n{proc.stderr}")
                continue
            lines = proc.stdout.strip().splitlines()
            last = json.loads(lines[-1])
            mode = "per_layer" if trace else "end_to_end"
            if set(last["metrics"]) != {m["name"] for m in spec[mode]}:
                problems.append(f"{tag}: last line does not carry exactly "
                                f"the {mode} metrics")
            want = [m["name"] for m in spec["end_to_end"]] + ["fail_ratio"] \
                + list(workload.accuracy) \
                + ([m["name"] for m in spec["per_layer"]] if trace else [])
            printed = {line.split(" = ")[0].split(" ", 1)[1]
                       for line in lines[:-1] if " = " in line}
            missing = [n for n in want if n not in printed]
            if missing:
                problems.append(f"{tag}: not printed: {missing}")
            if not last["correct"]:
                problems.append(f"{tag}: {last['failed']} failed")
            print(f"smoke {tag}: {len(last['metrics'])} metrics, "
                  f"{last['attempted']} ops, {last['failed']} failed")
    for p in problems:
        print(f"smoke FAILED {p}")
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _require_source()
    if args.smoke:
        return smoke()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.setup_probe:
        # set-up as a user pays it: the imports above, then input generation
        WORKLOADS[args.workload](args.seed, OUT / "tmp")
        return 0
    run(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
