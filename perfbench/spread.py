"""Run-to-run spread of the end-to-end metrics, and the recorded baseline.

    python3 perfbench/spread.py [--workloads W ...] [--seeds N] [--baseline]

Runs `run.py` once per seed (1..N) on each workload, one run at a time, and
prints for each end-to-end metric its median and its spread: the distance
between the first and third quartiles over the runs, as a share of the
median, next to the metric's bound in BENCHMARK.json; the exit code is 1 if
a spread of a workload in BENCHMARK.json reaches a third of its bound.
setup_s is the exception: it is gated on its median only.

With `--baseline` it also makes one traced run per workload and records in
`perfbench/baseline.json`, replacing the entries of the workloads it ran:
the environment, every metric's median, spread and per-seed values, the
accuracy metrics, the per-layer metrics with the end-to-end metric each
should move, and a digest of the CLI output fingerprints per seed.
"""

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "out" / "results"


def _run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                 f"{proc.stderr}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    result = json.loads((RESULTS / f"{workload}-seed{seed}-trace{trace}.json")
                        .read_text())
    return last, result


def _spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf"), statistics.median(values)


def _digest(fingerprints):
    # the same digest run.py prints
    blob = json.dumps(fingerprints, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    gated = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workloads", nargs="+", default=gated)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--baseline", action="store_true")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    path = BENCH / "baseline.json"
    baseline = json.loads(path.read_text()) if args.baseline \
        and path.exists() else {"workloads": {}}
    ok = True
    for workload in args.workloads:
        values, extra, digests, failed = {}, {}, {}, 0
        for seed in range(1, args.seeds + 1):
            last, result = _run(workload, seed, spec["run_seconds"], 0)
            failed += last["failed"]
            for name, m in last["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for name, m in result["end_to_end"].items():
                if name not in last["metrics"]:
                    extra.setdefault(name, []).append(m["value"])
            digests[seed] = _digest(result["fingerprints"])
            baseline["env"] = result["env"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in last["metrics"].items()),
                flush=True)
        entry = {"why": WORKLOADS[workload].why,
                 "in_benchmark_json": workload in gated,
                 "runs": args.seeds, "failed_ops": failed,
                 "end_to_end": {}, "accuracy": {},
                 "output_digest_by_seed": digests}
        for name, vals in values.items():
            spread, med = _spread(vals)
            steady = spread < bounds[name] / 3
            # setup_s is gated on its median only, not on its spread: it
            # times fresh interpreters, whose start-up varies with the page
            # cache and the host more than the closed loop does
            ok &= steady or name == "setup_s" or workload not in gated
            entry["end_to_end"][name] = {"median": med, "spread": spread,
                                         "bound": bounds[name],
                                         "steady": steady, "values": vals}
            print(f"{workload} {name}: median {med:.6g} spread {spread:.4f} "
                  f"bound {bounds[name]} {'ok' if steady else 'WIDE'}")
        for name, vals in extra.items():
            entry["accuracy"][name] = {"median": statistics.median(vals),
                                       "max": max(vals)}
        if args.baseline:
            last, result = _run(workload, 1, spec["run_seconds"], 1)
            entry["per_layer"] = {
                name: {**m, "moves": LAYER_METRICS[name][2]
                       if name in LAYER_METRICS else
                       "nothing: traced minus untraced op_s_p50"}
                for name, m in last["metrics"].items()}
        baseline["workloads"][workload] = entry
    if args.baseline:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(baseline, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    from spans import LAYER_METRICS
    from workloads import WORKLOADS
    sys.exit(main())
