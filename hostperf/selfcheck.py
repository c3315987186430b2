#!/usr/bin/env python3
"""Self-check of the host-performance benchmark: is it steady and exact?

    python3 hostperf/selfcheck.py [--runs N] [--seed S] [--workloads a,b]

Run from the root of a source checkout. For each workload of
BENCHMARK.json it makes N untraced runs (default 10) through run.py on
seeds S .. S+N-1, then one more on seed S. It prints, per end-to-end
metric, the median, the quartiles and the spread (quartile distance over
median) of the N runs, and flags

  - a metric whose medians over the first and the second half of the
    runs differ by more than its bound in BENCHMARK.json (SPLIT),
  - a metric whose spread exceeds a third of its bound (NOISY; setup_s
    is exempt, as its spread across seeds carries no bound),
  - a run that failed or reported correct = false (FAILED),
  - a sim_* metric of the repeated seed that is not bit-identical to
    its first run (SIM-DRIFT).

Exits 1 when anything was flagged, 0 otherwise.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "hostperf/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    return result if proc.returncode == 0 else None


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def check_workload(bench, workload, runs, seed0):
    results = []
    flags = []
    for seed in [seed0 + i for i in range(runs)] + [seed0]:
        r = run_once(workload, seed, bench["run_seconds"])
        if r is None or not r["correct"]:
            flags.append(f"FAILED seed {seed}")
            continue
        results.append((seed, r["metrics"]))
        print(f"  {workload} seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()),
            flush=True)
    if flags:
        return flags
    repeat = results.pop()[1]
    half = len(results) // 2
    print(f"{workload}: {len(results)} runs")
    print(f"  {'metric':26} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'halves':>8} {'bound':>6}")
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        values = [metrics[name]["value"] for _, metrics in results]
        q1, med, q3, sp = spread(values)
        a = statistics.median(values[:half])
        b = statistics.median(values[half:])
        split = abs(b - a) / a if a else float("inf") if b != a else 0.0
        mark = []
        if split > bound:
            mark.append("SPLIT")
        if name != "setup_s" and sp > bound / 3:
            mark.append("NOISY")
        flags += [f"{f} {name}" for f in mark]
        print(f"  {name:26} {med:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{sp:8.2%} {split:8.2%} {bound:6.2f} {' '.join(mark)}")
    sims = [{k: v["value"] for k, v in metrics.items() if k.startswith("sim_")}
            for _, metrics in results]
    again = {k: v["value"] for k, v in repeat.items() if k.startswith("sim_")}
    if again != sims[0]:
        flags.append(f"SIM-DRIFT seed {seed0}")
    print(f"  sim_* of seed {seed0} bit-identical on a second run: "
          f"{again == sims[0]}; the same on every seed: "
          f"{all(x == sims[0] for x in sims)}")
    return flags


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1000)
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    flags = []
    for name in names:
        flags += [f"{name}: {f}" for f in
                  check_workload(bench, name, args.runs, args.seed)]
    for f in flags:
        print("FLAG", f)
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
