#!/usr/bin/env python3
"""Steadiness of the benchmark's end-to-end metrics.

    python3 perfbench/steady.py [--runs 10] [--seconds 10] [--first-seed 1]
                                [--workloads pcr-fleet,attest,migrate]

Runs every workload --runs times through run.py (each run a fresh
process, each with its own seed; the workload order alternates between
repetitions), then prints, per workload and end-to-end metric, the median,
the quartiles (statistics.quantiles, n=4), the spread (q3 - q1) / median,
and the bound BENCHMARK.json fixes for it. The bounds were set from this
output. Raw results go to .perfbench_out/steady.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=None)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    results = {w: [] for w in workloads}
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        seed = args.first_seed + i
        for w in order:
            r = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w, "--seed",
                 str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            if r.returncode != 0:
                sys.stderr.write(r.stderr)
                sys.exit("run %d of %s failed" % (i, w))
            res = json.loads(r.stdout.strip().splitlines()[-1])
            res["seed"] = seed
            results[w].append(res)
            print("run %2d seed %3d %-10s attempted %8d failed %d  %s" % (
                i, seed, w, res["attempted"], res["failed"],
                "  ".join("%s=%.4g" % (k, v["value"]) for k, v in res["metrics"].items())),
                flush=True)
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench_out", "steady.json"), "w") as f:
        json.dump(results, f, indent=1)
    print()
    print("%-10s %-14s %12s %12s %12s %8s %6s" % (
        "workload", "metric", "median", "q1", "q3", "spread", "bound"))
    worst = 0.0
    for w, runs in results.items():
        shares = {r["failed"] / r["attempted"] for r in runs}
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name, float("nan"))
            if name != "setup_s":
                worst = max(worst, spread / bound)
            print("%-10s %-14s %12.4f %12.4f %12.4f %7.2f%% %5.0f%%" % (
                w, name, med, q1, q3, 100 * spread, 100 * bound))
        print("%-10s failed share per run: %s" % (w, sorted(shares)))
    print("\nlargest spread / bound (setup_s excluded): %.2f" % worst)


if __name__ == "__main__":
    main()
