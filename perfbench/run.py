#!/usr/bin/env python3
"""Wall-clock benchmark of the vTPM stack.

    python3 perfbench/run.py --workload pcr-fleet|attest|migrate|all \
        --seed N --seconds S --trace 0|1

Builds perfbench/perfbench.exe from source with dune, runs the workload
in a fresh process, checks the oracle log it wrote with the independent
checker (oracle.py), prints every metric by name with its unit, and
prints one JSON object as the last line of standard output:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
`--workload all` runs the three workloads one after another, each in its
own process. Output files go to .perfbench_out/ at the repository root.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave nothing behind in the source tree

import oracle  # noqa: E402

WORKLOADS = ["pcr-fleet", "attest", "migrate"]
# pcr-fleet traffic on a baseline (2006-design) host: the reference point
# for the access-control overhead. Its SaveState probes are expected to be
# served, since the baseline host mediates nothing.
REFERENCE = ["pcr-fleet-baseline"]
OUT = os.path.join(ROOT, ".perfbench_out")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")


def die(msg):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(1)


def build():
    dune = shutil.which("dune")
    if dune is None:
        die("dune not found on PATH")
    r = subprocess.run(
        [dune, "build", "--root", ROOT, "--profile", "release", "./perfbench/perfbench.exe"],
        cwd=ROOT, capture_output=True, text=True, timeout=880,
    )
    if r.returncode != 0:
        sys.stderr.write(r.stdout + r.stderr)
        die("build failed")


def run_one(workload, seed, seconds, trace):
    """One workload in a fresh process, checked by the oracle."""
    os.makedirs(OUT, exist_ok=True)
    log = os.path.join(OUT, "oracle-%s.log" % workload)
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", OUT]
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        die("%s did not finish in time" % workload)
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        die("%s exited with code %d" % (workload, r.returncode))
    lines = r.stdout.strip().splitlines()
    if not lines:
        die("%s printed no result" % workload)
    res = json.loads(lines[-1])
    checked, mismatches, final_bad, problems = oracle.check(log)
    res["oracle_checked"] = checked
    res["failed"] += mismatches
    res["correct"] = res["correct"] and final_bad == 0 and res["failed"] <= res["attempted"]
    res["problems"] += problems
    return res


def show(workload, seed, res):
    print("workload %s  seed %d" % (workload, seed))
    print("  attempted %d  failed %d  oracle records checked %d  correct %s"
          % (res["attempted"], res["failed"], res["oracle_checked"], res["correct"]))
    for name, m in res["metrics"].items():
        print("  %-32s %16.4f %s" % (name, m["value"], m["unit"]))
    for p in res["problems"]:
        sys.stderr.write("  problem: %s\n" % p)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + REFERENCE + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    err = oracle.self_test()
    if err:
        die("oracle " + err)
    build()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for w in names:
        results[w] = run_one(w, args.seed, args.seconds, args.trace)
        show(w, args.seed, results[w])
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s/%s" % (w, k): v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    else:
        r = results[args.workload]
        final = {k: r[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(final))


if __name__ == "__main__":
    main()
