#!/usr/bin/env python3
"""Steadiness report for the end-to-end benchmark.

    python3 e2ebench/steadiness.py [--runs 10] [--first-seed 1]
                                   [--seconds S] [--workload W ...]

Runs each workload --runs times (seeds first-seed, first-seed+1, ...),
untraced, and prints for every end-to-end metric its median, quartiles,
min/max and the interquartile spread as a share of the median, next to
the metric's bound from BENCHMARK.json. The bounds there were set from
these reports (README.md). Exits nonzero when a run fails or a spread
other than setup_s exceeds its bound.
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
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--workload", action="append",
                   choices=[w["name"] for w in bench["workloads"]])
    args = p.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ok = True
    for w in workloads:
        values = {m: [] for m in bounds}
        for i in range(args.runs):
            seed = args.first_seed + i
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"], cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print("%s seed %d: run.py exited %d" % (w, seed, out.returncode))
                ok = False
                continue
            res = json.loads(lines[-1])
            if not res["correct"] or res["failed"]:
                print("%s seed %d: %d/%d ops failed" %
                      (w, seed, res["failed"], res["attempted"]))
                ok = False
            for m in bounds:
                values[m].append(res["metrics"][m]["value"])
            print("%s seed %d: %s" % (w, seed, " ".join(
                "%s=%.5g" % (m, res["metrics"][m]["value"]) for m in bounds)),
                flush=True)
        print("\n%s (%d runs)" % (w, len(values["setup_s"])))
        print("  %-16s %11s %11s %11s %11s %11s %7s %6s" %
              ("metric", "median", "q1", "q3", "min", "max", "spread", "bound"))
        for m, vs in values.items():
            if len(vs) < 2:
                continue
            q1, _, q3 = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if m != "setup_s" and spread > bounds[m]:
                flag, ok = "  OVER", False
            elif spread > bounds[m] / 3:
                flag = "  >1/3"
            print("  %-16s %11.5g %11.5g %11.5g %11.5g %11.5g %6.1f%% %5.0f%%%s"
                  % (m, med, q1, q3, min(vs), max(vs), 100 * spread,
                     100 * bounds[m], flag))
        print(flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
