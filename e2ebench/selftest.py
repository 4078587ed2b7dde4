#!/usr/bin/env python3
"""Self-test of the benchmark's failure accounting.

    python3 e2ebench/selftest.py [--seconds 2]

Checks that a clean run of every workload reports no failed ops, and that
each planted fault makes the affected workload report failed ops:

  * a corrupted oracle checksum, on every workload;
  * a JIT host compiler that cannot build anything (LCDFG_JIT_CC=/bin/false)
    on the two JIT workloads, whose interpreted fallback is faster than the
    JIT path today and so must never read as a gain.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ["mfd16-fused-jit", "mfd64-series-interp", "serve-mfd-jit",
             "shard2-stencil"]
JIT_WORKLOADS = ["mfd16-fused-jit", "serve-mfd-jit"]


def run(workload, seconds, extra):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", str(seconds), "--trace", "0"] + extra,
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        return None, None
    return json.loads(lines[-1]), json.loads(lines[-2])["fail_reasons"]


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seconds", type=float, default=2)
    args = p.parse_args()

    cases = [(w, "clean", [], False) for w in WORKLOADS]
    cases += [(w, "corrupt-oracle", ["--corrupt-oracle"], True)
              for w in WORKLOADS]
    cases += [(w, "jit-cc=/bin/false", ["--jit-cc", "/bin/false"], True)
              for w in JIT_WORKLOADS]
    ok = True
    for workload, name, extra, expect_failures in cases:
        res, reasons = run(workload, args.seconds, extra)
        if res is None:
            good, what = False, "run.py failed"
        else:
            failed = res["failed"] > 0 and not res["correct"]
            good = failed == expect_failures
            what = "%d/%d ops failed %s" % (res["failed"], res["attempted"],
                                            sorted(reasons))
        ok &= good
        print("%-5s %-20s %-18s %s" % ("ok" if good else "FAIL", workload,
                                        name, what), flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
