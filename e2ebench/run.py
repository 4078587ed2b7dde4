#!/usr/bin/env python3
"""End-to-end benchmark of the lcdfg loop-chain stack.

    python3 e2ebench/run.py --workload W --seed N --seconds S --trace 0|1

Builds the benchmark (e2ebench/CMakeLists.txt, which compiles src/ into
.bench_build/), runs workload W and prints, as its last stdout line, one
JSON object {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones of BENCHMARK.json; with --trace 1 the
per-layer ones. README.md in this directory describes the workloads.

An untraced run is split over several benchmark processes, each of which
sets up from scratch and then times its share of --seconds: setup_s is the
median of their set-up times, and the latency and throughput metrics pool
their ops. Every benchmark process runs hermetically: LCDFG_* variables are
cleared, and the process gets a fresh private JIT cache and temporary
directory inside .bench_build/, removed when it exits.
"""

import argparse
import collections
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "e2ebench")
BINARY = os.path.join(BUILD, "lcdfg-e2ebench")

# Benchmark processes per untraced run. Each pays a full set-up (setup_s is
# their median), and pooling ops from several processes spread over the
# run's wall time evens out slow phases of the host. JIT workloads pay a
# multi-second cold compile per set-up, so they take fewer.
PROCESSES = {
    "mfd16-fused-jit": 3,
    "mfd64-series-interp": 10,
    "serve-mfd-jit": 3,
    "shard2-stencil": 10,
}

END_TO_END = {
    "setup_s": "s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "ops_per_s": "1/s",
    "rss_mb": "MB",
}

PER_LAYER = {
    "parser.parse_ms": "ms",
    "graph.build_ms": "ms",
    "graph.transform_ms": "ms",
    "storage.plan_ms": "ms",
    "codegen.generate_ms": "ms",
    "exec.lower_ms": "ms",
    "verify.plan_ms": "ms",
    "jit.compile_ms": "ms",
    "jit.compiled": "count",
    "storage.alloc_ms": "ms",
    "exec.prepare_ms": "ms",
    "exec.row_analyze_ms": "ms",
    "verify.kernel_ms": "ms",
    "jit.cache_hits_per_op": "count",
    "exec.execute_ms": "ms",
    "exec.gbytes_per_s": "GB/s",
    "exec.points_per_op": "count",
    "exec.batched_instr_share": "ratio",
    "exec.segments_per_op": "count",
    "exec.max_idle_share": "ratio",
    "exec.sched_steals_per_op": "count",
    "exec.sched_stalls_per_op": "count",
    "serve.non_run_ms": "ms",
    "serve.run_ms": "ms",
    "serve.wait_ms": "ms",
    "serve.hit_ratio": "ratio",
    "serve.compile_ms": "ms",
    "shard.fixed_ms": "ms",
    "shard.per_step_ms": "ms",
    "shard.serial_step_ms": "ms",
    "shard.bytes_per_step": "count",
    "shard.retries": "count",
    "obs.trace_overhead": "ratio",
}

# Every benchmark process of one run must end this long after the build.
RUN_DEADLINE_S = 170


def fail(msg, code=1):
    print("e2ebench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once and builds incrementally; build output goes to a log."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no lcdfg sources next to the benchmark (expected src/)", 2)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target", "lcdfg-e2ebench",
                      "-j", str(min(4, os.cpu_count() or 1))])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))


def hermetic_env(scratch, jit_cc=None):
    env = {k: v for k, v in os.environ.items() if not k.startswith("LCDFG_")}
    tmp = os.path.join(scratch, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    # The process-wide engine (used by the serving workload) reads its
    # cache directory from here; a fresh one per process keeps it cold.
    env["LCDFG_JIT_DIR"] = os.path.join(scratch, "jit-global")
    if jit_cc:
        env["LCDFG_JIT_CC"] = jit_cc
    return env


_runs = 0


def run_process(args, trace, seconds, deadline):
    """One benchmark process in its own scratch directory; returns its JSON."""
    global _runs
    _runs += 1
    rel = os.path.join(".bench_build", "run", "%d-%d" % (os.getpid(), _runs))
    scratch = os.path.join(ROOT, rel)
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--jit-dir", os.path.join(scratch, "jit"),
           # Relative, so the socket path stays short wherever the
           # checkout lives.
           "--sock", os.path.join(rel, "s.sock")]
    if args.corrupt_oracle:
        cmd.append("--corrupt-oracle")
    # A process group of its own, so a timeout also ends what the process
    # started (forked shard workers, host-compiler runs).
    proc = subprocess.Popen(cmd, cwd=ROOT, env=hermetic_env(scratch,
                                                            args.jit_cc),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("benchmark process timed out on " + args.workload)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.stderr.write(err)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("benchmark process exited %d on %s" % (proc.returncode, args.workload))
    return json.loads(lines[-1])


def source_digest():
    """Identifies the measured code; a checkout need not be a git repo."""
    h = hashlib.sha256()
    for base in ("src", "e2ebench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def fingerprint(args, compiler):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cc = subprocess.run(["cc", "--version"], stdout=subprocess.PIPE,
                        stderr=subprocess.DEVNULL, text=True).stdout
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "compiler": compiler, "jit_cc": cc.splitlines()[0] if cc else "",
            "commit": source_digest(), "seed": args.seed,
            "workload": args.workload}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(PROCESSES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # Self-test hooks (selftest.py): a planted checksum mismatch and a
    # host compiler for the JIT that cannot build anything.
    p.add_argument("--corrupt-oracle", action="store_true",
                   help=argparse.SUPPRESS)
    p.add_argument("--jit-cc", help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive", 2)

    build()
    deadline = time.monotonic() + RUN_DEADLINE_S
    if args.trace:
        runs = [run_process(args, True, args.seconds, deadline)]
        wanted = PER_LAYER
        layers = runs[0]["layers"]
        unknown = sorted(set(layers) - set(PER_LAYER))
        if unknown:
            fail("benchmark reported unknown layers " + ", ".join(unknown))
        # A layer the workload's path never enters reads 0.
        values = {m: layers.get(m, 0.0) for m in PER_LAYER}
    else:
        n = PROCESSES[args.workload]
        runs = [run_process(args, False, args.seconds / n, deadline)
                for _ in range(n)]
        wanted = END_TO_END
        lat = [x for r in runs for x in r["lat_ms"]]
        if len(lat) < 2:
            fail("too few completed ops to measure latency")
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in runs),
            "latency_ms_p50": statistics.median(lat),
            "latency_ms_p90": statistics.quantiles(lat, n=10,
                                                   method="inclusive")[8],
            "ops_per_s": sum(r["ops"] for r in runs) /
                         sum(r["timed_s"] for r in runs),
            "rss_mb": max(r["rss_mb"] for r in runs),
        }

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    reasons = collections.Counter()
    for r in runs:
        reasons.update(r["fail_reasons"])
    detail = {
        "fingerprint": fingerprint(args, runs[0]["compiler"]),
        "setup_s_samples": [r["setup_s"] for r in runs],
        "latency_samples": sum(len(r["lat_ms"]) for r in runs),
        "error_rate": failed / attempted if attempted else 1.0,
        "fail_reasons": reasons,
    }
    print(json.dumps(detail))
    metrics = {m: {"value": values[m], "unit": u} for m, u in wanted.items()}
    print(json.dumps({"correct": attempted > 0 and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
