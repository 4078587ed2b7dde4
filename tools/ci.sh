#!/usr/bin/env bash
#===------------------------------------------------------------------------===#
#
# Tier-1 gate: configure, build, and run the full test suite under the
# default (Release) preset and again under ThreadSanitizer, which is what
# keeps the execution layer's tile scheduler honest, then a Release bench
# smoke (exec tests + one quick bench_fig6_small iteration) that catches
# batched-path regressions. Run from the repo root:
#
#   tools/ci.sh            # default+tsan+ubsan+bench+verify+faults+jit+
#                          #   shard+tidy+coverage
#   tools/ci.sh default    # just one preset
#   tools/ci.sh asan       # the ASan+UBSan sibling
#   tools/ci.sh ubsan      # standalone UBSan, -fno-sanitize-recover=all
#   tools/ci.sh bench      # bench smoke + perf-regression gate
#   tools/ci.sh verify     # static legality lint + JIT translation validation
#   tools/ci.sh faults     # just the fault-injection campaign
#   tools/ci.sh jit        # JIT backend: tests, cache hygiene, dead compiler
#   tools/ci.sh shard      # multi-process sharding: suite under ASan, the
#                          # peer:kill / msg:* fault matrix at 2 and 4
#                          # shards (each must descend to L009 with
#                          # bit-identical recovery), clean 1/2/4-shard
#                          # drills, and the overlap window under TSan
#   tools/ci.sh serve      # plan-serving daemon: protocol/cache/fault
#                          # suites + the 5k soak under ASan+UBSan, the
#                          # connection-multiplexing paths under TSan at
#                          # LCDFG_THREADS=2 and 4, and a process-level
#                          # fault matrix (lcdfg-serve + lcdfg-load --raw)
#                          # grepping the documented E/L codes
#   tools/ci.sh tidy       # clang-tidy over src/ (skips if tool absent)
#   tools/ci.sh coverage   # line-coverage report over
#                          # src/{exec,verify,obs,jit,serve}
#
# The tsan stage additionally re-runs the execution-layer and
# observability tests at LCDFG_THREADS in {2, 4}, so the list scheduler
# sees every cross-thread handoff under the race detector. The verify
# stage sweeps every example chain and MiniFluxDiv recipe through
# lcdfg-lint --strict, which exits nonzero on any legality ERROR (and,
# with --trace, bit-compares list-scheduler outputs against the serial
# task-order reference).
#
# The faults stage drives the graceful-degradation ladder end to end:
# every LCDFG_FAULT class is injected into `lcdfg-opt --report` (built
# under ASan+UBSan) and must recover with its documented L00x reason code;
# a hardened (redzone + NaN-guard) clean pass must not false-positive; the
# fuzz smoke (10k mutated parses + the transform stress tester) runs under
# ASan; and the injected-exception pool tests re-run under TSan with the
# worker pool pinned to 2 and 4 threads. docs/ROBUSTNESS.md documents the
# codes this stage greps for.
#
# The bench stage additionally re-measures bench_fig6_small and
# bench_tiling_shapes at their full default sizes and diffs the fresh
# timings against the committed BENCH_*.json baselines with
# tools/bench_compare: any row more than BENCH_TOL (default 0.15 = 15%)
# slower than its baseline fails the stage. bench_fig6_large is excluded
# (longest run, same code paths); bench_serve gates at the looser
# BENCH_SERVE_TOL (default 0.5) because request latencies jitter more
# than compute-bound rows. Set BENCH_GATE=off to skip the gate on
# machines whose timings are not comparable to the committed baselines.
#
# The jit stage exercises the host-compiler kernel backend end to end:
# the test_jit suite under the default and ASan+UBSan builds, then three
# process-level checks against a fresh cache directory — a cold run must
# compile (exec.jit.compiled in --metrics), a second identical run must be
# served from the disk cache (exec.jit.cache.hits), and a flag change
# (LCDFG_JIT_FLAGS) must invalidate the key and recompile. Finally a dead
# host compiler (LCDFG_JIT_CC=/bin/false) must degrade through the
# recovery ladder's L008-jit-unavailable rung with a completed run, never
# an error.
#
# The ubsan stage builds the execution, verification, and JIT suites with
# standalone UBSan at -fno-sanitize-recover=all, so any undefined
# behaviour — including in the KernelVerifier's textual parsing and
# symbolic address walk, which chew on adversarial emission text — aborts
# the test instead of sailing past. (The asan preset keeps its combined
# ASan+UBSan role for the fault campaign; this stage is the stricter
# no-recover variant.)
#
# The verify stage also sweeps every example chain through
# `lcdfg-lint --strict --jit-static`, which statically validates the JIT
# kernel emission for each configuration against its plan footprint (the
# K-code checks of docs/KERNEL-VERIFY.md) without invoking any host
# compiler, and checks that `lcdfg-lint --json` emits parseable JSON per
# line (the schema itself is locked byte-for-byte by test_kernel_verify).
#
# The tidy stage runs clang-tidy (config: .clang-tidy) over src/ using
# the compile database exported by the default preset. The tool is not
# part of the baseline toolchain image, so the stage skips gracefully —
# with a visible notice, not a failure — when clang-tidy is absent.
#
# The coverage stage rebuilds the library with --coverage, runs the
# test_exec / test_verify / test_kernel_verify / test_obs / test_jit /
# test_serve suites, and aggregates gcov line coverage per instrumented
# directory; src/obs (the observability layer this repo's traces and
# counters hang off), src/verify (the legality gate), src/jit (the
# kernel-compilation backend), and src/serve (the plan-serving daemon)
# must each stay at >= 80% lines.
#
#===------------------------------------------------------------------------===#

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc 2>/dev/null || echo 2)}"
PRESETS=("$@")
if [ ${#PRESETS[@]} -eq 0 ]; then
  PRESETS=(default tsan ubsan bench verify faults jit shard serve tidy
    coverage)
fi

bench_smoke() {
  ./build-bench/tests/test_exec
  local JSON=build-bench/BENCH_smoke.json
  MFD_CELLS=4096 MFD_REPS=1 MFD_THREADS=2 BENCH_JSON="${JSON}" \
    ./build-bench/bench/bench_fig6_small
  grep -q '"fuseAll-reduced"' "${JSON}" && grep -q '"batched_on"' "${JSON}"
  echo "bench smoke: ${JSON} has batched rows"
}

# Perf-regression gate: re-measure the quick benches at their full default
# sizes and require every committed baseline row to stay within BENCH_TOL
# of its recorded time (tools/bench_compare exits nonzero otherwise).
bench_gate() {
  if [ "${BENCH_GATE:-on}" = off ]; then
    echo "bench gate: skipped (BENCH_GATE=off)"
    return 0
  fi
  local TOL="${BENCH_TOL:-0.15}" NAME JSON
  local COMMIT
  COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
  for NAME in fig6_small tiling_shapes; do
    JSON="build-bench/BENCH_${NAME}_fresh.json"
    BENCH_JSON="${JSON}" BENCH_COMMIT="${COMMIT}" \
      "./build-bench/bench/bench_${NAME}" >/dev/null
    ./build-bench/tools/bench_compare --tolerance="${TOL}" \
      "BENCH_${NAME}.json" "${JSON}"
  done
  # The serving rows gate at a looser tolerance (BENCH_SERVE_TOL,
  # default 0.5): sub-millisecond request latencies jitter far more
  # than the kernel benches' compute-bound rows, and the row that
  # matters most — warm staying two orders under cold — is asserted
  # unconditionally inside bench_serve itself.
  JSON="build-bench/BENCH_serve_fresh.json"
  BENCH_JSON="${JSON}" BENCH_COMMIT="${COMMIT}" \
    ./build-bench/bench/bench_serve >/dev/null
  ./build-bench/tools/bench_compare \
    --tolerance="${BENCH_SERVE_TOL:-0.5}" BENCH_serve.json "${JSON}"
  echo "bench gate: fresh timings within ${TOL} of committed baselines"
}

# Line coverage of the instrumented library directories, via gcov over the
# build-cov object tree. Prints one summary row per directory and fails
# when a floored directory (src/obs, src/verify) drops below its floor.
coverage_report() {
  local OBJ=build-cov/src/CMakeFiles/lcdfg.dir
  declare -A FLOORS=([obs]=80.0 [verify]=80.0 [jit]=80.0 [serve]=80.0)
  local DIR PCT FLOOR FAIL=0
  for DIR in exec verify obs jit serve; do
    # gcov resolves sources from the .gcda files themselves (CMake's
    # <file>.cpp.gcda naming defeats gcov's -o source lookup).
    # Only count the summary line directly under a matching File header:
    # gcov appends a trailing all-files total with no header of its own,
    # which would otherwise be charged to whichever file came last.
    PCT="$(gcov -n "${OBJ}/${DIR}"/*.gcda 2>/dev/null |
      awk -v dir="src/${DIR}/" '
        /^File /  { f = index($0, dir) > 0 }
        f && /^Lines executed:/ {
          s = $0; sub(/^Lines executed:/, "", s); split(s, a, "% of ")
          hit += a[1] * a[2] / 100; total += a[2]; f = 0
        }
        END { printf "%.1f", total ? 100 * hit / total : 0 }')"
    echo "coverage: src/${DIR}: ${PCT}% lines"
    FLOOR="${FLOORS[${DIR}]:-}"
    if [ -n "${FLOOR}" ] &&
       awk -v p="${PCT}" -v f="${FLOOR}" 'BEGIN { exit !(p < f) }'; then
      echo "coverage: error: src/${DIR} at ${PCT}% is below the ${FLOOR}% floor" >&2
      FAIL=1
    fi
  done
  return "${FAIL}"
}

verify_lint() {
  # --trace also executes every statically-clean configuration at two
  # threads with the span tracer armed and validates the recorded trace
  # against the plan's dependence closure (obs::checkTrace).
  ./build/tools/lcdfg-lint --strict --trace examples/chains
  # Static JIT translation validation: every configuration's emitted
  # kernel text is symbolically checked against its plan footprint
  # (K codes) with no host compiler in the loop.
  ./build/tools/lcdfg-lint --strict --jit-static examples/chains
  # The machine-readable stream must stay machine-readable: every line of
  # --json output parses as a JSON object.
  if command -v python3 >/dev/null 2>&1; then
    ./build/tools/lcdfg-lint --json --jit-static examples/chains |
      python3 -c 'import json, sys
for line in sys.stdin:
    if line.strip():
        json.loads(line)'
    echo "verify: lint --json stream parses"
  fi
}

# clang-tidy over the library and tools, driven by the .clang-tidy config
# at the repo root and the compile database the default preset exports.
# The tool is optional in the toolchain image: absent means skip, loudly.
tidy_stage() {
  if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "tidy: clang-tidy not on PATH; stage skipped"
    return 0
  fi
  cmake --preset default >/dev/null
  if [ ! -f build/compile_commands.json ]; then
    echo "tidy: build/compile_commands.json missing after configure" >&2
    return 1
  fi
  find src tools -name '*.cpp' -print0 |
    xargs -0 -P "${JOBS}" -n 8 clang-tidy -p build --quiet
  echo "tidy: clean under .clang-tidy profile"
}

# One fault-matrix row: inject $1 into lcdfg-opt --report and require a
# completed run whose JSON report carries the expected L00x reason ($2).
# Remaining arguments select the lowering (script, threads, ...).
run_fault() {
  local SPEC="$1" EXPECT="$2" OUT
  shift 2
  OUT="$(LCDFG_FAULT="${SPEC}" ./build-asan/tools/lcdfg-opt --report=json \
         "$@" examples/chains/fig1.lc 2>/dev/null)"
  if ! grep -q '"completed":true' <<<"${OUT}"; then
    echo "fault ${SPEC}: ladder did not complete: ${OUT}" >&2
    return 1
  fi
  if ! grep -q "${EXPECT}" <<<"${OUT}"; then
    echo "fault ${SPEC}: report missing ${EXPECT}: ${OUT}" >&2
    return 1
  fi
  echo "fault ${SPEC}: recovered [${EXPECT}]"
}

fault_campaign() {
  # Transient faults descend one rung (L002); the structural ones are
  # caught deterministically — modulo corruption by the strict verifier
  # gate (L003, needs the modulo-windowed script+reduce lowering) and
  # input truncation by plan-vs-storage validation (L006).
  run_fault kernel:throw L002-worker-exception --threads=2
  # Late occurrence: earlier tasks complete (and publish writes) before
  # the fault fires, exercising the ladder's store snapshot/restore.
  run_fault kernel:throw:2 L002-worker-exception --threads=2
  run_fault task:fail L002-worker-exception --threads=2
  # An infeasible live-temporary budget is refused deterministically
  # (E016) and the ladder waives it: scalar-serial, reason L007.
  OUT="$(./build-asan/tools/lcdfg-opt --report=json --threads=2 \
         --mem-budget=1 examples/chains/fig1.lc 2>/dev/null)"
  if ! grep -q '"completed":true' <<<"${OUT}" ||
     ! grep -q 'L007-mem-budget' <<<"${OUT}"; then
    echo "mem-budget ladder: missing L007-mem-budget recovery: ${OUT}" >&2
    return 1
  fi
  echo "fault --mem-budget=1: recovered [L007-mem-budget]"
  run_fault modulo:corrupt L003-verifier-error \
    --script examples/chains/fig1.script --reduce
  run_fault input:truncate L006-plan-invalid
  # A translation-validation rejection at the JIT gate must keep the run
  # alive on the interpreted bodies, descending through the same L008
  # rung a dead compiler takes.
  run_fault jitval:reject L008-jit-unavailable --kernels=jit
  # Hardened clean pass: the redzone canaries and the NaN read-before-write
  # guard must stay silent on a legal schedule, at every rung.
  ./build-asan/tools/lcdfg-opt --report --harden --threads=2 \
    examples/chains/fig1.lc >/dev/null
  ./build-asan/tools/lcdfg-opt --report --harden --batched=off \
    examples/chains/fig1.lc >/dev/null
  echo "fault campaign: hardened clean passes stayed silent"
  # Fuzz smoke under ASan+UBSan: 10k mutated pragma parses plus the random
  # transform-sequence stress tester.
  ./build-asan/tests/test_fuzz
  # Injected worker exceptions under the race detector, pool pinned small.
  for T in 2 4; do
    echo "== faults: tsan exec suite with LCDFG_THREADS=${T} =="
    LCDFG_THREADS="${T}" ./build-tsan/tests/test_exec \
      --gtest_filter='Recovery.*:FaultInjector.*:FaultSpecParse.*:ThreadPool.*:TaskGraph.*'
  done
}

# One process-level serve fault row: start lcdfg-serve with LCDFG_FAULT
# in its environment, drive one --raw request through lcdfg-load, and
# grep the expected code — an E-code in the client-side status for the
# transport faults, the L002 descent inside an ok response for an
# execution fault the daemon's ladder absorbs. A follow-up clean request
# against the same daemon then proves per-request isolation: the fault
# poisoned one request, not the process.
serve_fault_row() {
  local FAULT="$1" EXPECT="$2" TIMEOUT="$3" OUT
  local SOCK="/tmp/lcdfg-ci-serve-$$-${RANDOM}.sock" PID I
  local REQ='{"chain":"#pragma omplc for domain(0:N) with (x) write OUT{(x)} read IN{(x)}\nS: OUT(x) = g(IN(x));\n","size":16,"threads":2,"checksum":true}'
  rm -f "${SOCK}"
  LCDFG_FAULT="${FAULT}" ./build/tools/lcdfg-serve --unix="${SOCK}" \
    >/dev/null 2>&1 &
  PID=$!
  for I in $(seq 1 100); do [ -S "${SOCK}" ] && break; sleep 0.1; done
  OUT="$(./build/tools/lcdfg-load --unix="${SOCK}" \
         --timeout-ms="${TIMEOUT}" --raw="${REQ}")"
  if ! grep -q "${EXPECT}" <<<"${OUT}"; then
    kill "${PID}" 2>/dev/null || true
    echo "serve fault ${FAULT}: expected ${EXPECT}: ${OUT}" >&2
    return 1
  fi
  OUT="$(./build/tools/lcdfg-load --unix="${SOCK}" --timeout-ms=30000 \
         --raw="${REQ}")"
  kill "${PID}" 2>/dev/null
  wait "${PID}" 2>/dev/null || true
  if ! grep -q '"ok":true' <<<"${OUT}"; then
    echo "serve fault ${FAULT}: daemon did not keep serving: ${OUT}" >&2
    return 1
  fi
  echo "serve fault ${FAULT}: [${EXPECT}], daemon kept serving"
}

# Plan-serving gate: the protocol/cache/fault suites and the full 5k
# randomized soak under ASan+UBSan (the acceptance run — zero restarts,
# bit-identical warm-vs-cold), the connection-multiplexing and shared-
# pool paths under TSan with the worker pool pinned small (the soak is
# excluded there: 5k requests under the race detector would dominate the
# whole CI run; the protocol suite's concurrent-client tests cover the
# same interleavings), then the process-level fault matrix.
serve_stage() {
  ./build-asan/tests/test_serve
  local T
  for T in 2 4; do
    echo "== serve: tsan suite with LCDFG_THREADS=${T} =="
    LCDFG_THREADS="${T}" ./build-tsan/tests/test_serve \
      --gtest_filter='-ServeSoak.*'
  done
  serve_fault_row serve:drop E018-peer-lost 30000
  serve_fault_row serve:truncate E020-protocol 30000
  LCDFG_SERVE_DELAY_MS=2000 \
    serve_fault_row serve:delay E019-exchange-timeout 300
  serve_fault_row kernel:throw L002-worker-exception 30000
}

# JIT backend gate: suite runs under two builds, then cache hygiene and
# the dead-compiler degradation path at the process level.
jit_stage() {
  ./build/tests/test_jit
  ./build-asan/tests/test_jit

  local DIR=build/jit-ci-cache OUT
  rm -rf "${DIR}"
  # Cold cache: the run must invoke the host compiler.
  OUT="$(LCDFG_JIT_DIR="${DIR}" ./build/tools/lcdfg-opt --metrics \
         --kernels=jit examples/chains/fig1.lc 2>&1)"
  if ! grep -q 'exec\.jit\.compiled' <<<"${OUT}"; then
    echo "jit: cold run did not compile: ${OUT}" >&2
    return 1
  fi
  # Warm cache, new process: the same request must load from disk.
  OUT="$(LCDFG_JIT_DIR="${DIR}" ./build/tools/lcdfg-opt --metrics \
         --kernels=jit examples/chains/fig1.lc 2>&1)"
  if ! grep -q 'exec\.jit\.cache\.hits' <<<"${OUT}"; then
    echo "jit: warm run missed the disk cache: ${OUT}" >&2
    return 1
  fi
  # Changed flags are part of the key: the stale objects must not be
  # reused.
  OUT="$(LCDFG_JIT_DIR="${DIR}" LCDFG_JIT_FLAGS=-DLCDFG_CI_SALT \
         ./build/tools/lcdfg-opt --metrics --kernels=jit \
         examples/chains/fig1.lc 2>&1)"
  if ! grep -q 'exec\.jit\.compiled' <<<"${OUT}"; then
    echo "jit: flag change reused a stale cache key: ${OUT}" >&2
    return 1
  fi
  echo "jit: cache hygiene holds (cold compile, warm hit, flag invalidation)"
  # No host compiler: the ladder must keep the run alive on interpreted
  # bodies and report the downgrade, never fail.
  OUT="$(LCDFG_JIT_DIR="${DIR}" LCDFG_JIT_CC=/bin/false \
         ./build/tools/lcdfg-opt --report=json --kernels=jit \
         examples/chains/fig1.lc 2>/dev/null)"
  if ! grep -q '"completed":true' <<<"${OUT}" ||
     ! grep -q 'L008-jit-unavailable' <<<"${OUT}"; then
    echo "jit: dead compiler did not degrade to L008: ${OUT}" >&2
    return 1
  fi
  echo "jit: dead host compiler degraded cleanly [L008-jit-unavailable]"
  # Translation validation sits before the compile: a forced rejection at
  # that gate must take the same L008 path with the run completing on
  # interpreted bodies.
  OUT="$(LCDFG_FAULT=jitval:reject ./build/tools/lcdfg-opt --report=json \
         --kernels=jit examples/chains/fig1.lc 2>/dev/null)"
  if ! grep -q '"completed":true' <<<"${OUT}" ||
     ! grep -q 'L008-jit-unavailable' <<<"${OUT}"; then
    echo "jit: validation rejection did not degrade to L008: ${OUT}" >&2
    return 1
  fi
  echo "jit: validation rejection degraded cleanly [L008-jit-unavailable]"
}

# One shard fault-matrix row: inject $1 into the --shards=$2 drill with a
# short exchange deadline and require the L009 descent — the coordinator
# restores the pre-step snapshot and re-runs serially — to end completed,
# recovered, and bit-identical to the never-sharded oracle.
run_shard_fault() {
  local SPEC="$1" SHARDS="$2" OUT
  OUT="$(LCDFG_FAULT="${SPEC}" LCDFG_SHARD_TIMEOUT_MS=500 \
         ./build-asan/tools/lcdfg-opt --report=json --shards="${SHARDS}" \
         examples/chains/fig1.lc 2>/dev/null)"
  if ! grep -q '"completed":true' <<<"${OUT}" ||
     ! grep -q 'L009-shard-degraded' <<<"${OUT}"; then
    echo "shard fault ${SPEC} x${SHARDS}: no L009 descent: ${OUT}" >&2
    return 1
  fi
  if ! grep -q '"oracle_bit_identical":true' <<<"${OUT}"; then
    echo "shard fault ${SPEC} x${SHARDS}: degraded result diverged from" \
         "the serial oracle: ${OUT}" >&2
    return 1
  fi
  echo "shard fault ${SPEC} x${SHARDS}: recovered [L009-shard-degraded]," \
       "bit-identical"
}

# Multi-process sharding gate: the dedicated suite under ASan+UBSan (the
# coordinator and every forked worker run instrumented), clean 1/2/4-shard
# drills that must stay on their sharded-N rung and match the serial
# oracle bitwise, the fail-operational matrix (peer kill, frame
# truncation, frame drop, past-deadline delay, each at 2 and 4 shards),
# and the interior-compute/gather overlap window under TSan.
shard_stage() {
  ./build-asan/tests/test_shard
  local S OUT
  for S in 1 2 4; do
    OUT="$(./build-asan/tools/lcdfg-opt --report=json --shards="${S}" \
           examples/chains/fig1.lc 2>/dev/null)"
    if ! grep -q '"completed":true' <<<"${OUT}" ||
       ! grep -q "\"final_rung\":\"sharded-${S}\"" <<<"${OUT}" ||
       ! grep -q '"oracle_bit_identical":true' <<<"${OUT}"; then
      echo "shard clean x${S}: expected sharded-${S} + bit-identity:" \
           "${OUT}" >&2
      return 1
    fi
    echo "shard clean x${S}: completed [sharded-${S}], bit-identical"
  done
  for S in 2 4; do
    run_shard_fault peer:kill "${S}"
    run_shard_fault msg:truncate "${S}"
    run_shard_fault msg:drop "${S}"
    # LCDFG_SHARD_DELAY_MS defaults to 3x the exchange deadline, so the
    # delayed frame arrives only after every peer has timed out.
    run_shard_fault msg:delay "${S}"
  done
  # A delay well inside the deadline must be absorbed by the bounded
  # resend retries without any descent.
  OUT="$(LCDFG_FAULT=msg:delay LCDFG_SHARD_DELAY_MS=100 \
         ./build-asan/tools/lcdfg-opt --report=json --shards=2 \
         examples/chains/fig1.lc 2>/dev/null)"
  if ! grep -q '"final_rung":"sharded-2"' <<<"${OUT}" ||
     ! grep -q '"oracle_bit_identical":true' <<<"${OUT}"; then
    echo "shard short-delay: expected retries to absorb a 100ms delay:" \
         "${OUT}" >&2
    return 1
  fi
  echo "shard short-delay: absorbed by resend retries, no descent"
  # The overlap window — interior compute on its own thread while the
  # gather loop applies remote halo slabs — under the race detector. The
  # suite's multi-shard tests pin each worker's local pool to 2 threads;
  # LCDFG_THREADS additionally sizes the in-process rt::parallelFor used
  # by the single-shard and oracle paths.
  local T
  for T in 2 4; do
    echo "== shard: tsan suite with LCDFG_THREADS=${T} =="
    LCDFG_THREADS="${T}" ./build-tsan/tests/test_shard
  done
}

for PRESET in "${PRESETS[@]}"; do
  echo "== preset: ${PRESET} =="
  if [ "${PRESET}" = verify ]; then
    cmake --preset default
    cmake --build --preset default -j "${JOBS}" --target lcdfg-lint
    verify_lint
    continue
  fi
  if [ "${PRESET}" = faults ]; then
    cmake --preset asan
    cmake --build --preset asan -j "${JOBS}" --target lcdfg-opt test_fuzz
    cmake --preset tsan
    cmake --build --preset tsan -j "${JOBS}" --target test_exec
    fault_campaign
    continue
  fi
  if [ "${PRESET}" = jit ]; then
    cmake --preset default
    cmake --build --preset default -j "${JOBS}" --target test_jit lcdfg-opt
    cmake --preset asan
    cmake --build --preset asan -j "${JOBS}" --target test_jit
    jit_stage
    continue
  fi
  if [ "${PRESET}" = shard ]; then
    cmake --preset asan
    cmake --build --preset asan -j "${JOBS}" --target test_shard lcdfg-opt
    cmake --preset tsan
    cmake --build --preset tsan -j "${JOBS}" --target test_shard
    shard_stage
    continue
  fi
  if [ "${PRESET}" = serve ]; then
    cmake --preset asan
    cmake --build --preset asan -j "${JOBS}" --target test_serve
    cmake --preset tsan
    cmake --build --preset tsan -j "${JOBS}" --target test_serve
    cmake --preset default
    cmake --build --preset default -j "${JOBS}" --target lcdfg-serve \
      lcdfg-load
    serve_stage
    continue
  fi
  if [ "${PRESET}" = ubsan ]; then
    cmake --preset ubsan
    cmake --build --preset ubsan -j "${JOBS}"
    ./build-ubsan/tests/test_exec
    ./build-ubsan/tests/test_verify
    ./build-ubsan/tests/test_kernel_verify
    ./build-ubsan/tests/test_jit
    echo "ubsan: exec/verify/kernel_verify/jit suites clean, no recover"
    continue
  fi
  if [ "${PRESET}" = tidy ]; then
    tidy_stage
    continue
  fi
  if [ "${PRESET}" = coverage ]; then
    cmake --preset coverage
    cmake --build --preset coverage -j "${JOBS}" \
      --target test_exec test_verify test_kernel_verify test_obs test_jit \
      test_serve
    # Stale counters from a previous run would dilute the report.
    find build-cov -name '*.gcda' -delete
    ./build-cov/tests/test_exec
    ./build-cov/tests/test_verify
    ./build-cov/tests/test_kernel_verify
    ./build-cov/tests/test_obs
    ./build-cov/tests/test_jit
    ./build-cov/tests/test_serve
    coverage_report
    continue
  fi
  cmake --preset "${PRESET}"
  cmake --build --preset "${PRESET}" -j "${JOBS}"
  if [ "${PRESET}" = bench ]; then
    bench_smoke
    bench_gate
  else
    ctest --preset "${PRESET}" -j "${JOBS}"
  fi
  if [ "${PRESET}" = tsan ]; then
    # The ctest pass runs with the pool's default sizing; re-run the
    # execution and observability suites with the worker pool pinned
    # small, so the work-stealing list scheduler sees few-worker handoffs
    # as the common case TSan watches.
    for T in 2 4; do
      echo "== tsan: LCDFG_THREADS=${T} =="
      LCDFG_THREADS="${T}" ./build-tsan/tests/test_exec
      LCDFG_THREADS="${T}" ./build-tsan/tests/test_obs
    done
  fi
done

echo "ci: all presets green (${PRESETS[*]})"
