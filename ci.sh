#!/usr/bin/env bash
# Tier-1 CI: Release build + full test suite, the serial-vs-parallel
# benchmark comparison (emitted as BENCH_parallel.json), the undo-log /
# chaos-survival comparison (BENCH_faults.json), a ThreadSanitizer build
# re-running every test with 4 morsel workers, and an ASan+UBSan leg
# running the chaos/fuzz suites under heavy fault injection.
set -euo pipefail
cd "$(dirname "$0")"
JOBS="${JOBS:-$(nproc)}"

# Leg 1: Release build + tests. The chaos / crash-injection suites carry
# the `slow` ctest label; `ctest -LE slow` is the fast local loop, CI runs
# everything.
cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build -j "$JOBS"
(cd build && ctest --output-on-failure -j "$JOBS")

# run_bench OUT GATE MESSAGE BENCH...: runs each bench with DVMS_BENCH_JSON
# pointed at one lines file, wraps the JSON object lines it appends into
# the array OUT, prints OUT, then applies GATE — "no-false" fails when any
# line says "pass": false, "true" fails unless a line says "pass": true,
# "none" only records. --benchmark_filter=__none__ skips the
# google-benchmark loops; the comparison sections run unconditionally
# before them.
run_bench() {
  local out="$1" gate="$2" message="$3" lines bench
  shift 3
  lines="$PWD/build/${out%.json}_lines.jsonl"
  rm -f "$lines"
  for bench in "$@"; do
    DVMS_BENCH_JSON="$lines" "./build/bench/$bench" --benchmark_filter=__none__
  done
  {
    printf '[\n'
    sed -e 's/^/  /' -e '$!s/$/,/' "$lines"
    printf ']\n'
  } > "$out"
  echo "wrote $out:"
  cat "$out"
  case "$gate" in
    no-false) if grep -q '"pass": false' "$out"; then
                echo "$message" >&2; exit 1
              fi ;;
    true) grep -q '"pass": true' "$out" || { echo "$message" >&2; exit 1; } ;;
  esac
}

# Serial vs 4-thread latency on the Figure 1 / Figure 2 workloads.
run_bench BENCH_parallel.json none "" \
  bench_fig1_crossfilter bench_fig2_brushing

# Columnar kernels vs the row interpreter on the Figure 1 chart queries,
# plus the snapshot-size comparison. Gates: bit-identical results with a
# >= 2x vectorized speedup, and the columnar snapshot encoding must be
# smaller than the legacy row format (every line carries a "pass" field).
run_bench BENCH_columnar.json no-false \
  "columnar speedup or snapshot-size gate failed" bench_columnar

# Undo-log overhead (< 10% budget on the fault-free fig2 workload) and
# chaos survival under injected faults.
run_bench BENCH_faults.json none "" bench_faults

# Interaction-log throughput per DVMS_WAL_FSYNC group-commit mode and
# cold-start recovery time (log replay vs snapshot + suffix).
run_bench BENCH_recovery.json none "" bench_recovery

# Observability overhead: the tracing-disabled guard must bound under 2%
# of the fig2 brushing workload (the "pass" field in BENCH_obs.json).
run_bench BENCH_obs.json true "observability overhead budget exceeded" \
  bench_obs

# Resource-governor overhead: an armed-but-untriggered governor (deadline
# + memory budget with roomy limits) must stay under 2% of the unarmed
# engine on the fig2 workload; the same binary reports deadline-abort
# latency and the abort/rollback exercise.
run_bench BENCH_governor.json true "governor overhead budget exceeded" \
  bench_governor

# Concurrent-session read throughput: serial vs 2/4/8 reader sessions and
# reads under a continuous writer. The gate is 1-core-safe: the best
# concurrent throughput must be >= 85% of serial (no-regression), with the
# scalability shape recorded per thread count.
run_bench BENCH_sessions.json no-false \
  "concurrent session reads regressed below serial" bench_sessions

# Replication: tail-apply throughput + steady-state lag, failover promotion
# time, and tailing under injected replication faults. Gates are
# 1-core-safe: the replica must converge to the primary's final LSN (zero
# lag after quiesce), promotion must yield a writable engine, and faults
# may only slow the tail, never break convergence.
run_bench BENCH_replication.json no-false \
  "replication diverged, stalled, or failed to promote" bench_replication

# Integrity-scrubber cost: a 20ms background scrub cadence must stay under
# 2% of the scrubber-off durable workload ("pass" in BENCH_scrub.json);
# the same binary records per-pass latency and a detection/quarantine
# smoke on a flipped byte in a sealed segment.
run_bench BENCH_scrub.json no-false \
  "scrubber overhead budget exceeded or detection failed" bench_scrub

# Cluster routing: the healthy routed-read path must stay within 5% of
# direct engine reads, a mid-stream primary kill must lose zero
# acknowledged commits (the blackout window is recorded), and hedged-read
# accounting must balance exactly (won + lost == launched).
run_bench BENCH_cluster.json no-false \
  "cluster routing overhead, failover, or hedge accounting regressed" \
  bench_cluster

# Env-fault chaos sweep: seeded disk-fault injection (DVMS_IO_FAULTS)
# driven through the storage Env layer over the durability and replication
# workloads. Injected EIO/ENOSPC/short-write/fsync-fail may fail
# individual operations or degrade the engine to read-only — never crash
# the process. Recovery, rollback, and replica-apply paths run
# fault-exempt by design, so every run must terminate cleanly.
for seed in 1 2 3; do
  DVMS_IO_FAULTS="${seed}:0.005" ./build/bench/bench_recovery \
    --benchmark_filter=__none__ >/dev/null
  DVMS_IO_FAULTS="${seed}:0.01:write,fsync" ./build/bench/bench_replication \
    --benchmark_filter=__none__ >/dev/null
  DVMS_IO_FAULTS="${seed}:0.02" ./build/bench/bench_scrub \
    --benchmark_filter=__none__ >/dev/null
  # Routed writes under seeded disk faults: retries, degraded-mode
  # backoff, breaker trips, poisoned-primary condemnation, and failover
  # all fire along this leg — the process must still terminate cleanly.
  DVMS_IO_FAULTS="${seed}:0.01:write,fsync" ./build/bench/bench_cluster \
    --benchmark_filter=__none__ >/dev/null
done
echo "env-fault chaos sweep passed"

# Leg 2: ThreadSanitizer build; DVMS_THREADS=4 forces real morsel
# parallelism through every test regardless of host core count — including
# the linearizability stress harness (1/2/4/8 reader sessions racing the
# writer) and the session/snapshot-isolation suites, which is where reader
# concurrency races would surface.
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DDVMS_SANITIZE=thread
cmake --build build-tsan -j "$JOBS"
(cd build-tsan && DVMS_THREADS=4 ctest --output-on-failure -j "$JOBS")

# Leg 3: AddressSanitizer + UndefinedBehaviorSanitizer chaos leg — the
# chaos differential, crash-injection/recovery, durability codec,
# scheduler-degradation, observability/EXPLAIN, fuzz, Online Optimizer /
# crossfilter-cube, rasterizer span-clipping, and request-context /
# thread-pool suites, then the
# fault workload driven by a process-wide DVMS_FAULTS spec: any leak, UB,
# or use-after-rollback in the recovery paths fails the build.
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DDVMS_SANITIZE=address,undefined
cmake --build build-asan -j "$JOBS"
(cd build-asan && ctest --output-on-failure -j "$JOBS" \
  -R 'Chaos|Fault|Scheduler|Fuzz|UndoRedoBoundary|Crash|Durability|Recovery|Wal|Snapshot|Crc32c|Obs|Explain|Governor|QueryContext|Admission|Linearizability|Session|Replication|Replica|Env|Scrub|Degraded|Columnar|Cluster|VersionedTable|Optimizer|Crossfilter|CubeProperties|AdoptedView|Rasterizer|PixelBuffer|RenderOrder|RequestContext|ThreadPool|ParallelStress')
DVMS_FAULTS="7:0.01" ./build-asan/bench/bench_faults \
  --benchmark_filter=__none__ >/dev/null && echo "asan chaos leg passed"
# Governed-abort leg: deadline/cancel/memory-budget aborts and their
# rollbacks must be leak- and UB-free; DVMS_DEADLINE_MS additionally
# drives real deadline aborts through the env-resolved config path.
DVMS_DEADLINE_MS=50 ./build-asan/bench/bench_governor \
  --benchmark_filter=__none__ >/dev/null && echo "asan governor leg passed"
# EXPLAIN ANALYZE + dvms_metrics smoke with tracing force-enabled: the
# traced hot paths (registry, span ring, system-relation refresh) must be
# clean under ASan/UBSan too.
DVMS_TRACE=1 ./build-asan/bench/bench_obs \
  --benchmark_filter=__none__ >/dev/null && echo "asan obs smoke passed"

echo "ci.sh: all legs passed"
