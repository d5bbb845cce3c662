#!/usr/bin/env bash
# Reproducible benchmark pipeline: Release build → benches in
# --benchmark_format=json → bench/harness/normalize.py → top-level
# BENCH_*.json (ops/sec + p50/p99 per-op latency per series, plus the
# acceptance comparison series). Four groups:
#
#   BENCH_combining.json — contended combining-tree / coordination benches
#       at 1/2/4/8/16 threads, with the combining-vs-atomic RmwBackend
#       ratio (bench_coordination's BM_*/atomic vs BM_*/combining
#       series), the flat_vs_tree_ops_ratio
#       crossover (bench_flat_vs_tree: FlatCombiningBackend vs
#       CombiningBackend per width and thread count), and the sim-backend
#       sim_cycles_per_op series (BM_SimCoordination/*): cycle-accounted,
#       host-independent costs for counter/barrier/rwlock/semaphore/queue
#       on the simulated Omega machine, including the counter_scale sweep
#       over k ∈ {6,8,10} × combine on/off.
#   BENCH_machine.json   — whole-machine Omega simulation (bench_machine):
#       sequential vs shard-parallel engine at k ∈ {6,8,10}, with the
#       machine_parallel_speedup series and the cycles_per_op /
#       combine_rate simulator counters. Wall-clock speedup is only
#       meaningful when host_cpus (recorded in the JSON config) exceeds
#       the worker count.
#   BENCH_sharded.json   — fifth-substrate payoff curve (bench_sharded):
#       the same counter hotspot through ShardedBackend<Inner> at
#       S ∈ {1,4,8} per inner substrate and 1/2/4/8 threads, with the
#       sharded_vs_single_ops_ratio series (s:S over the SAME wrapper at
#       one shard — read against host_cpus) and the tail_latency_p99
#       series from the benches' sampled latency reservoirs.
#   BENCH_locks.json     — the lock tier (bench_lock_tier): one hot
#       counter through six RMW substrates (spin / ticket / mcs / clh /
#       futex / combining) at threads below, at, and 4× host_cpus, with
#       the lock_tier_ops_ratio series (each impl over the pure-spin
#       baseline per thread count — the futex rows are the
#       spin-vs-park verdict) and per-row wait_spins / wait_yields /
#       wait_parks / wait_wakes telemetry counters.
#
# The end-to-end client-traffic benchmark is krs-bench (bench/e2e/run.sh),
# a separate command.
#
# Usage: tools/run_bench.sh
# Knobs (environment):
#   KRS_BENCH_BUILD        build tree            (default build-bench)
#   KRS_BENCH_MIN_TIME     --benchmark_min_time  (default 0.1; "s" suffix ok)
#   KRS_BENCH_REPETITIONS  --benchmark_repetitions (default 3)
#   KRS_BENCH_OUT          combining output      (default BENCH_combining.json)
#   KRS_BENCH_MACHINE_OUT  machine output        (default BENCH_machine.json)
#   KRS_BENCH_SHARDED_OUT  sharded output        (default BENCH_sharded.json)
#   KRS_BENCH_LOCKS_OUT    lock-tier output      (default BENCH_locks.json)
#
# CI runs the same script with KRS_BENCH_MIN_TIME=0.05 KRS_BENCH_REPETITIONS=1
# as the bench-smoke job; any bench crash fails the pipeline (set -e).
set -euo pipefail

cd "$(dirname "$0")/.."
ROOT="$PWD"
BUILD="${KRS_BENCH_BUILD:-build-bench}"
MIN_TIME="${KRS_BENCH_MIN_TIME:-0.1}"
MIN_TIME="${MIN_TIME%s}"   # tolerate the 1.8+ "0.1s" spelling on older libs
REPS="${KRS_BENCH_REPETITIONS:-3}"
OUT="${KRS_BENCH_OUT:-BENCH_combining.json}"
MACHINE_OUT="${KRS_BENCH_MACHINE_OUT:-BENCH_machine.json}"
SHARDED_OUT="${KRS_BENCH_SHARDED_OUT:-BENCH_sharded.json}"
LOCKS_OUT="${KRS_BENCH_LOCKS_OUT:-BENCH_locks.json}"
JOBS="$(nproc 2>/dev/null || echo 4)"

COMBINING_BENCHES=(bench_combining_tree bench_coordination bench_flat_vs_tree
                   bench_dls)
MACHINE_BENCHES=(bench_machine)
SHARDED_BENCHES=(bench_sharded)
LOCK_BENCHES=(bench_lock_tier)

cmake -B "$BUILD" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD" -j "$JOBS" \
  --target "${COMBINING_BENCHES[@]}" "${MACHINE_BENCHES[@]}" \
  "${SHARDED_BENCHES[@]}" "${LOCK_BENCHES[@]}"

JSON_DIR="$BUILD/bench-json"

# run_group <output.json> <required series (comma-sep, "" for none)>
#           <bench targets...>: run each bench in JSON mode into a
# per-group directory, then normalize the group into one document.
# normalize.py exits non-zero if a bench produced no runs or a required
# comparison series came out missing/empty — a broken run cannot
# green-wash the pipeline.
run_group() {
  local out="$1"
  local requires="$2"
  shift 2
  local dir
  dir="$JSON_DIR/$(basename "$out" .json)"
  mkdir -p "$dir"
  local b
  for b in "$@"; do
    echo "=== $b ==="
    "$BUILD/bench/$b" \
      --benchmark_format=json \
      --benchmark_min_time="$MIN_TIME" \
      --benchmark_repetitions="$REPS" \
      > "$dir/$b.json"
  done
  local require_flags=()
  local s
  if [[ -n "$requires" ]]; then
    IFS=',' read -ra _series <<< "$requires"
    for s in "${_series[@]}"; do
      require_flags+=(--require "$s")
    done
  fi
  python3 bench/harness/normalize.py \
    --out "$out" --min-time "$MIN_TIME" --repetitions "$REPS" \
    "${require_flags[@]}" "$dir"/*.json
}

run_group "$OUT" \
  "combining_vs_atomic_ops_ratio,sim_cycles_per_op,sim_cycles_per_op:counter_scale/k=6,sim_cycles_per_op:counter_scale/k=10,sim_cycles_per_op:combine=0,sim_cycles_per_op:combine=1,sim_cycles_per_op:scenario_hotspot,sim_cycles_per_op:scenario_bursty,sim_cycles_per_op:scenario_closed,flat_vs_tree_ops_ratio,dls_combine_rate,dls_combine_rate:combining/,dls_combine_rate:budget=narrow,dls_nack_rate,dls_nack_rate:atomic/,dls_nack_rate:flat/" \
  "${COMBINING_BENCHES[@]}"
run_group "$MACHINE_OUT" "machine_parallel_speedup" "${MACHINE_BENCHES[@]}"
run_group "$SHARDED_OUT" \
  "sharded_vs_single_ops_ratio,sharded_vs_single_ops_ratio:s=4,sharded_vs_single_ops_ratio:s=8,tail_latency_p99" \
  "${SHARDED_BENCHES[@]}"
run_group "$LOCKS_OUT" \
  "lock_tier_ops_ratio,lock_tier_ops_ratio:futex/,lock_tier_ops_ratio:mcs/,lock_tier_ops_ratio:clh/,lock_tier_ops_ratio:ticket/,lock_tier_ops_ratio:combining/" \
  "${LOCK_BENCHES[@]}"

echo "=== bench pipeline complete: $OUT $MACHINE_OUT $SHARDED_OUT $LOCKS_OUT ==="
