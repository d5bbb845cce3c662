#!/usr/bin/env python3
"""Normalize google-benchmark JSON output into the repo's BENCH_*.json shape.

Input: one or more files produced with --benchmark_format=json (optionally
with --benchmark_repetitions=N). Output: a single deterministic JSON
document with one record per (benchmark family, thread count):

  ops_per_sec    — median items_per_second across repetitions
  ns_per_op_p50  — median per-op wall time (real_time, ns) across reps
  ns_per_op_p99  — nearest-rank p99 across reps (≈ max for small N)

plus a `comparisons` block with the acceptance series the perf trajectory
tracks (see docs/PERFORMANCE.md):

  combining_vs_atomic_ops_ratio — RmwBackend seam: throughput of each
      "BM_X/combining" family over its "BM_X/atomic" twin per thread
      count, keyed "X/threads" (> 1.0 means the software combining tree
      beats the hardware atomic on that workload)
  machine_parallel_speedup — whole-machine simulator throughput of
      BM_MachinePar over BM_MachineSeq at matched size k, per worker
      count. Parallel runs are bit-identical to sequential ones, so this
      is a pure same-answer-faster ratio. Only meaningful when host_cpus
      in `config` exceeds the worker count — on a single-core host the
      ratio hovers near 1.0 by construction.
  sim_cycles_per_op — the sim-backend dimension: network cycles per RMW
      for each BM_SimCoordination/<primitive> row, keyed by the family
      suffix with benchmark args folded in ("counter",
      "counter_scale/k=K/combine=C"). Cycle-accounted on the simulated
      Omega machine, so the values are HOST-INDEPENDENT; these are the
      numbers to place against the paper's §6 formulas.
      The counter_scale rows sweep machine size k ∈ {6,8,10} × combine
      policy on/off — the §4.2 curve pair.
  flat_vs_tree_ops_ratio — fourth-substrate crossover: throughput of
      BM_FlatVsTree/flat/w:W over its /tree/w:W twin per thread count,
      keyed "w=W/threads" (> 1.0 means the flat combiner beats the
      combining tree at that width/concurrency).
  lock_tier_ops_ratio — the lock tier against pure spinning: throughput
      of each BM_LockTier/<impl> row (ticket, mcs, clh, futex, combining)
      over its BM_LockTier/spin twin per thread count, keyed
      "<impl>/threads". The spin baseline is the SAME 3-state mutex as
      the futex row, busy-waiting, so the futex/spin quotient isolates
      the parking decision. > 1.0 means the impl beats pure spinning;
      the reading that matters is at thread counts above host_cpus,
      where parked waiters donate their quantum to the lock holder.
      Each row also carries wait_spins/wait_yields/wait_parks/wait_wakes
      counters (summed over threads) from the wait-policy telemetry.
  sharded_vs_single_ops_ratio — fifth-substrate payoff: throughput of
      BM_Sharded/<inner>/s:S over its /single twin (the SAME wrapper at
      one shard, so the quotient isolates sharding, not routing
      overhead), keyed "<inner>/s=S/threads". > 1.0: spreading the hot
      word across S shard lines beats one line at that concurrency.
  tail_latency_p99 — per-op p99 latency in ns from the BM_Sharded rows'
      sampled latency_p99_ns counter, keyed "<inner>/<variant>/threads".

Every comparisons series is wrapped as {"host_cpus": N, "values": {...}}
so a 1-CPU CI artifact cannot be misread as scaling data — the ratios
only mean what they appear to mean when host_cpus covers the thread
counts involved. This wrapper is what bumped the document schema from
krs-bench-v1 (flat {key: value} series) to krs-bench-v2; consumers keying
on the schema string must read series values through the "values" field.

  profiler_hot_lines — contention-profiler acceptance series: hot-line
      count per backend from a tools/krs_profile --json document (schema
      "krs-profile-v1", accepted alongside google-benchmark files).
      Backends with zero hot lines are dropped, so
      `--require profiler_hot_lines` fails when the profiler goes blind.

User counters emitted by a bench (e.g. bench_machine's cycles_per_op,
combine_rate, the direct_rate of BM_BackendCounter/combining and
BM_FlatVsTree/flat/*, and the sim dimension's served_at_root_fraction,
sim_cycles, mean_latency_cycles) are carried into each record as medians
across repetitions.

Percentiles are taken over repetition-level means: google-benchmark does
not expose per-iteration samples, so with R repetitions p99 is the
nearest-rank statistic of R values. Use KRS_BENCH_REPETITIONS to widen.

Stdlib only; no third-party imports.
"""

import argparse
import json
import math
import os
import sys


def percentile(sorted_vals, p):
    """Nearest-rank percentile of an already-sorted list."""
    if not sorted_vals:
        return None
    rank = max(1, math.ceil(p / 100.0 * len(sorted_vals)))
    return sorted_vals[rank - 1]


def parse_name(raw):
    """'BM_X/variant/real_time/threads:8' -> (family, threads)."""
    threads = 1
    parts = []
    for seg in raw.split("/"):
        if seg.startswith("threads:"):
            threads = int(seg.split(":", 1)[1])
        elif seg in ("real_time", "process_time"):
            continue
        else:
            parts.append(seg)
    return "/".join(parts), threads


def to_ns(value, unit):
    scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
    return value * scale[unit]


# google-benchmark serializes user counters (state.counters[...]) as extra
# top-level numeric keys on each benchmark record. Carry the known ones
# through to the normalized output.
COUNTER_KEYS = ("cycles_per_op", "combine_rate", "served_at_root_fraction",
                "direct_rate",
                "combined_fraction", "sim_cycles", "mean_latency_cycles",
                "latency_p50_ns", "latency_p99_ns", "latency_p999_ns",
                "latency_p50_cycles", "latency_p99_cycles",
                "shard_max_share",
                "nack_rate", "declined_fold_rate",
                "wait_spins", "wait_yields", "wait_parks", "wait_wakes")


def collect(files):
    """-> runs {(family, threads)}, context, profiles"""
    runs = {}
    context = {}
    profiles = []
    for path in files:
        try:
            with open(path) as f:
                doc = json.load(f)
        except OSError as e:
            sys.exit(f"normalize.py: cannot read {path}: {e}")
        except json.JSONDecodeError as e:
            sys.exit(f"normalize.py: {path} is not valid JSON: {e}")
        if doc.get("schema") == "krs-profile-v1":
            # A krs_profile contention document, not a google-benchmark
            # run: fold each backend's report into the profiler series.
            for run in doc.get("runs", []):
                report = run.get("report", {})
                profiles.append({
                    "backend": run.get("backend", "?"),
                    "threads": doc.get("threads"),
                    "ops": doc.get("ops"),
                    "hot_lines": report.get("hot_lines", 0),
                    "lines_touched": report.get("lines_touched", 0),
                    "total_conflicts": report.get("total_conflicts", 0),
                })
            if not doc.get("runs"):
                sys.exit(f"normalize.py: {path} contains no profiler runs")
            continue
        ctx = doc.get("context", {})
        context.setdefault("host_cpus", ctx.get("num_cpus"))
        context.setdefault("library_build_type", ctx.get("library_build_type"))
        rows = 0
        for b in doc.get("benchmarks", []):
            # With --benchmark_repetitions, keep the per-repetition runs and
            # skip the synthesized mean/median/stddev/cv aggregate rows.
            if b.get("run_type") == "aggregate":
                continue
            rows += 1
            family, threads = parse_name(b["name"])
            rec = runs.setdefault((family, threads), {"real_ns": [], "ops": []})
            rec["real_ns"].append(to_ns(b["real_time"], b["time_unit"]))
            if "items_per_second" in b:
                rec["ops"].append(b["items_per_second"])
            for key in COUNTER_KEYS:
                if key in b:
                    rec.setdefault(key, []).append(b[key])
        if rows == 0:
            # A bench that built but produced nothing (crashed mid-run,
            # filtered to zero) must not green-wash the pipeline.
            sys.exit(f"normalize.py: {path} contains no benchmark runs")
    return runs, context, profiles


def normalize(runs, context, config, profiles=()):
    benchmarks = []
    for (family, threads), rec in sorted(runs.items()):
        real = sorted(rec["real_ns"])
        ops = sorted(rec["ops"])
        entry = {
            "name": family,
            "threads": threads,
            "reps": len(real),
            "ops_per_sec": percentile(ops, 50),
            "ns_per_op_p50": percentile(real, 50),
            "ns_per_op_p99": percentile(real, 99),
        }
        for key in COUNTER_KEYS:
            if key in rec:
                entry[key] = percentile(sorted(rec[key]), 50)
        benchmarks.append(entry)

    # The backend seam: any family published as both "BM_X/atomic" and
    # "BM_X/combining" yields a combining-over-atomic throughput ratio per
    # thread count, keyed "X/threads". > 1.0: the software combining tree
    # beats the hardware atomic on that workload.
    backend_pairs = {}
    for b in benchmarks:
        if not b["ops_per_sec"]:
            continue
        for variant in ("atomic", "combining"):
            suffix = "/" + variant
            if b["name"].endswith(suffix):
                base = b["name"][: -len(suffix)]
                backend_pairs.setdefault(
                    (base, b["threads"]), {})[variant] = b["ops_per_sec"]
    backend_ratios = {}
    for (base, threads) in sorted(backend_pairs):
        pair = backend_pairs[(base, threads)]
        if "atomic" in pair and "combining" in pair:
            backend_ratios[f"{base}/{threads}"] = round(
                pair["combining"] / pair["atomic"], 3)

    # Whole-machine simulator speedup: BM_MachinePar/k:K/workers:W over
    # BM_MachineSeq/k:K, keyed "k=K/workers=W". The parallel engine is
    # bit-identical to the sequential one, so > 1.0 is the same answer
    # computed faster (expect ≈ 1.0 on hosts with fewer CPUs than workers).
    seq_ops = {}
    par_ops = {}
    for b in benchmarks:
        if not b["ops_per_sec"]:
            continue
        if b["name"].startswith("BM_MachineSeq/k:"):
            seq_ops[b["name"].split("k:", 1)[1]] = b["ops_per_sec"]
        elif b["name"].startswith("BM_MachinePar/k:"):
            k, workers = b["name"].split("k:", 1)[1].split("/workers:")
            par_ops[(k, workers)] = b["ops_per_sec"]
    speedups = {}
    for (k, workers) in sorted(par_ops, key=lambda kw: (int(kw[0]),
                                                        int(kw[1]))):
        if k in seq_ops:
            speedups[f"k={k}/workers={workers}"] = round(
                par_ops[(k, workers)] / seq_ops[k], 3)

    # The sim-backend dimension: cycle-accounted cost per §6 primitive on
    # the simulated Omega machine, keyed by the family suffix with every
    # benchmark arg folded in ("counter",
    # "counter_scale/k=K/combine=C"). These are paper units —
    # deterministic per pattern.
    sim_prefix = "BM_SimCoordination/"
    sim_cycles = {}
    for b in benchmarks:
        if b["name"].startswith(sim_prefix) and "cycles_per_op" in b:
            key = b["name"][len(sim_prefix):].replace(":", "=")
            sim_cycles[key] = round(b["cycles_per_op"], 3)

    # The fourth-substrate crossover: BM_FlatVsTree/flat/w:W throughput
    # over its /tree/w:W twin per thread count, keyed "w=W/threads".
    # > 1.0: the flat combiner beats the combining tree at that
    # width/concurrency (bench/bench_flat_vs_tree.cpp).
    fvt_prefix = "BM_FlatVsTree/"
    fvt_pairs = {}
    for b in benchmarks:
        if b["name"].startswith(fvt_prefix) and b["ops_per_sec"]:
            variant, _, warg = b["name"][len(fvt_prefix):].partition("/")
            fvt_pairs.setdefault(
                (warg.replace(":", "="), b["threads"]), {})[variant] = \
                b["ops_per_sec"]
    flat_vs_tree = {}
    for (warg, threads) in sorted(fvt_pairs):
        pair = fvt_pairs[(warg, threads)]
        if "flat" in pair and "tree" in pair:
            flat_vs_tree[f"{warg}/{threads}"] = round(
                pair["flat"] / pair["tree"], 3)

    # The fifth-substrate payoff: BM_Sharded/<inner>/s:S throughput over
    # its /single twin per thread count, keyed "<inner>/s=S/threads".
    # Both rows run through the sharded wrapper (single = one shard), so
    # > 1.0 is the sharding gain net of routing overhead
    # (bench/bench_sharded.cpp).
    sharded_prefix = "BM_Sharded/"
    sharded_rows = {}
    for b in benchmarks:
        if b["name"].startswith(sharded_prefix) and b["ops_per_sec"]:
            inner, _, variant = b["name"][len(sharded_prefix):].partition("/")
            sharded_rows[(inner, variant, b["threads"])] = b["ops_per_sec"]
    sharded_vs_single = {}
    for (inner, variant, threads) in sorted(sharded_rows):
        if variant == "single":
            continue
        single = sharded_rows.get((inner, "single", threads))
        if single:
            sharded_vs_single[
                f"{inner}/{variant.replace(':', '=')}/{threads}"] = round(
                sharded_rows[(inner, variant, threads)] / single, 3)

    # The lock tier: BM_LockTier/<impl> throughput over its /spin twin
    # per thread count, keyed "<impl>/threads". The spin row is the same
    # 3-state mutex as the futex row without parking, so futex/spin
    # isolates the park decision; read rows with threads > host_cpus for
    # the oversubscription verdict (bench/lock_tier/main.cpp).
    lt_prefix = "BM_LockTier/"
    lt_rows = {}
    for b in benchmarks:
        if b["name"].startswith(lt_prefix) and b["ops_per_sec"]:
            impl = b["name"][len(lt_prefix):]
            lt_rows[(impl, b["threads"])] = b["ops_per_sec"]
    lock_tier = {}
    for (impl, threads) in sorted(lt_rows):
        if impl == "spin":
            continue
        spin = lt_rows.get(("spin", threads))
        if spin:
            lock_tier[f"{impl}/{threads}"] = round(
                lt_rows[(impl, threads)] / spin, 3)

    # §5.6 through the substrates: BM_DlsProtocol/<substrate> rows carry
    # the share of guarded issues the automaton legally declined
    # (nack_rate, keyed "<substrate>/threads") and, on the combining
    # substrates, the fold share; BM_DlsWave/budget:<v> rows pin the
    # wire-budget decline as exact protocol constants (the narrow budget
    # forces every two-value put fold to decline — §7 partial combining).
    # A 0.0 nack rate is data and is KEPT; a missing row means bench_dls
    # never produced protocol rows, which `--require dls_nack_rate` must
    # catch.
    dls_prefix = "BM_DlsProtocol/"
    wave_prefix = "BM_DlsWave/"
    dls_nack = {}
    dls_combine = {}
    for b in benchmarks:
        if b["name"].startswith(dls_prefix) and "nack_rate" in b:
            sub = b["name"][len(dls_prefix):]
            dls_nack[f"{sub}/{b['threads']}"] = round(b["nack_rate"], 4)
            rate = b.get("combine_rate", b.get("combined_fraction"))
            if rate is not None:
                dls_combine[f"{sub}/{b['threads']}"] = round(rate, 3)
        elif b["name"].startswith(wave_prefix) and "combine_rate" in b:
            key = b["name"][len(wave_prefix):].replace(":", "=")
            dls_combine[key] = round(b["combine_rate"], 3)
            if "declined_fold_rate" in b:
                dls_combine[f"{key}/declined"] = round(
                    b["declined_fold_rate"], 3)

    # Tail accounting: p99 per-op latency in ns, from the sharded bench's
    # sampled reservoirs. Zero values are dropped — an unpopulated
    # reservoir must not green-wash `--require tail_latency_p99`.
    tail_p99 = {}
    for b in benchmarks:
        if b["name"].startswith(sharded_prefix) and b.get("latency_p99_ns"):
            key = b["name"][len(sharded_prefix):].replace(":", "=")
            tail_p99[f"{key}/{b['threads']}"] = round(b["latency_p99_ns"], 1)

    # The contention-profiler series: hot lines per profiled backend.
    # Zero-hot-line entries are DROPPED so `--require profiler_hot_lines`
    # fails when a profiler run finds nothing — a blind profiler must not
    # green-wash the pipeline.
    hot_lines = {}
    for prof in profiles:
        if prof["hot_lines"]:
            hot_lines[prof["backend"]] = prof["hot_lines"]

    # Every series carries host_cpus alongside its values: most ratios are
    # only scaling data when the host actually ran the threads in
    # parallel, and the annotation travels with the series even when the
    # document's config block is stripped by a downstream consumer.
    host_cpus = context.get("host_cpus") or os.cpu_count()

    def series(values):
        return {"host_cpus": host_cpus, "values": values}

    comparisons = {}
    if backend_ratios:
        comparisons["combining_vs_atomic_ops_ratio"] = series(backend_ratios)
    if speedups:
        comparisons["machine_parallel_speedup"] = series(speedups)
    if sim_cycles:
        comparisons["sim_cycles_per_op"] = series(sim_cycles)
    if flat_vs_tree:
        comparisons["flat_vs_tree_ops_ratio"] = series(flat_vs_tree)
    if sharded_vs_single:
        comparisons["sharded_vs_single_ops_ratio"] = series(sharded_vs_single)
    if lock_tier:
        comparisons["lock_tier_ops_ratio"] = series(lock_tier)
    if dls_combine:
        comparisons["dls_combine_rate"] = series(dls_combine)
    if dls_nack:
        comparisons["dls_nack_rate"] = series(dls_nack)
    if tail_p99:
        comparisons["tail_latency_p99"] = series(tail_p99)
    if hot_lines:
        comparisons["profiler_hot_lines"] = series(hot_lines)

    cfg = dict(config, **context)
    cfg["host_cpus"] = host_cpus
    return {
        "schema": "krs-bench-v2",
        "generated_by": "tools/run_bench.sh",
        "config": cfg,
        "benchmarks": benchmarks,
        "profiles": list(profiles),
        "comparisons": comparisons,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("files", nargs="+", help="google-benchmark JSON files")
    ap.add_argument("--out", required=True, help="normalized output path")
    ap.add_argument("--min-time", default=None)
    ap.add_argument("--repetitions", type=int, default=None)
    ap.add_argument("--require", action="append", default=[],
                    metavar="SERIES[:KEY]",
                    help="fail unless this comparisons series exists and is "
                         "non-empty (repeatable); with :KEY, additionally "
                         "require some series key to CONTAIN that substring "
                         "(e.g. sim_cycles_per_op:k=10). The CI bench-smoke "
                         "job pins its acceptance series with this")
    args = ap.parse_args()

    runs, context, profiles = collect(args.files)
    if not runs and not profiles:
        sys.exit("normalize.py: no benchmark runs found in inputs")
    config = {}
    if args.min_time is not None:
        config["min_time"] = args.min_time
    if args.repetitions is not None:
        config["repetitions"] = args.repetitions
    doc = normalize(runs, context, config, profiles)
    missing = []
    for req in args.require:
        name, _, key = req.partition(":")
        values = doc["comparisons"].get(name, {}).get("values")
        if not values or (key and not any(key in k for k in values)):
            missing.append(req)
    if missing:
        sys.exit("normalize.py: required comparison series missing or empty: "
                 + ", ".join(missing))
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    summary = "; ".join(f"{name} {series['values']}"
                        for name, series in sorted(doc["comparisons"].items()))
    print(f"wrote {args.out}: {len(doc['benchmarks'])} series"
          + (f"; {summary}" if summary else ""))


if __name__ == "__main__":
    main()
