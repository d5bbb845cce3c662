#!/usr/bin/env python3
"""krs-bench runner: build the driver, self-test it, run the workloads.

Run from anywhere inside a checkout (bench/e2e/run.sh calls this):

  run.sh [--seed=N] [--trace] [--seconds=S] [--reps=R] [--out=PATH]
      Every workload, R repetitions each (default 10), interleaved
      W1..W4, W1..W4, ..., each repetition in a fresh process. --seconds is
      the timed time per workload (default: run_seconds in BENCHMARK.json),
      split evenly over its repetitions. Prints "workload metric value unit"
      for every end-to-end metric (median, with IQR and sample count) and
      writes the result set for compare.py to PATH (default
      build-e2e/results/<time>-seed<N>.json). --trace adds one traced
      repetition per workload, prints the per-layer metrics, and writes a
      Chrome trace to build-e2e/trace/<workload>.json.

  run.sh --workload NAME --seed N --seconds S --trace 0|1
      One workload. R repetitions (R-1 plus one traced with --trace 1);
      the last line of stdout is one JSON object with the keys correct,
      attempted, failed and metrics (the end-to-end metrics, or with
      --trace 1 the per-layer metrics, named as in BENCHMARK.json).

Exit status is non-zero if the build, the self-test or any correctness
check fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build-e2e"
BINARY = BUILD / "krs-bench"


def load_config():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def quartiles(xs):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log(f"krs-bench: {msg}")
    sys.exit(1)


def build():
    if not (ROOT / "src").is_dir():
        fail(f"no src/ under {ROOT}: krs-bench builds the repository's sources")
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j",
                  str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True, timeout=840)
        if p.returncode != 0:
            log(p.stdout)
            fail("build failed")
    p = subprocess.run([str(BINARY), "--selftest"], stdout=subprocess.PIPE,
                       stderr=subprocess.STDOUT, text=True, timeout=60)
    if p.returncode != 0:
        log(p.stdout)
        fail("self-test failed")


def run_rep(workload, seed, window_s, trace_path=None):
    """One repetition in a fresh process; its JSON record, or None if it
    crashed or hung. A record with errors or failed ops means a failed
    correctness check."""
    cmd = [str(BINARY), f"--workload={workload}", f"--seed={seed}",
           f"--window-s={window_s}"]
    if trace_path is not None:
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        cmd.append(f"--trace={trace_path}")
    started = time.time()
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=window_s + 60)
    except subprocess.TimeoutExpired:
        log(f"{workload}: repetition timed out")
        return None
    lines = p.stdout.strip().splitlines()
    if p.returncode not in (0, 1) or not lines:
        log(f"{workload}: repetition exited with {p.returncode}")
        return None
    rec = json.loads(lines[-1])
    rec["started"] = started
    if trace_path is not None:
        try:
            with open(trace_path) as f:
                events = json.load(f)["traceEvents"]
            rec["trace_spans"] = len(events)
        except (OSError, ValueError, KeyError) as e:
            rec["errors"].append(f"trace is not valid Chrome JSON: {e}")
    return rec


def rep_ok(rec):
    return rec is not None and rec["failed"] == 0 and not rec["errors"]


def end_to_end(config, reps):
    """Median, quartiles and count of every end-to-end metric over the
    untraced repetitions, plus the pooled error_rate."""
    out = {}
    for m in config["end_to_end"]:
        q1, med, q3 = quartiles([r["e2e"][m["name"]] for r in reps])
        out[m["name"]] = {"value": med, "q1": q1, "q3": q3, "n": len(reps),
                          "unit": m["unit"]}
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    out["error_rate"] = {"value": failed / attempted, "q1": 0.0, "q3": 0.0,
                         "n": len(reps), "unit": "fraction"}
    return out


def per_layer(reps, traced):
    """Telemetry and harness numbers: medians over the untraced
    repetitions. Span timings: the traced repetition."""
    keys = {k for r in reps for k in r["layer"]}
    out = {k: statistics.median([r["layer"][k] for r in reps
                                 if k in r["layer"]]) for k in keys}
    q1, med, q3 = quartiles([r["e2e"]["ops_per_s"] for r in reps])
    out["bench.ops_per_s_iqr_frac"] = (q3 - q1) / med if med else 0.0
    if traced is not None:
        for k, v in traced["layer"].items():
            out.setdefault(k, v)
        out["bench.trace_overhead"] = (
            1.0 - traced["e2e"]["ops_per_s"] / med if med else 0.0)
    return out


def fmt(v):
    return f"{v:.6g}"


def print_e2e(workload, e2e):
    for name, s in e2e.items():
        spread = (s["q3"] - s["q1"]) / s["value"] if s["value"] else 0.0
        print(f"{workload} {name} {fmt(s['value'])} {s['unit']}"
              f"  (iqr {spread:.1%}, n={s['n']})")


def print_layer(config, workload, layer):
    units = {m["name"]: m["unit"] for m in config["per_layer"]}
    for name in sorted(layer):
        unit = units.get(name, "ns" if "_ns." in name else "")
        print(f"{workload} {name} {fmt(layer[name])} {unit}")


def host_label(rec):
    return "serialized" if rec["host_cpus"] < rec["threads"] else "parallel"


def run_one(config, args):
    """The single-workload form: one JSON result line."""
    names = [w["name"] for w in config["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r} (have {', '.join(names)})")
    traced = args.trace == "1"
    window = args.seconds / args.reps
    reps = []
    for _ in range(args.reps - 1 if traced else args.reps):
        reps.append(run_rep(args.workload, args.seed, window))
    trace = None
    if traced:
        trace = run_rep(args.workload, args.seed, window,
                        BUILD / "trace" / f"{args.workload}.json")
    every = reps + ([trace] if traced else [])
    if any(r is None for r in every):
        fail("a repetition did not complete")
    e2e = end_to_end(config, reps)
    log(f"{args.workload}: {host_label(reps[0])}, "
        f"threads={reps[0]['threads']}")
    if traced:
        values = per_layer(reps, trace)
        metrics = {m["name"]: {"value": values.get(m["name"], 0.0),
                               "unit": m["unit"]}
                   for m in config["per_layer"]}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]]["value"],
                               "unit": m["unit"]}
                   for m in config["end_to_end"]}
    correct = all(rep_ok(r) for r in every)
    for r in every:
        for e in r["errors"]:
            log(f"{args.workload}: correctness check failed: {e}")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in every),
        "failed": sum(r["failed"] for r in every),
        "metrics": metrics,
    }))
    return 0 if correct else 1


def run_all(config, args):
    """The whole suite: interleaved repetitions, then the traced ones."""
    names = [w["name"] for w in config["workloads"]]
    window = args.seconds / args.reps
    runs = {w: [] for w in names}
    ok = True
    for i in range(args.reps):
        for w in names:
            rec = run_rep(w, args.seed, window)
            ok = ok and rep_ok(rec)
            if rec is None:
                fail(f"{w}: repetition {i + 1} did not complete")
            runs[w].append(rec)
            log(f"[{i + 1}/{args.reps}] {w}: "
                f"{rec['e2e']['ops_per_s'] / 1e6:.3f} Mops/s")
    traces = {}
    if args.trace == "1":
        for w in names:
            rec = run_rep(w, args.seed, window, BUILD / "trace" / f"{w}.json")
            if rec is None:
                fail(f"{w}: traced repetition did not complete")
            ok = ok and rep_ok(rec)
            traces[w] = rec
    first = runs[names[0]][0]
    print(f"host_cpus={first['host_cpus']} threads={first['threads']} "
          f"({host_label(first)}) seed={args.seed} reps={args.reps} "
          f"window_s={window:g}")
    for w in names:
        print_e2e(w, end_to_end(config, runs[w]))
        for r in runs[w] + ([traces[w]] if w in traces else []):
            for e in r["errors"]:
                print(f"{w} FAILED {e}")
    for w, rec in traces.items():
        print_layer(config, w, per_layer(runs[w], rec))
        print(f"{w} trace {BUILD / 'trace' / (w + '.json')} "
              f"({rec.get('trace_spans', 0)} spans)")
    out = Path(args.out) if args.out else (
        BUILD / "results" /
        f"{time.strftime('%Y%m%d-%H%M%S')}-seed{args.seed}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as f:
        json.dump({"schema": "krs-bench-results-v1",
                   "host_cpus": first["host_cpus"],
                   "threads": first["threads"], "seeds": [args.seed],
                   "window_s": window, "runs": runs, "traced": traces}, f)
    print(f"results {out}")
    return 0 if ok else 1


def main():
    config = load_config()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=config["run_seconds"])
    ap.add_argument("--reps", type=int, default=10)
    ap.add_argument("--trace", nargs="?", const="1", default="0",
                    choices=["0", "1"])
    ap.add_argument("--out")
    args = ap.parse_args()
    traced_one = args.workload and args.trace == "1"
    if args.reps < (2 if traced_one else 1) or not 0 < args.seconds <= 600:
        ap.error("need --reps >= 1 (2 with --workload --trace 1) "
                 "and 0 < --seconds <= 600")
    build()
    return run_one(config, args) if args.workload else run_all(config, args)


if __name__ == "__main__":
    sys.exit(main())
