#!/usr/bin/env python3
"""Compare two krs-bench result sets: BASE (the parent) and CHANGE.

  bench/e2e/compare.py BASE CHANGE

Each side is a result file written by run.sh, or a directory of them (all
*.json inside, pooled). For every workload and end-to-end metric it prints
each side's median and quartiles and one verdict:

  regressed   CHANGE's median is worse than BASE's by more than the
              metric's bound in BENCHMARK.json (error_rate: any error)
  improved    the gain rule holds: at least 10 pairs (repetition i of each
              side, in start order) whose first runner alternates, CHANGE
              better in at least 9/10 of them (ties count for neither), and
              a median gap larger than BASE's interquartile range
  unresolved  either side's spread (IQR / median) exceeds the bound, so
              "no change" cannot be claimed -- unless every CHANGE run is
              better than every BASE run
  unchanged   otherwise

Sets whose host_cpus, threads or seeds differ are refused (exit 2). Exit 1
if any metric regressed.
"""
import json
import sys
from pathlib import Path

from run import load_config, quartiles

MIN_PAIRS = 10
MIN_WIN_FRAC = 0.9


def load_side(path):
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    if not files:
        sys.exit(f"compare: no result files in {path}")
    sets = [json.loads(f.read_text()) for f in files]
    side = {"host_cpus": sorted({s["host_cpus"] for s in sets}),
            "threads": sorted({s["threads"] for s in sets}),
            "seeds": sorted({seed for s in sets for seed in s["seeds"]}),
            "runs": {}}
    for s in sets:
        for w, reps in s["runs"].items():
            side["runs"].setdefault(w, []).extend(reps)
    for reps in side["runs"].values():
        reps.sort(key=lambda r: r["started"])
    return side


def verdict(metric, better, bound, base, change):
    """(verdict, wins, pairs) for one metric; base/change are run lists."""
    if metric == "error_rate":
        bad = any(r["failed"] or r["errors"] for r in change)
        return ("regressed" if bad else "unchanged"), 0, 0
    b = [r["e2e"][metric] for r in base]
    c = [r["e2e"][metric] for r in change]
    sign = 1.0 if better == "higher" else -1.0
    bq1, bmed, bq3 = quartiles(b)
    cq1, cmed, cq3 = quartiles(c)
    pairs = list(zip(base, change))
    wins = sum(1 for rb, rc in pairs
               if sign * (rc["e2e"][metric] - rb["e2e"][metric]) > 0)
    firsts = [rb["started"] < rc["started"] for rb, rc in pairs]
    alternating = all(x != y for x, y in zip(firsts, firsts[1:]))
    if sign * (bmed - cmed) > bound * abs(bmed):
        return "regressed", wins, len(pairs)
    if (len(pairs) >= MIN_PAIRS and alternating and
            wins >= MIN_WIN_FRAC * len(pairs) and
            sign * (cmed - bmed) > bq3 - bq1):
        return "improved", wins, len(pairs)
    spread = max((bq3 - bq1) / bmed if bmed else 0.0,
                 (cq3 - cq1) / cmed if cmed else 0.0)
    all_better = min(sign * x for x in c) > max(sign * x for x in b)
    if spread > bound and not all_better:
        return "unresolved", wins, len(pairs)
    return "unchanged", wins, len(pairs)


def describe(values):
    q1, med, q3 = quartiles(values)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    base, change = load_side(argv[1]), load_side(argv[2])
    for key in ("host_cpus", "threads", "seeds"):
        if base[key] != change[key]:
            print(f"compare: refusing: {key} differs "
                  f"({base[key]} vs {change[key]})")
            return 2
    config = load_config()
    metrics = [(m["name"], m["better"], m["bound"])
               for m in config["end_to_end"]] + [("error_rate", "lower", 0.0)]
    print(f"{'workload':16} {'metric':10} {'base median [q1, q3]':40} "
          f"{'change median [q1, q3]':40} {'wins':>6}  verdict")
    regressed = False
    for w in (x["name"] for x in config["workloads"]):
        if w not in base["runs"] or w not in change["runs"]:
            continue
        b, c = base["runs"][w], change["runs"][w]
        for name, better, bound in metrics:
            v, wins, n = verdict(name, better, bound, b, c)
            regressed = regressed or v == "regressed"
            if name == "error_rate":
                row = (f"{sum(r['failed'] for r in b):<40} "
                       f"{sum(r['failed'] for r in c):<40} {'':>6}")
            else:
                row = (f"{describe([r['e2e'][name] for r in b]):40} "
                       f"{describe([r['e2e'][name] for r in c]):40} "
                       f"{f'{wins}/{n}':>6}")
            print(f"{w:16} {name:10} {row}  {v}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
