#!/usr/bin/env bash
# Runs krs-sim over the simulator's configuration grid and prints one CSV
# row per run: 3 machines × {faa, lss, mixed} × module combining {0, 1} ×
# policy {none, pairwise, unlimited} × hot {0, 0.5, 1.0} × service
# interval {1, 4} = 324 runs, each at krs-sim's default sizes. Every run
# is checked against Theorem 4.2; the script exits non-zero if any run
# fails to drain or fails the check.
#
# Usage: tools/sim_sweep.sh [path/to/krs-sim]   (default build/tools/krs-sim)
#
# Diffing the output of two builds shows whether a simulator change moved
# any cycle count, latency or counter.
set -uo pipefail

SIM="${1:-build/tools/krs-sim}"
failed=0
echo "module_combining,service_interval,machine,family,hot,policy,cycles,ops,throughput,latency,combines,drained,checked"
for machine in omega bus hypercube; do
  for family in faa lss mixed; do
    for mc in 0 1; do
      for policy in none pairwise unlimited; do
        for hot in 0 0.5 1.0; do
          for si in 1 4; do
            if ! row=$("$SIM" --csv --machine="$machine" --family="$family" \
                --module-combining="$mc" --policy="$policy" --hot="$hot" \
                --service-interval="$si" | tail -n 1); then
              failed=1
            fi
            echo "$mc,$si,$row"
          done
        done
      done
    done
  done
done
exit "$failed"
