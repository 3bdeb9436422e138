#!/usr/bin/env bash
# Runs the four workloads of the end-to-end benchmark on one seed, each
# untraced (end-to-end metrics) and then traced (per-layer metrics), prints
# every metric with its unit and sample count, and merges the records into
# .bench_build/BENCH_<commit>-seed<N>.json.
#
#   bench/e2e/run.sh [--seed N]
#
# Seed 1 is the default; seed 2 is held out, to check a claim on inputs
# that were not used while the change was written. The window length is
# run_seconds from BENCHMARK.json. Exits nonzero if any run failed.
set -euo pipefail
cd "$(dirname "$0")/../.."

seed=1
case "${1:-}" in
  "") ;;
  --seed) seed="${2:?--seed takes a value}" ;;
  *) sed -n '2,11p' "$0" | sed 's/^# \{0,1\}//'; exit 2 ;;
esac
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
commit=$(git rev-parse --short=12 HEAD 2>/dev/null || echo local)
out=.bench_build/BENCH_$commit-seed$seed.json
logs=.bench_build/run-$commit-seed$seed
rm -rf "$logs"
mkdir -p "$logs"

status=0
for workload in olap_tpch serve_mix write_churn spill_sort; do
  for trace in 0 1; do
    log=$logs/$workload-trace$trace.out
    echo "== $workload (seed $seed, trace $trace)"
    python3 bench/e2e/bench.py --workload "$workload" --seed "$seed" \
      --seconds "$seconds" --trace "$trace" > "$log" || status=1
    grep -v -e '^{' -e '^# record' "$log" || true
  done
done
python3 bench/e2e/report.py merge "$out" "$commit" "$logs"/*.out || status=1
exit $status
