#!/usr/bin/env bash
# Quick self-test of the end-to-end benchmark, to run before paying for
# full runs: every workload once in --smoke mode (a single setup, 2 s
# windows), traced, with every result checked. It also checks that the
# metric names and units match BENCHMARK.json, and that each trace parses
# and its median request's span self times add up to that request's
# latency within 5%. Exits nonzero on any failure; under a minute once the
# benchmark is built.
set -euo pipefail
cd "$(dirname "$0")/../.."

logs=.bench_build/smoke
rm -rf "$logs"
mkdir -p "$logs"
status=0
for workload in olap_tpch serve_mix write_churn spill_sort; do
  python3 bench/e2e/bench.py --workload "$workload" --seed 1 --seconds 2 \
    --trace 1 --smoke > "$logs/$workload.out" || {
    echo "FAIL $workload: mcsort_e2e exited nonzero (see $logs/$workload.out)"
    status=1
  }
done

python3 bench/e2e/report.py smoke "$logs"/*.out || status=1
exit $status
