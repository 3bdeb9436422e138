#!/usr/bin/env bash
# Compares two mcsort source trees on the end-to-end benchmark, or measures
# one tree's run-to-run noise.
#
#   bench/e2e/compare.sh <tree-a> <tree-b> [--seed S]
#       Runs 10 pairs per workload, alternating which tree goes first, all
#       on seed S (default 1). A is the parent, B the change. Reports each
#       side's median and quartiles per end-to-end metric, how many pairs B
#       won, and a verdict: "better" or "worse" only when one side wins at
#       least 9 pairs in 10 and the medians are further apart than A's
#       interquartile range, otherwise "unresolved"; "past bound" when B's
#       median is worse than A's by more than the metric's bound.
#   bench/e2e/compare.sh --noise <tree> [--runs N]
#       Runs each workload N times (default 5) on seeds 1..N and prints each
#       metric's spread, (q3 - q1) / median, against its bound.
#
# Both sides run this checkout's benchmark code (bench/e2e) built against
# each tree's library, with the window length from BENCHMARK.json. Raw
# results land in .bench_build/compare-<time>/results.jsonl.
set -euo pipefail
cd "$(dirname "$0")/../.."

usage() { sed -n '2,19p' "$0" | sed 's/^# \{0,1\}//'; exit 2; }

pairs=10
workloads="olap_tpch serve_mix write_churn spill_sort"
mode=pairs
trees=()
runs=5
seed=1
while [[ $# -gt 0 ]]; do
  case "$1" in
    --noise) mode=noise; shift ;;
    --runs) runs="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    -*) usage ;;
    *) trees+=("$1"); shift ;;
  esac
done
if [[ $mode == pairs && ${#trees[@]} -ne 2 ]] || [[ $mode == noise && ${#trees[@]} -ne 1 ]]; then
  usage
fi
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

out=.bench_build/compare-$(date +%Y%m%d-%H%M%S)
mkdir -p "$out"
results=$out/results.jsonl

# run <side> <tree> <workload> <seed> <pair>: one untraced run, one line of
# results.jsonl.
run() {
  local side=$1 tree=$2 workload=$3 run_seed=$4 pair=$5
  local log=$out/$side-$workload-$pair.out status=0
  python3 bench/e2e/bench.py --mcsort-root "$tree" --workload "$workload" \
    --seed "$run_seed" --seconds "$seconds" --trace 0 > "$log" || status=$?
  python3 bench/e2e/report.py collect "$log" "$side" "$workload" "$pair" \
    "$status" >> "$results"
  echo "$side pair $pair $workload: exit $status" >&2
}

if [[ $mode == pairs ]]; then
  for ((i = 1; i <= pairs; i++)); do
    for w in $workloads; do
      if ((i % 2)); then
        run a "${trees[0]}" "$w" "$seed" "$i"
        run b "${trees[1]}" "$w" "$seed" "$i"
      else
        run b "${trees[1]}" "$w" "$seed" "$i"
        run a "${trees[0]}" "$w" "$seed" "$i"
      fi
    done
  done
  python3 bench/e2e/report.py compare "$results"
else
  for ((i = 1; i <= runs; i++)); do
    for w in $workloads; do
      run noise "${trees[0]}" "$w" "$i" "$i"
    done
  done
  python3 bench/e2e/report.py noise "$results"
fi
