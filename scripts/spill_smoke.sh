#!/usr/bin/env bash
# End-to-end smoke test for the spill (external sort) path: runs the
# external-sort benchmark in --verify mode, which executes a 4-column
# ORDER BY under scratch budgets of 1/2, 1/4, and 1/8 of the in-memory
# plan's estimate and fails unless
#   * every over-budget run actually spilled,
#   * every spilled result is value-identical to the in-memory sort
#     (equal group bounds, same row set per group), and
#   * the spill directory is empty afterwards (zero leaked run files).
#
# The spill directory defaults to tmpfs (/dev/shm) when available so the
# smoke run measures the sort, not the disk; a dedicated-disk run is just
# MCSORT_SPILL_DIR=/path scripts/spill_smoke.sh.
#
# Usage: scripts/spill_smoke.sh [build-dir]   (default: build)
# Env:   MCSORT_N (default 1<<20), MCSORT_REPS (default 1), MCSORT_SPILL_DIR
set -euo pipefail

cd "$(dirname "$0")/.."
build_dir="${1:-build}"
bench_bin="${build_dir}/bench/external_sort"

if [[ ! -x "${bench_bin}" ]]; then
  echo "missing binary: ${bench_bin} (build the 'external_sort' target first)" >&2
  exit 1
fi

if [[ -z "${MCSORT_SPILL_DIR:-}" ]]; then
  if [[ -d /dev/shm && -w /dev/shm ]]; then
    MCSORT_SPILL_DIR="/dev/shm/mcsort-spill-smoke.$$"
  else
    MCSORT_SPILL_DIR="/tmp/mcsort-spill-smoke.$$"
  fi
fi
export MCSORT_SPILL_DIR
export MCSORT_N="${MCSORT_N:-1048576}"
export MCSORT_REPS="${MCSORT_REPS:-1}"

cleanup() {
  rm -rf "${MCSORT_SPILL_DIR}"
}
trap cleanup EXIT

echo "=== spill smoke: n=${MCSORT_N}, dir=${MCSORT_SPILL_DIR} ==="
"${bench_bin}" --verify

# The bench already asserts per-sweep emptiness; double-check nothing at
# all survived the whole run (catches leaks outside the checked sweeps,
# such as the in-memory baseline's).
leftovers=$(find "${MCSORT_SPILL_DIR}" -type f 2> /dev/null | wc -l)
if [[ "${leftovers}" -ne 0 ]]; then
  echo "FAIL: ${leftovers} run files left in ${MCSORT_SPILL_DIR}" >&2
  exit 1
fi
echo "=== spill smoke passed ==="
