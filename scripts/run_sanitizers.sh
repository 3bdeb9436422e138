#!/usr/bin/env bash
# Builds the repo under ThreadSanitizer and AddressSanitizer+UBSan and runs
# the tests covering the morsel-driven parallel executor under each. The
# race-sensitive code is the fork-join/morsel scheduling in ThreadPool, the
# parallel whole-array sorts (merge, counting, and radix's scatter and
# bucket morsels), and the chunk-parallel gather / group scan — all
# exercised by the test set below.
#
# Usage: scripts/run_sanitizers.sh [build-dir-prefix]
#   Creates <prefix>-tsan and <prefix>-asan (default prefix: build).
set -euo pipefail

cd "$(dirname "$0")/.."
prefix="${1:-build}"

# Tests that drive the parallel executor (plus the serial equivalents they
# compare against), the concurrent query-service layer (shared plan cache,
# admission control, multi-session stress), and the network front-end
# (epoll loop vs. executor workers, concurrent histogram recording).
tests=(
  parallel_executor_test
  common_test
  simd_sort_test
  radix_sort_test
  sort_kernels_test
  merge_internal_test
  engine_test
  plan_cache_test
  service_test
  exec_context_test
  metrics_test
  net_test
  io_test
  dist_test
  status_test
  external_sort_test
  delta_test
)

run_flavor() {
  local flavor="$1"
  local sanitize="$2"
  local build_dir="${prefix}-${flavor}"
  echo "=== ${flavor}: configuring ${build_dir} (MCSORT_SANITIZE=${sanitize}) ==="
  cmake -B "${build_dir}" -S . -DMCSORT_SANITIZE="${sanitize}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  cmake --build "${build_dir}" -j "$(nproc)" --target "${tests[@]}"
  local filter
  filter="$(IFS='|'; echo "${tests[*]}")"
  echo "=== ${flavor}: running tests ==="
  (cd "${build_dir}" && ctest --output-on-failure -R "^(${filter})$")
  echo "=== ${flavor}: clean ==="
}

run_flavor tsan thread
run_flavor asan address

echo "All sanitizer runs passed."
