#!/usr/bin/env bash
# End-to-end smoke test for the distributed tier: shards the demo table
# with mcsort_shard, boots three shard servers plus a replica of shard 0
# and one server with the unsharded table, then drives mcsort_coord
# through both query shapes (GROUP BY with stitched aggregates, ORDER BY
# with global oids) requiring bit-identical output vs. the single-node
# server. Then it SIGKILLs shard 0's primary and re-runs the coordinator
# with the replica listed as failover — the query must still succeed and
# still verify bit-identical. A coordinator that cannot survive one dead
# process fails the script. Last, it runs once more with only the dead
# primary listed for shard 0: that fan-out must fail with a typed
# `dist status=unavailable` (exit nonzero) and report shard 0 as
# `status=not_connected`, never a partial answer.
#
# Usage: scripts/cluster_smoke.sh [build-dir]   (default: build)
# Env:   MCSORT_SMOKE_BASE_PORT (default 0 = ephemeral — every server
#        binds port 0 and the script reads the kernel-assigned port back
#        from its log, so parallel CI jobs cannot collide),
#        MCSORT_SMOKE_ROWS (default 1<<17)
set -euo pipefail

cd "$(dirname "$0")/.."
build_dir="${1:-build}"
base_port="${MCSORT_SMOKE_BASE_PORT:-0}"
rows="${MCSORT_SMOKE_ROWS:-131072}"

shard_bin="${build_dir}/tools/mcsort_shard"
coord_bin="${build_dir}/tools/mcsort_coord"
server_bin="${build_dir}/tools/mcsort_server"
for bin in "${shard_bin}" "${coord_bin}" "${server_bin}"; do
  if [[ ! -x "${bin}" ]]; then
    echo "missing binary: ${bin} (build the 'mcsort_shard', 'mcsort_coord'," \
         "and 'mcsort_server' targets first)" >&2
    exit 1
  fi
done

data_dir="$(mktemp -d)"
declare -a pids=()
cleanup() {
  for pid in "${pids[@]}"; do
    kill -9 "${pid}" 2> /dev/null || true
  done
  rm -rf "${data_dir}"
}
trap cleanup EXIT

# The server plans with calibrated costs. Point it at a copy of the
# benchmark's constants: a fresh calibration takes longer than the wait
# for the listening line, and a failed load would overwrite the file.
cp bench/e2e/cost_params.txt "${data_dir}/calibration.txt"
export MCSORT_CALIBRATION="${data_dir}/calibration.txt"

# Port layout: full server, shard 0/1/2 primaries, shard 0 replica.
# base_port=0 (the default) binds ephemeral ports; the actual port is
# parsed back from each server's startup line.
port_of() { # index -> requested port
  if ((base_port == 0)); then echo 0; else echo $((base_port + $1)); fi
}

echo "=== sharding ${rows} demo rows into 3 shards (+ unsharded copy) ==="
"${shard_bin}" --demo "${rows}" --shards 3 --mode hash --table part \
  --full "${data_dir}"

# Starts one server, waits for its listening line, and retries ONCE when
# the bind lost a race (EADDRINUSE) — the flake mode of fixed-port CI runs.
start_server() {
  local dir="$1" port="$2" log="$3" attempt pid
  for attempt in 1 2; do
    MCSORT_DATA_DIR="${dir}" MCSORT_PORT="${port}" \
      "${server_bin}" > "${log}" 2>&1 &
    pid=$!
    disown "${pid}"  # no job-control "Killed" noise when cleanup reaps them
    for _ in $(seq 1 100); do
      if grep -q "mcsort_server listening" "${log}" 2> /dev/null; then
        pids+=("${pid}")
        return 0
      fi
      if ! kill -0 "${pid}" 2> /dev/null; then break; fi
      sleep 0.1
    done
    kill -9 "${pid}" 2> /dev/null || true
    if ((attempt == 1)) \
        && grep -qiE "address already in use|EADDRINUSE" "${log}"; then
      echo "bind race on ${log}; retrying once" >&2
      continue
    fi
    echo "server ${log} never reported listening:" >&2
    cat "${log}" >&2
    exit 1
  done
}

# The port the server in `log` actually bound.
bound_port() {
  sed -n 's/.*listening on [0-9.]*:\([0-9]*\).*/\1/p' "$1" | head -1
}

echo "=== starting 5 servers (full, 3 shard primaries, shard 0 replica) ==="
start_server "${data_dir}/full" "$(port_of 0)" "${data_dir}/full.log"
start_server "${data_dir}/shard0" "$(port_of 1)" "${data_dir}/s0.log"
start_server "${data_dir}/shard1" "$(port_of 2)" "${data_dir}/s1.log"
start_server "${data_dir}/shard2" "$(port_of 3)" "${data_dir}/s2.log"
start_server "${data_dir}/shard0" "$(port_of 4)" "${data_dir}/s0r.log"

full_port="$(bound_port "${data_dir}/full.log")"
s0_port="$(bound_port "${data_dir}/s0.log")"
s1_port="$(bound_port "${data_dir}/s1.log")"
s2_port="$(bound_port "${data_dir}/s2.log")"
s0_replica_port="$(bound_port "${data_dir}/s0r.log")"

run_coord() {
  "${coord_bin}" --table part \
    --shard "$1" \
    --shard "127.0.0.1:${s1_port}" \
    --shard "127.0.0.1:${s2_port}" \
    --verify "127.0.0.1:${full_port}" \
    "${@:2}"
}

echo "=== distributed GROUP BY vs single-node ==="
run_coord "127.0.0.1:${s0_port}" --metrics \
  | tee "${data_dir}/group.out"
grep -q "bit-identical" "${data_dir}/group.out"

echo "=== distributed ORDER BY vs single-node ==="
run_coord "127.0.0.1:${s0_port}" --query order | tee "${data_dir}/order.out"
grep -q "bit-identical" "${data_dir}/order.out"

echo "=== induced failure: SIGKILL shard 0 primary, expect failover ==="
s0_pid="${pids[1]}"
kill -9 "${s0_pid}"
# The dead primary stays first in the endpoint list; the replica must
# answer after the typed retry, and the result must still verify.
run_coord "127.0.0.1:${s0_port},127.0.0.1:${s0_replica_port}" \
  | tee "${data_dir}/failover.out"
grep -q "bit-identical" "${data_dir}/failover.out"
grep -q "shard 0: endpoint=1" "${data_dir}/failover.out" || {
  echo "shard 0 did not fail over to the replica endpoint" >&2
  exit 1
}

echo "=== shard 0 with only its dead primary: expect a typed failure ==="
if run_coord "127.0.0.1:${s0_port}" > "${data_dir}/dead.out" 2>&1; then
  cat "${data_dir}/dead.out"
  echo "coordinator succeeded with every shard 0 endpoint dead" >&2
  exit 1
fi
cat "${data_dir}/dead.out"
grep -q "dist status=unavailable" "${data_dir}/dead.out" || {
  echo "fan-out with a dead shard did not report dist status=unavailable" >&2
  exit 1
}
grep -qE "^shard 0: .* status=not_connected" "${data_dir}/dead.out" || {
  echo "shard 0 was not reported as not_connected" >&2
  exit 1
}

echo "=== cluster smoke test passed ==="
