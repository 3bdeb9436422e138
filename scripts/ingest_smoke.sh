#!/usr/bin/env bash
# End-to-end smoke test for the persistence tier: generates a CSV, ingests
# it into a snapshot with mcsort_ingest (whose --verify flag already diffs
# both load paths bit-for-bit in-process), then boots mcsort_server over
# the snapshot directory twice — buffered load first, mmap zero-copy load
# after a full restart — and requires net_probe's catalog-table query to
# return the identical group count from both incarnations. Also exercises
# the SAVE_TABLE/LOAD_TABLE wire opcodes through the probe.
#
# Usage: scripts/ingest_smoke.sh [build-dir]   (default: build)
# Env:   MCSORT_SMOKE_PORT (default 0 = ephemeral; the bound port is read
#        back from the server log), MCSORT_SMOKE_ROWS (default 100k)
set -euo pipefail

cd "$(dirname "$0")/.."
build_dir="${1:-build}"
req_port="${MCSORT_SMOKE_PORT:-0}"
rows="${MCSORT_SMOKE_ROWS:-100000}"
drain_timeout=30

ingest_bin="${build_dir}/tools/mcsort_ingest"
server_bin="${build_dir}/tools/mcsort_server"
probe_bin="${build_dir}/tools/net_probe"
for bin in "${ingest_bin}" "${server_bin}" "${probe_bin}"; do
  if [[ ! -x "${bin}" ]]; then
    echo "missing binary: ${bin} (build the mcsort_ingest, mcsort_server," \
         "and net_probe targets first)" >&2
    exit 1
  fi
done

work="$(mktemp -d)"
server_pid=""
cleanup() {
  if [[ -n "${server_pid}" ]] && kill -0 "${server_pid}" 2> /dev/null; then
    kill -9 "${server_pid}" 2> /dev/null || true
  fi
  rm -rf "${work}"
}
trap cleanup EXIT

# The server plans with calibrated costs. Point it at a copy of the
# benchmark's constants: a fresh calibration takes longer than the wait
# for the listening line, and a failed load would overwrite the file.
cp bench/e2e/cost_params.txt "${work}/calibration.txt"
export MCSORT_CALIBRATION="${work}/calibration.txt"

echo "=== generating ${rows}-row CSV ==="
# Columns match net_probe's canned query (filter c, group a+b, sum m).
awk -v n="${rows}" 'BEGIN {
  srand(7); print "a,b,c,m";
  for (i = 0; i < n; i++) {
    printf "%d,city%02d,%d,%d\n",
      int(rand() * 100), int(rand() * 40), int(rand() * 100000),
      int(rand() * 2000) - 1000;
  }
}' > "${work}/smoke.csv"

echo "=== ingesting into a snapshot (with bit-exact --verify) ==="
"${ingest_bin}" --verify --out "${work}/data" "${work}/smoke.csv" smoke

# Starts the server (ephemeral port by default, read back into ${port})
# and retries ONCE when a fixed-port bind lost a race (EADDRINUSE).
start_server() {
  local mmap="$1"
  local log="$2"
  local attempt
  for attempt in 1 2; do
    MCSORT_PORT="${req_port}" MCSORT_N=4096 MCSORT_DATA_DIR="${work}/data" \
      MCSORT_MMAP="${mmap}" "${server_bin}" > "${log}" 2>&1 &
    server_pid=$!
    for _ in $(seq 1 100); do
      if grep -q "mcsort_server listening" "${log}"; then
        port="$(sed -n 's/.*listening on [0-9.]*:\([0-9]*\).*/\1/p' \
          "${log}" | head -1)"
        return 0
      fi
      if ! kill -0 "${server_pid}" 2> /dev/null; then break; fi
      sleep 0.1
    done
    kill -9 "${server_pid}" 2> /dev/null || true
    server_pid=""
    if ((attempt == 1)) \
        && grep -qiE "address already in use|EADDRINUSE" "${log}"; then
      echo "bind race; retrying once" >&2
      continue
    fi
    echo "server never reported listening:" >&2
    cat "${log}" >&2
    exit 1
  done
}

stop_server() {
  local log="$1"
  kill -TERM "${server_pid}"
  local deadline=$((SECONDS + drain_timeout))
  while kill -0 "${server_pid}" 2> /dev/null; do
    if ((SECONDS >= deadline)); then
      echo "server did not drain within ${drain_timeout}s — killing" >&2
      kill -9 "${server_pid}"
      cat "${log}" >&2
      exit 1
    fi
    sleep 0.2
  done
  wait "${server_pid}" || {
    echo "server exited nonzero after SIGTERM" >&2
    cat "${log}" >&2
    exit 1
  }
  server_pid=""
}

run_probe() {
  local out="$1"
  local save_load="$2"
  MCSORT_PORT="${port}" MCSORT_PROBE_TABLE=smoke \
    MCSORT_PROBE_SAVE_LOAD="${save_load}" "${probe_bin}" | tee "${out}"
}

echo "=== pass 1: server with buffered snapshot load (+ SAVE/LOAD opcodes) ==="
start_server 0 "${work}/server1.log"
run_probe "${work}/probe1.out" 1
stop_server "${work}/server1.log"

echo "=== pass 2: restarted server with mmap zero-copy load ==="
start_server 1 "${work}/server2.log"
run_probe "${work}/probe2.out" 0
stop_server "${work}/server2.log"

echo "=== diffing query results across the restart ==="
# Compare the result shape (row and group counts), not the timing suffix.
q1="$(grep '^query:' "${work}/probe1.out" | sed 's/ in .*//')"
q2="$(grep '^query:' "${work}/probe2.out" | sed 's/ in .*//')"
if [[ "${q1}" != "${q2}" ]]; then
  echo "query results diverged across restart/load-path change:" >&2
  echo "  buffered: ${q1}" >&2
  echo "  mmap:     ${q2}" >&2
  exit 1
fi
echo "both passes returned: ${q1}"

echo "=== ingest smoke test passed ==="
