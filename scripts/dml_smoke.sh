#!/usr/bin/env bash
# End-to-end smoke test for the write path: boots mcsort_server with the
# background compactor on an aggressive cadence, drives INSERT/DELETE/
# UPDATE through mcsort_dml with a concurrent writer and reader, waits for
# compaction to fold the delta, then proves durability the hard way —
# SIGKILL (no drain), restart over the same catalog directory, LOAD_TABLE,
# and the post-restart query digest must equal the pre-kill one.
#
# Phase 2 aims the kill at an ACTIVE compaction (100 ms sweep, threshold
# 1, a writer hammering the table). A kill that lands mid-write leaves the
# snapshot writer's `*.tmp` orphan on disk — that is inherent to SIGKILL —
# so the contract under test is two-sided: the tmp+rename commit point
# means the *committed* snapshot is either the old or the new image (never
# a torn one), and the restarted server's attach-time sweep removes every
# orphan. Hence residue is asserted AFTER each restart, and the restarted
# server must load a consistent snapshot.
#
# Usage: scripts/dml_smoke.sh [build-dir]   (default: build)
# Env:   MCSORT_SMOKE_PORT (default 0 = ephemeral; the bound port is read
#        back from the server log), MCSORT_SMOKE_ROWS (default 1<<16)
set -euo pipefail

cd "$(dirname "$0")/.."
build_dir="${1:-build}"
req_port="${MCSORT_SMOKE_PORT:-0}"
rows="${MCSORT_SMOKE_ROWS:-65536}"
drain_timeout=30

server_bin="${build_dir}/tools/mcsort_server"
dml_bin="${build_dir}/tools/mcsort_dml"
for bin in "${server_bin}" "${dml_bin}"; do
  if [[ ! -x "${bin}" ]]; then
    echo "missing binary: ${bin} (build the 'mcsort_server' and 'mcsort_dml'" \
         "targets first)" >&2
    exit 1
  fi
done

work="$(mktemp -d)"
server_pid=""
port=""
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

# Starts the server (ephemeral port by default, read back into ${port})
# with the compactor at `interval_ms`, retrying ONCE on a bind race.
start_server() {
  local interval_ms="$1" log="$2" attempt
  for attempt in 1 2; do
    MCSORT_PORT="${req_port}" MCSORT_N="${rows}" \
      MCSORT_DATA_DIR="${work}/data" \
      MCSORT_COMPACT=1 MCSORT_COMPACT_INTERVAL_MS="${interval_ms}" \
      MCSORT_COMPACT_MIN_ROWS=1 \
      "${server_bin}" > "${log}" 2>&1 &
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

dml() { MCSORT_PORT="${port}" "${dml_bin}" demo "$@"; }

assert_no_tmp_residue() {
  local residue
  residue="$(find "${work}/data" -name '*.tmp' 2> /dev/null || true)"
  if [[ -n "${residue}" ]]; then
    echo "tmp residue left in the catalog after SIGKILL:" >&2
    echo "${residue}" >&2
    exit 1
  fi
}

echo "=== phase 1: DML + concurrent writer/reader + kill/restart ==="
start_server 100 "${work}/server1.log"
echo "server on port ${port}"

# Seed the catalog so LOAD_TABLE has a baseline even if the first
# compaction has not run yet.
dml save

echo "--- applying INSERT / DELETE / UPDATE ---"
dml insert 2000 17
dml delete a eq 3
dml update a eq 5 m 777
dml schema

echo "--- concurrent writer + reader (readers must never block) ---"
dml churn 3 101 &
writer_pid=$!
dml read-loop 3
wait "${writer_pid}"

echo "--- waiting for compaction to fold the delta ---"
dml wait-compact 30
dml schema

digest_before="$(dml digest)"
echo "pre-kill:  ${digest_before}"

echo "--- SIGKILL (no drain) + restart over the same catalog ---"
kill -9 "${server_pid}"
wait "${server_pid}" 2> /dev/null || true
server_pid=""

start_server 100 "${work}/server2.log"
# Attaching the catalog sweeps any `*.tmp` orphan an interrupted snapshot
# writer left behind; after that the directory must be clean.
assert_no_tmp_residue
# The restarted server regenerates the in-memory demo table; LOAD_TABLE
# swaps in the persisted snapshot — the compacted pre-kill image.
dml load
digest_after="$(dml digest)"
echo "post-load: ${digest_after}"
if [[ "${digest_before}" != "${digest_after}" ]]; then
  echo "query digest diverged across SIGKILL + restart + LOAD:" >&2
  echo "  before: ${digest_before}" >&2
  echo "  after:  ${digest_after}" >&2
  exit 1
fi

echo "=== phase 2: SIGKILL aimed at an active compaction ==="
# 100 ms sweeps + threshold 1 + a hammering writer = the kill lands inside
# or between compactions with high probability.
dml churn 2 202 &
writer_pid=$!
sleep 1
kill -9 "${server_pid}"
wait "${server_pid}" 2> /dev/null || true
server_pid=""
wait "${writer_pid}" 2> /dev/null || true  # writer dies with the server

echo "--- restart: orphan sweep + the surviving snapshot must load ---"
start_server 1000 "${work}/server3.log"
assert_no_tmp_residue
dml load
dml schema
dml digest > /dev/null  # queries run against the restored snapshot

echo "--- clean drain still works after all of it ---"
kill -TERM "${server_pid}"
deadline=$((SECONDS + drain_timeout))
while kill -0 "${server_pid}" 2> /dev/null; do
  if ((SECONDS >= deadline)); then
    echo "server did not drain within ${drain_timeout}s — killing" >&2
    kill -9 "${server_pid}"
    exit 1
  fi
  sleep 0.2
done
server_pid=""

echo "=== dml smoke test passed ==="
