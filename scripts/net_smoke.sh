#!/usr/bin/env bash
# End-to-end smoke test for the network front-end: boots mcsort_server on
# loopback, runs net_probe against it (handshake, schema, a real query,
# metrics, and the malformed-frame fuzz corpus), then sends SIGTERM and
# requires a clean drain within a bounded window. A server that ignores
# the signal or wedges mid-drain is killed hard and the script fails —
# graceful shutdown is part of the contract, not best-effort. A second
# server then runs the probe under a 64 KiB scratch budget: its query must
# spill into the MCSORT_SPILL_DIR it was given and leave that directory
# empty.
#
# Usage: scripts/net_smoke.sh [build-dir]   (default: build)
# Env:   MCSORT_SMOKE_PORT (default 0 = ephemeral; the bound port is read
#        back from the server log, so parallel CI jobs cannot collide),
#        MCSORT_SMOKE_ROWS (default 1<<18)
set -euo pipefail

cd "$(dirname "$0")/.."
build_dir="${1:-build}"
port="${MCSORT_SMOKE_PORT:-0}"
rows="${MCSORT_SMOKE_ROWS:-262144}"
drain_timeout=30

server_bin="${build_dir}/tools/mcsort_server"
probe_bin="${build_dir}/tools/net_probe"
for bin in "${server_bin}" "${probe_bin}"; do
  if [[ ! -x "${bin}" ]]; then
    echo "missing binary: ${bin} (build the 'mcsort_server' and 'net_probe' targets first)" >&2
    exit 1
  fi
done

work="$(mktemp -d)"
server_pid=""
bound_port=""
cleanup() {
  if [[ -n "${server_pid}" ]] && kill -0 "${server_pid}" 2> /dev/null; then
    kill -9 "${server_pid}" 2> /dev/null || true
  fi
  rm -rf "${work}"
}
trap cleanup EXIT

# start_server <log> [VAR=value ...]: boots the server with the extra
# environment and reads the port it bound back into ${bound_port} (it
# differs from ${port} when ephemeral). Retries ONCE when the bind lost a
# race (EADDRINUSE) — the flake mode of fixed-port CI runs; ephemeral
# ports (port=0) never hit it.
start_server() {
  local log="$1" attempt
  shift
  for attempt in 1 2; do
    env MCSORT_PORT="${port}" MCSORT_N="${rows}" "$@" "${server_bin}" \
      > "${log}" 2>&1 &
    server_pid=$!
    # Wait for the startup handshake line before probing.
    for _ in $(seq 1 100); do
      if grep -q "mcsort_server listening" "${log}"; then break; fi
      if ! kill -0 "${server_pid}" 2> /dev/null; then break; fi
      sleep 0.1
    done
    if grep -q "mcsort_server listening" "${log}"; then break; fi
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
  bound_port="$(sed -n 's/.*listening on [0-9.]*:\([0-9]*\).*/\1/p' "${log}" \
    | head -1)"
}

# drain_server <log>: SIGTERM, then requires a clean exit within
# ${drain_timeout}s with the final metrics printed to the log.
drain_server() {
  local log="$1" deadline server_rc
  echo "=== SIGTERM: expecting clean drain within ${drain_timeout}s ==="
  kill -TERM "${server_pid}"
  deadline=$((SECONDS + drain_timeout))
  while kill -0 "${server_pid}" 2> /dev/null; do
    if ((SECONDS >= deadline)); then
      echo "server did not drain within ${drain_timeout}s — killing" >&2
      kill -9 "${server_pid}"
      cat "${log}" >&2
      exit 1
    fi
    sleep 0.2
  done
  wait "${server_pid}" && server_rc=0 || server_rc=$?
  server_pid=""
  if ((server_rc != 0)); then
    echo "server exited with status ${server_rc} after SIGTERM" >&2
    cat "${log}" >&2
    exit 1
  fi

  # The shutdown path prints the final counters; their presence proves the
  # drain actually ran rather than the process dying on the signal.
  grep -q "net.queries" "${log}" || {
    echo "no final metrics in server log — drain path not taken?" >&2
    cat "${log}" >&2
    exit 1
  }
}

echo "=== starting mcsort_server on 127.0.0.1:${port} (${rows} rows) ==="
start_server "${work}/server1.log"

echo "=== running net_probe ==="
MCSORT_PORT="${bound_port}" "${probe_bin}"
drain_server "${work}/server1.log"

# Phase 2: the spill knobs reach the server. A 64 KiB scratch budget makes
# net_probe's query spill; its run files must land in MCSORT_SPILL_DIR (a
# path no other run uses, so its existence proves the knob was read) and
# be gone once the query is done.
echo "=== phase 2: mcsort_server under a 64 KiB scratch budget ==="
spill_dir="${work}/spill"
start_server "${work}/server2.log" \
  MCSORT_SCRATCH_BUDGET=65536 MCSORT_SPILL_DIR="${spill_dir}"
MCSORT_PORT="${bound_port}" "${probe_bin}"
drain_server "${work}/server2.log"
spilled="$(sed -n 's/^exec\.spill\.queries \([0-9]*\)$/\1/p' \
  "${work}/server2.log" | tail -1)"
if ((${spilled:-0} < 1)); then
  echo "no query spilled under the 64 KiB scratch budget" >&2
  cat "${work}/server2.log" >&2
  exit 1
fi
if [[ ! -d "${spill_dir}" ]]; then
  echo "spill directory ${spill_dir} never created — MCSORT_SPILL_DIR" \
       "ignored?" >&2
  exit 1
fi
if [[ -n "$(ls -A "${spill_dir}")" ]]; then
  echo "run files left in ${spill_dir}:" >&2
  ls -l "${spill_dir}" >&2
  exit 1
fi
echo "spilled queries: ${spilled}; ${spill_dir} empty"

echo "=== net smoke test passed ==="
