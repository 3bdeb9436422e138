// mcsort_server — the standalone network front-end binary: builds the
// demo table, wires a QueryService, and serves the binary protocol until
// SIGTERM/SIGINT triggers a graceful drain.
//
// Environment knobs: MCSORT_HOST / MCSORT_PORT (0 = ephemeral; the bound
// port is printed either way) / MCSORT_MAX_CONNS, plus the usual service
// knobs (MCSORT_THREADS, MCSORT_RHO, the MCSORT_SPILL_* family, MCSORT_N
// for the demo table size).
// scripts/net_smoke.sh drives this binary in CI.
#include <csignal>
#include <cstdio>
#include <thread>

#include "demo_table.h"
#include "mcsort/common/options.h"
#include "mcsort/net/server.h"
#include "mcsort/service/query_service.h"

namespace {

mcsort::net::McsortServer* g_server = nullptr;

// Async-signal-safe by construction: RequestDrain is an atomic store plus
// one write(2) to an eventfd.
void HandleSignal(int) {
  if (g_server != nullptr) g_server->RequestDrain();
}

}  // namespace

int main() {
  using namespace mcsort;

  // The one place this binary reads the environment: every MCSORT_* knob
  // is parsed into the typed config up front and passed down as structs.
  const ExecOptions env = ExecOptions::FromEnv();
  const size_t rows = env.demo_rows;
  const Table table = MakeDemoTable(rows);

  ServiceOptions service_options = ServiceOptions::FromEnv();
  if (service_options.threads <= 1) {
    service_options.threads = std::max(
        2u, std::thread::hardware_concurrency() / 2);
  }
  QueryService service(service_options);
  service.RegisterTable("demo", table);

  // Optional on-disk catalog: MCSORT_DATA_DIR names a directory of table
  // snapshots (written by mcsort_ingest or SAVE_TABLE). Discovered tables
  // register unloaded and materialize on first query; MCSORT_MMAP=1 maps
  // code arrays zero-copy instead of buffered reads, and
  // MCSORT_MEMORY_BUDGET (bytes) bounds the resident set via LRU eviction.
  if (!env.data_dir.empty()) {
    CatalogOptions catalog;
    catalog.dir = env.data_dir;
    catalog.load.mode = env.mmap_snapshots ? SnapshotLoadMode::kMmap
                                           : SnapshotLoadMode::kBuffered;
    catalog.memory_budget_bytes = env.memory_budget_bytes;
    service.SetCatalog(catalog);
    std::printf("catalog: %s (%s load)\n", env.data_dir.c_str(),
                env.mmap_snapshots ? "mmap" : "buffered");
  }

  // Background compaction (MCSORT_COMPACT=1): periodically folds each
  // table's delta store into a fresh encoded base, persisting the merged
  // snapshot when a catalog is attached. Off by default — the write path
  // works without it, queries just pay the merge-at-scan copy.
  if (env.compaction_enabled) {
    delta::CompactionOptions compaction;
    compaction.enabled = true;
    compaction.interval_ms = env.compaction_interval_ms;
    compaction.min_delta_rows = env.compaction_min_rows;
    service.EnableCompaction(compaction);
    std::printf("compaction: every %llu ms, min %llu pending rows\n",
                static_cast<unsigned long long>(compaction.interval_ms),
                static_cast<unsigned long long>(compaction.min_delta_rows));
  }

  net::ServerOptions options = net::ServerOptions::FromEnv();
  net::McsortServer server(&service, options);
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "mcsort_server: start failed: %s\n", error.c_str());
    return 1;
  }
  g_server = &server;
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGPIPE, SIG_IGN);

  // The port line is the startup handshake scripts wait for; flush it.
  std::printf("mcsort_server listening on %s:%u (%zu rows, %d pool "
              "threads, max %d conns)\n",
              options.host.c_str(), server.port(), rows,
              service_options.threads, options.max_connections);
  std::fflush(stdout);

  server.WaitUntilStopped();
  std::printf("mcsort_server: drained, final metrics:\n%s",
              service.DumpMetrics().c_str());
  return 0;
}
