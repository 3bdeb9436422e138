// mcsort_server — the standalone network front-end binary: builds the
// demo table, wires a QueryService, and serves the binary protocol until
// SIGTERM/SIGINT triggers a graceful drain.
//
// Configuration comes from the MCSORT_* environment, parsed once into
// net::ProcessOptions (net/process_options.h lists every knob); an
// out-of-range value exits 2 naming the variable. The server plans with
// the calibrated cost model: it loads $MCSORT_CALIBRATION (default
// ./mcsort_calibration.txt), or calibrates once and writes that file.
// scripts/net_smoke.sh drives this binary in CI.
#include <csignal>
#include <cstdio>
#include <thread>

#include "demo_table.h"
#include "mcsort/net/process_options.h"
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

  net::ProcessOptions options;
  const Status parsed = net::ProcessOptions::FromEnv(&options);
  if (!parsed.ok()) {
    std::fprintf(stderr, "mcsort_server: %s\n", parsed.ToString().c_str());
    return 2;
  }
  // Binary policies on top of the parsed tree: plan with calibrated costs,
  // and give the pool at least half the cores.
  options.service.use_calibration = true;
  if (options.service.threads <= 1) {
    options.service.threads = std::max(
        2u, std::thread::hardware_concurrency() / 2);
  }

  const size_t rows = options.demo_rows;
  const Table table = MakeDemoTable(rows);
  QueryService service(options.service);
  service.RegisterTable("demo", table);

  // Optional on-disk catalog of table snapshots (written by mcsort_ingest
  // or SAVE_TABLE). Discovered tables register unloaded and materialize on
  // first query; a memory budget bounds the resident set via LRU eviction.
  const CatalogOptions& catalog = options.catalog;
  if (!catalog.dir.empty()) {
    service.SetCatalog(catalog);
    std::printf("catalog: %s (%s load)\n", catalog.dir.c_str(),
                catalog.load.mode == SnapshotLoadMode::kMmap ? "mmap"
                                                             : "buffered");
  }

  // Background compaction: periodically folds each table's delta store
  // into a fresh encoded base, persisting the merged snapshot when a
  // catalog is attached. Off by default — the write path works without it,
  // queries just pay the merge-at-scan copy.
  const delta::CompactionOptions& compaction = options.compaction;
  if (compaction.enabled) {
    service.EnableCompaction(compaction);
    std::printf("compaction: every %llu ms, min %llu pending rows\n",
                static_cast<unsigned long long>(compaction.interval_ms),
                static_cast<unsigned long long>(compaction.min_delta_rows));
  }

  net::McsortServer server(&service, options.server);
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
              options.server.host.c_str(), server.port(), rows,
              options.service.threads, options.server.max_connections);
  std::fflush(stdout);

  server.WaitUntilStopped();
  std::printf("mcsort_server: drained, final metrics:\n%s",
              service.DumpMetrics().c_str());
  return 0;
}
