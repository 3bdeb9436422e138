// Network front-end throughput: an in-process McsortServer on a loopback
// ephemeral port, driven by N concurrent client connections each replaying
// a mixed query workload through the full wire stack (encode -> TCP ->
// epoll -> executor workers -> chunked result streaming -> reassembly).
//
// Reported per connection count (1 / 4 / 16 by default): queries/sec,
// client-side p50/p95/p99 latency, and the error taxonomy (typed BUSY
// rejects are expected once the in-flight cap saturates — that is the
// backpressure working, not a failure). The final section cross-checks the
// server's net.* counters against the client-side tally, so a dropped or
// double-counted frame fails loudly.
//
// Environment knobs: MCSORT_N (rows), MCSORT_REPS (workload replays per
// connection), MCSORT_THREADS (morsel pool), MCSORT_CONNS (single
// connection-count override), MCSORT_EXEC_THREADS (server executor
// workers).
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "mcsort/common/env.h"
#include "mcsort/common/timer.h"
#include "mcsort/net/client.h"
#include "mcsort/net/process_options.h"
#include "mcsort/net/server.h"
#include "mcsort/service/query_service.h"

namespace mcsort {
namespace {

Table BenchTable(size_t n, uint64_t seed) {
  Rng rng(seed);
  Table table;
  EncodedColumn a(6, n), b(11, n), c(19, n), m(10, n);
  for (size_t r = 0; r < n; ++r) {
    a.Set(r, rng.NextBounded(20));
    b.Set(r, rng.NextBounded(500));
    c.Set(r, rng.NextBounded(100000));
    m.Set(r, rng.NextBounded(1000));
  }
  table.AddColumn("a", std::move(a));
  table.AddColumn("b", std::move(b));
  table.AddColumn("c", std::move(c));
  table.AddColumn("m", std::move(m));
  return table;
}

std::vector<QuerySpec> WorkloadSpecs() {
  std::vector<QuerySpec> specs;
  for (Code cut : {Code{30000}, Code{60000}, Code{90000}}) {
    specs.push_back(QuerySpecBuilder()
                        .Filter("c", CompareOp::kLess, cut)
                        .GroupBy({"a", "b"})
                        .Sum("m")
                        .Count()
                        .Build());
  }
  specs.push_back(QuerySpecBuilder()
                      .Filter("c", CompareOp::kLess, 20000)
                      .OrderBy("a")
                      .OrderBy("b", SortOrder::kDescending)
                      .Build());
  specs.push_back(QuerySpecBuilder()
                      .GroupBy({"a"})
                      .Count()
                      .ResultOrder("agg:0", SortOrder::kDescending)
                      .ResultOrder("a")
                      .Build());
  return specs;
}

struct ClientStats {
  std::vector<double> latencies;  // successful queries only
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t busy = 0;
  uint64_t other_error = 0;
  uint64_t transport_error = 0;
};

double PercentileOf(std::vector<double>* sorted, double p) {
  if (sorted->empty()) return 0;
  const size_t rank = std::min(
      sorted->size() - 1,
      static_cast<size_t>(p / 100.0 * static_cast<double>(sorted->size())));
  return (*sorted)[rank];
}

}  // namespace
}  // namespace mcsort

int main() {
  using namespace mcsort;
  using namespace mcsort::net;

  const size_t n = bench::EnvRows() / 8;
  const int reps = bench::EnvReps() * 4;  // wire queries are cheaper to issue
  const int pool_threads =
      bench::EnvThreads(static_cast<int>(std::thread::hardware_concurrency()));
  const Table table = BenchTable(n, 909);
  const std::vector<QuerySpec> specs = WorkloadSpecs();

  ProcessOptions env;
  if (const Status parsed = ProcessOptions::FromEnv(&env); !parsed.ok()) {
    std::fprintf(stderr, "net_throughput: %s\n", parsed.ToString().c_str());
    return 2;
  }
  ServiceOptions service_options = env.service;
  service_options.threads = pool_threads;
  service_options.params = bench::BenchParams();
  service_options.admission.max_inflight = std::max(2, pool_threads);
  QueryService service(service_options);
  service.RegisterTable("bench", table);

  ServerOptions server_options;
  server_options.port = 0;
  server_options.max_connections = 64;
  server_options.exec_threads = static_cast<int>(
      EnvU64("MCSORT_EXEC_THREADS",
             static_cast<uint64_t>(std::max(2, pool_threads / 2))));
  server_options.max_inflight_queries = server_options.exec_threads * 2;
  McsortServer server(&service, server_options);
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "server start failed: %s\n", error.c_str());
    return 1;
  }

  std::printf("Network throughput: %zu rows, %zu-query mix, %d replays/conn, "
              "%d pool threads, %d executor workers, port %u.\n",
              n, specs.size(), reps, pool_threads,
              server_options.exec_threads, server.port());

  std::vector<int> conn_counts = {1, 4, 16};
  const uint64_t env_conns = EnvU64("MCSORT_CONNS", 0);
  if (env_conns > 0) conn_counts = {static_cast<int>(env_conns)};

  uint64_t total_sent = 0;
  bench::Header("loopback query throughput");
  std::printf("%-8s %10s %10s %10s %10s %8s %8s %8s\n", "conns", "q/s",
              "p50 ms", "p95 ms", "p99 ms", "ok", "busy", "err");
  for (const int conns : conn_counts) {
    std::vector<ClientStats> stats(conns);
    std::vector<std::thread> clients;
    clients.reserve(conns);
    Timer wall;
    for (int c = 0; c < conns; ++c) {
      clients.emplace_back([&, c] {
        ClientOptions options;
        options.port = server.port();
        options.io_timeout_seconds = 120;
        options.client_name = "bench-" + std::to_string(c);
        McsortClient client(options);
        if (!client.Connect()) {
          stats[c].transport_error = 1;
          return;
        }
        ClientStats& s = stats[c];
        for (int rep = 0; rep < reps; ++rep) {
          for (size_t i = 0; i < specs.size(); ++i) {
            const QuerySpec& spec = specs[(i + c) % specs.size()];
            Timer timer;
            const RemoteResult result = client.Query(spec);
            ++s.sent;
            if (result.ok()) {
              ++s.ok;
              s.latencies.push_back(timer.Seconds());
            } else if (!result.transport_ok) {
              ++s.transport_error;
              if (!client.Connect()) return;  // reconnect or give up
            } else if (result.error == ErrorCode::kBusy) {
              ++s.busy;  // typed backpressure: back off, retry the same spec
              --i;
              std::this_thread::sleep_for(std::chrono::milliseconds(5));
            } else {
              ++s.other_error;
            }
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
    const double seconds = wall.Seconds();

    ClientStats merged;
    std::vector<double> latencies;
    for (const ClientStats& s : stats) {
      merged.sent += s.sent;
      merged.ok += s.ok;
      merged.busy += s.busy;
      merged.other_error += s.other_error;
      merged.transport_error += s.transport_error;
      latencies.insert(latencies.end(), s.latencies.begin(),
                       s.latencies.end());
    }
    total_sent += merged.sent;
    std::sort(latencies.begin(), latencies.end());
    std::printf("%-8d %10.1f %10.2f %10.2f %10.2f %8llu %8llu %8llu\n",
                conns, seconds > 0 ? merged.ok / seconds : 0,
                PercentileOf(&latencies, 50) * 1e3,
                PercentileOf(&latencies, 95) * 1e3,
                PercentileOf(&latencies, 99) * 1e3,
                static_cast<unsigned long long>(merged.ok),
                static_cast<unsigned long long>(merged.busy),
                static_cast<unsigned long long>(merged.other_error +
                                                merged.transport_error));
  }

  bench::Header("server-side cross-check");
  const std::string metrics = service.DumpMetrics();
  const auto scrape = [&metrics](const char* name) -> long long {
    const std::string key = std::string(name) + " ";
    const size_t pos = metrics.find(key);
    if (pos == std::string::npos) return -1;
    return std::strtoll(metrics.c_str() + pos + key.size(), nullptr, 10);
  };
  const long long server_queries = scrape("net.queries");
  std::printf("client-side queries sent: %llu\n",
              static_cast<unsigned long long>(total_sent));
  std::printf("server-side net.queries:  %lld\n", server_queries);
  std::printf("net.queries_ok:           %lld\n", scrape("net.queries_ok"));
  std::printf("net.busy_rejects:         %lld\n", scrape("net.busy_rejects"));
  std::printf("net.frame_errors:         %lld\n", scrape("net.frame_errors"));
  const bool consistent =
      server_queries == static_cast<long long>(total_sent);
  std::printf("cross-check: %s\n",
              consistent ? "consistent" : "MISMATCH (frames lost?)");

  server.Shutdown();
  return consistent ? 0 : 1;
}
