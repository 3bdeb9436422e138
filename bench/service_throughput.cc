// Query-service throughput: N client sessions replay a mixed workload
// (GROUP BY / ORDER BY / PARTITION BY / result-ordered aggregates) against
// one QueryService. Reported per session count (1 / 4 / 16 by default):
//
//   * cold: plan cache cleared before the run — every distinct query shape
//     pays its ROGA search;
//   * warm: same workload again with the populated cache — searches are
//     skipped on hit, which is where the service's amortization shows up;
//   * queries/sec for both, the warm/cold speedup, and the plan-cache hit
//     rate of the warm run (the acceptance bar is >= 90%).
//
// Environment knobs: MCSORT_N (rows), MCSORT_REPS (replays per session),
// MCSORT_THREADS (pool workers), MCSORT_RHO (ROGA threshold, the same knob
// fig12_rho sweeps), MCSORT_SESSIONS (comma-free single override),
// MCSORT_CALIBRATE=0 to skip calibration.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "mcsort/common/env.h"
#include "mcsort/common/timer.h"
#include "mcsort/net/process_options.h"
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

// The per-session replay mix. Filter literals vary a little so the cache
// holds several distinct signatures per shape, like a real served workload.
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
                      .OrderBy("a")
                      .OrderBy("b", SortOrder::kDescending)
                      .OrderBy("c")
                      .Build());
  specs.push_back(
      QuerySpecBuilder().PartitionBy({"a", "b"}).WindowOrder("m").Build());
  specs.push_back(QuerySpecBuilder()
                      .GroupBy({"a"})
                      .Count()
                      .ResultOrder("agg:0", SortOrder::kDescending)
                      .ResultOrder("a")
                      .Build());
  return specs;
}

struct RunResult {
  double seconds = 0;
  uint64_t queries = 0;
  double qps() const { return seconds > 0 ? queries / seconds : 0; }
};

// Replays the workload `reps` times on each of `sessions` client threads.
// Session opening and the per-thread spec sequences are prepared before
// the clock starts (released by a barrier), so `seconds` measures only the
// Execute loop — not session setup or spec staging.
RunResult Replay(QueryService* service, const Table& table, int sessions,
                 int reps, const std::vector<QuerySpec>& specs) {
  std::vector<std::unique_ptr<QuerySession>> handles;
  std::vector<std::vector<QuerySpec>> staged(sessions);
  handles.reserve(sessions);
  for (int s = 0; s < sessions; ++s) {
    handles.push_back(service->OpenSession(table));
    // Stagger the starting spec per session so distinct shapes overlap.
    for (size_t i = 0; i < specs.size(); ++i) {
      staged[s].push_back(specs[(i + s) % specs.size()]);
    }
  }

  std::atomic<bool> go{false};
  std::vector<std::thread> clients;
  clients.reserve(sessions);
  for (int s = 0; s < sessions; ++s) {
    clients.emplace_back([&, s] {
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      QuerySession* session = handles[s].get();
      for (int rep = 0; rep < reps; ++rep) {
        for (const QuerySpec& spec : staged[s]) {
          session->Execute(spec, ExecContext::Default());
        }
      }
    });
  }
  Timer timer;
  go.store(true, std::memory_order_release);
  for (std::thread& t : clients) t.join();
  RunResult result;
  result.seconds = timer.Seconds();
  result.queries = uint64_t{static_cast<uint64_t>(sessions)} * reps *
                   specs.size();
  return result;
}

}  // namespace
}  // namespace mcsort

int main() {
  using namespace mcsort;
  const size_t n = bench::EnvRows() / 8;  // service queries are smaller
  const int reps = bench::EnvReps();
  const int threads =
      bench::EnvThreads(static_cast<int>(std::thread::hardware_concurrency()));
  const Table table = BenchTable(n, 4242);
  const std::vector<QuerySpec> specs = WorkloadSpecs();

  net::ProcessOptions env;
  if (const Status parsed = net::ProcessOptions::FromEnv(&env); !parsed.ok()) {
    std::fprintf(stderr, "service_throughput: %s\n",
                 parsed.ToString().c_str());
    return 2;
  }
  ServiceOptions options = env.service;
  std::printf("Query-service throughput: %zu rows, %zu-query mix, "
              "%d replays/session, %d pool threads, rho=%g.\n",
              n, specs.size(), reps, threads, options.rho);

  options.threads = threads;
  options.params = bench::BenchParams();
  options.admission.max_inflight = std::max(2, threads);
  QueryService service(options);

  std::vector<int> session_counts = {1, 4, 16};
  const uint64_t env_sessions = EnvU64("MCSORT_SESSIONS", 0);
  if (env_sessions > 0) {
    session_counts = {static_cast<int>(env_sessions)};
  }

  bench::Header("cold vs warm plan cache");
  std::printf("%-10s %12s %12s %10s %10s\n", "sessions", "cold q/s",
              "warm q/s", "speedup", "hit rate");
  for (const int sessions : session_counts) {
    service.plan_cache().Clear();
    const RunResult cold = Replay(&service, table, sessions, reps, specs);
    const PlanCache::Stats after_cold = service.plan_cache().GetStats();
    const RunResult warm = Replay(&service, table, sessions, reps, specs);
    const PlanCache::Stats after_warm = service.plan_cache().GetStats();
    const uint64_t warm_lookups =
        (after_warm.hits + after_warm.misses + after_warm.stale_hits) -
        (after_cold.hits + after_cold.misses + after_cold.stale_hits);
    const uint64_t warm_hits = after_warm.hits - after_cold.hits;
    const double hit_rate =
        warm_lookups > 0 ? static_cast<double>(warm_hits) / warm_lookups : 0;
    std::printf("%-10d %12.1f %12.1f %9.2fx %9.1f%%\n", sessions, cold.qps(),
                warm.qps(), cold.seconds / warm.seconds, hit_rate * 100);
  }

  bench::Header("service metrics (final state)");
  std::printf("%s", service.DumpMetrics().c_str());
  std::printf("\nWarm runs skip ROGA on every hit; the hit rate above is "
              "the warm-run\nfraction served straight from the cache "
              "(acceptance bar: >= 90%%).\n");
  return 0;
}
