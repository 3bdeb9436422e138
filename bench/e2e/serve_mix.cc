// serve_mix — the wire path. An in-process McsortServer on loopback with
// two executor workers serves three closed-loop McsortClient connections.
// A 2^18-row demo table is saved to a catalog in setup and loaded through
// it. Queries take milliseconds and every plan comes from the warm plan
// cache, so wire encoding, chunked streaming, queueing and admission are a
// large share of each request; the sort kernels barely matter.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "bench/e2e/e2e.h"
#include "mcsort/io/snapshot.h"
#include "mcsort/net/client.h"
#include "mcsort/net/server.h"
#include "tools/demo_table.h"

namespace mcsort {
namespace e2e {
namespace {

constexpr size_t kRows = size_t{1} << 18;
constexpr int kConnections = 3;
constexpr int kExecThreads = 2;
constexpr double kMinCacheHitRate = 0.99;
const char kTable[] = "demo";

std::vector<QuerySpec> ServeSpecs() {
  std::vector<QuerySpec> specs;
  for (Code cut : {Code{30000}, Code{60000}, Code{90000}}) {
    specs.push_back(QuerySpecBuilder("groupby.c" + std::to_string(cut))
                        .Filter("c", CompareOp::kLess, cut)
                        .GroupBy({"a", "b"})
                        .Sum("m")
                        .Count()
                        .Build());
  }
  // About 52k rows streamed back in result chunks.
  specs.push_back(QuerySpecBuilder("orderby")
                      .Filter("c", CompareOp::kLess, 20000)
                      .OrderBy("a")
                      .OrderBy("b", SortOrder::kDescending)
                      .Build());
  specs.push_back(QuerySpecBuilder("groupby.ordered")
                      .GroupBy({"a"})
                      .Count()
                      .ResultOrder("agg:0", SortOrder::kDescending)
                      .ResultOrder("a")
                      .Build());
  specs.push_back(QuerySpecBuilder("rank")
                      .Filter("c", CompareOp::kLess, 10000)
                      .PartitionBy({"a", "b"})
                      .WindowOrder("m")
                      .Build());
  return specs;
}

ResultView ViewOf(const net::RemoteResult& result) {
  ResultView view;
  view.oids = &result.result_oids;
  view.aggregates = &result.aggregate_values;
  view.avg = &result.aggregate_avg;
  view.ranks = &result.ranks;
  view.group_order = &result.result_group_order;
  return view;
}

class ServeMix : public WorkloadRunner {
 public:
  explicit ServeMix(const RunOptions& run)
      : run_(run), catalog_(run.work_dir + "/catalog"), specs_(ServeSpecs()) {}

  ~ServeMix() override {
    clients_.clear();
    server_.reset();  // drains and joins its threads
    service_.reset();
    std::error_code ignored;
    std::filesystem::remove_all(catalog_, ignored);
  }

  bool Setup() override {
    std::filesystem::remove_all(catalog_);
    std::filesystem::create_directories(catalog_);
    const Table table = MakeDemoTable(kRows, run_.seed);
    if (!SaveTableSnapshot(table, catalog_ + "/" + kTable).ok()) return false;

    service_ = std::make_unique<QueryService>(MakeServiceOptions(run_));
    CatalogOptions catalog;
    catalog.dir = catalog_;
    service_->SetCatalog(catalog);
    table_ = service_->FindTableShared(kTable);  // loads the snapshot
    if (table_ == nullptr) return false;

    net::ServerOptions options;
    options.exec_threads = kExecThreads;
    options.max_inflight_queries = 8;  // above the client count: no BUSY
    server_ = std::make_unique<net::McsortServer>(service_.get(), options);
    std::string error;
    if (!server_->Start(&error)) {
      std::fprintf(stderr, "server start failed: %s\n", error.c_str());
      return false;
    }
    for (int c = 0; c < kConnections; ++c) {
      net::ClientOptions client;
      client.port = server_->port();
      client.client_name = "e2e-" + std::to_string(c);
      clients_.push_back(std::make_unique<net::McsortClient>(client));
      if (!clients_.back()->Connect(&error)) {
        std::fprintf(stderr, "connect failed: %s\n", error.c_str());
        return false;
      }
    }
    // Warm-up: every connection runs the whole mix once, which also fills
    // the plan cache.
    for (const auto& client : clients_) {
      for (const QuerySpec& spec : specs_) {
        if (!client->Query(spec, CallOptions()).ok()) return false;
      }
    }
    return true;
  }

  void PrepareChecks() override {
    std::vector<Verifier> verifiers;
    for (const QuerySpec& spec : specs_) {
      verifiers.emplace_back(ReferenceDigest(*table_, spec));
    }
    verifiers_.assign(kConnections, verifiers);  // one set per client thread
  }

  WindowResult RunWindow(double seconds, Tracer* tracer) override {
    MetricsRegistry& metrics = service_->metrics();
    const ServiceMark service0(service_.get());
    const Histogram* server = metrics.histogram("net.query_seconds");
    const uint64_t served0 = server->count();
    const double server_sum0 = server->sum();
    const uint64_t bytes0 = metrics.counter("net.bytes_out")->value();
    const uint64_t queries0 = metrics.counter("net.queries")->value();

    std::vector<WindowResult> per_client(kConnections);
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline = After(start, seconds);
    std::vector<std::thread> threads;
    for (int c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        RunClient(c, deadline, tracer, &per_client[static_cast<size_t>(c)]);
      });
    }
    for (std::thread& t : threads) t.join();

    WindowResult window;
    window.seconds = SecondsBetween(start, Clock::now());
    for (const WindowResult& part : per_client) {
      window.attempted += part.attempted;
      window.failed += part.failed;
      window.latencies.insert(window.latencies.end(), part.latencies.begin(),
                              part.latencies.end());
    }
    service0.Export(&window.layer);
    // The workload is defined on a warm plan cache; misses count as failed.
    if (window.layer["service.plan_cache_hit_rate"] < kMinCacheHitRate) {
      window.failed += std::max<uint64_t>(1, service0.CacheMisses());
      std::fprintf(stderr, "plan cache hit rate %.4f, below %.2f\n",
                   window.layer["service.plan_cache_hit_rate"],
                   kMinCacheHitRate);
    }
    const uint64_t served = server->count() - served0;
    window.layer["net.server_ms"] =
        served > 0 ? (server->sum() - server_sum0) * 1e3 /
                         static_cast<double>(served)
                   : 0;
    const uint64_t queries =
        metrics.counter("net.queries")->value() - queries0;
    window.layer["net.bytes_out_per_query"] =
        queries > 0 ? static_cast<double>(
                          metrics.counter("net.bytes_out")->value() - bytes0) /
                          static_cast<double>(queries)
                    : 0;
    return window;
  }

 private:
  static net::QueryCallOptions CallOptions() {
    net::QueryCallOptions options;
    options.table = kTable;
    return options;
  }

  void RunClient(int c, Clock::time_point deadline, Tracer* tracer,
                 WindowResult* out) {
    net::McsortClient& client = *clients_[static_cast<size_t>(c)];
    std::vector<Verifier>& verifiers = verifiers_[static_cast<size_t>(c)];
    Rng order(run_.seed * 131 + static_cast<uint64_t>(c));
    std::vector<size_t> pass(specs_.size());
    std::iota(pass.begin(), pass.end(), size_t{0});
    while (Clock::now() < deadline) {
      Shuffle(&pass, &order);
      for (size_t i : pass) {
        if (Clock::now() >= deadline) return;
        const QuerySpec& spec = specs_[i];
        const Clock::time_point t0 = Clock::now();
        const net::RemoteResult result = client.Query(spec, CallOptions());
        const Clock::time_point t1 = Clock::now();
        ++out->attempted;
        if (tracer != nullptr && result.ok()) {
          RequestSpans request;
          request.thread = c;
          request.query = spec.id;
          const int root = request.Add("client.query", "", -1,
                                       tracer->Since(t0), SecondsBetween(t0, t1));
          request.AddSummary(root, result.summary, "net.overhead",
                             "net.overhead_ms");
          tracer->Commit(std::move(request));
        }
        if (result.ok() && verifiers[i].Check(*table_, spec, ViewOf(result))) {
          out->latencies.push_back(SecondsBetween(t0, t1));
          continue;
        }
        ++out->failed;
        std::fprintf(stderr, "%s: %s\n", spec.id.c_str(),
                     result.ok() ? "result differs from the in-process result"
                                 : result.ToStatus().ToString().c_str());
        if (!result.transport_ok && !client.Connect()) return;
      }
    }
  }

  RunOptions run_;
  std::string catalog_;
  std::vector<QuerySpec> specs_;
  std::unique_ptr<QueryService> service_;
  std::shared_ptr<const Table> table_;
  std::unique_ptr<net::McsortServer> server_;
  std::vector<std::unique_ptr<net::McsortClient>> clients_;
  std::vector<std::vector<Verifier>> verifiers_;
};

}  // namespace

std::unique_ptr<WorkloadRunner> MakeServeMix(const RunOptions& run) {
  return std::make_unique<ServeMix>(run);
}

}  // namespace e2e
}  // namespace mcsort
