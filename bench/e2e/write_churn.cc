// write_churn — reads after writes on the delta path. An in-process
// QueryService over 2^20 demo rows loaded from a catalog makes the calls a
// server worker makes: ApplyDml for writes; FindTableShared, then
// OpenSession/Execute for reads. The compactor sweeps every 100 ms.
//
// An open-loop writer sends 100 commands/s, nine 8-row INSERTs for every
// `DELETE WHERE c = v`; each is timed from its scheduled send time, so a
// stall shows in the commands queued behind it. The writer must keep to
// its schedule: if its mean send lateness exceeds 5 ms, the late commands
// count as failed. One closed-loop reader runs a filtered
// GROUP BY, so nearly every read follows a write and pays for merging the
// fresh delta into the table it scans.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "bench/e2e/e2e.h"
#include "mcsort/io/snapshot.h"
#include "tools/demo_table.h"

namespace mcsort {
namespace e2e {
namespace {

constexpr size_t kRows = size_t{1} << 20;
constexpr double kCommandsPerSecond = 100;
// The writer's threads. Command k goes out on thread k % kWriters at its
// due time, so a slow command (a DELETE scans the base under the table's
// lock for about 10 ms) does not hold back the one due right after it.
constexpr int kWriters = 2;
// Load check: the writer's mean send lateness. By Little's law, rate times
// mean lateness is the mean number of commands overdue, so 5 ms means less
// than half a command behind. The tail is no test of the offered rate: an
// ApplyDml that waits behind a merge or a compaction for longer than a
// thread's 20 ms between sends makes that thread's next send late, and on
// a 4-core host such waits put the 99th percentile above 5 ms (up to
// 16 ms) in most runs while the mean stays under 1.5 ms.
constexpr double kMaxLatenessSeconds = 0.005;
constexpr int kInsertRows = 8;
constexpr uint64_t kCompactIntervalMs = 100;
// Pending mutations (rows plus tombstones) that make a table due for
// compaction. The writer adds about 820 a second: a compaction every 5 s.
constexpr uint64_t kCompactMinMutations = 4096;
const char kTable[] = "churn";
// Value domains of the demo table's columns (tools/demo_table.h). Inserted
// rows stay inside them, so no insert widens a column's code.
constexpr uint64_t kDomainA = 20, kDomainB = 500, kDomainC = 100000,
                   kDomainM = 1000;

class WriteChurn : public WorkloadRunner {
 public:
  explicit WriteChurn(const RunOptions& run)
      : run_(run), catalog_(run.work_dir + "/catalog"), writes_(run.seed) {
    read_ = QuerySpecBuilder("read")
                .Filter("c", CompareOp::kLess, 30000)
                .GroupBy({"a", "b"})
                .Sum("m")
                .Count()
                .Build();
  }

  ~WriteChurn() override {
    session_.reset();
    service_.reset();
    std::error_code ignored;
    std::filesystem::remove_all(catalog_, ignored);
  }

  bool Setup() override {
    std::filesystem::remove_all(catalog_);
    std::filesystem::create_directories(catalog_);
    {
      const Table base = MakeDemoTable(kRows, run_.seed);
      if (!SaveTableSnapshot(base, catalog_ + "/" + kTable).ok()) return false;
    }
    service_ = std::make_unique<QueryService>(MakeServiceOptions(run_));
    CatalogOptions catalog;
    catalog.dir = catalog_;
    service_->SetCatalog(catalog);
    if (service_->FindTableShared(kTable) == nullptr) return false;
    delta::CompactionOptions compaction;
    compaction.enabled = true;
    compaction.interval_ms = kCompactIntervalMs;
    compaction.min_delta_rows = kCompactMinMutations;
    service_->EnableCompaction(compaction);

    // Warm-up: the first write creates the table version, a read pays for
    // the first merged image, and one compaction publishes a new base that
    // the next read warms again.
    for (int round = 0; round < 2; ++round) {
      if (!Write(NextCommand(), nullptr, Clock::now(), 0).ok()) return false;
      WindowResult ignored;
      if (!Read(nullptr, &ignored)) return false;
      if (round == 0 && !service_->CompactTable(kTable)) return false;
    }
    return true;
  }

  WindowResult RunWindow(double seconds, Tracer* tracer) override {
    MetricsRegistry& metrics = service_->metrics();
    const uint64_t folded0 = metrics.counter("compaction.rows_folded")->value();
    const Histogram* compaction = metrics.histogram("compaction.seconds");
    const uint64_t compactions0 = compaction->count();
    const double compaction_sum0 = compaction->sum();
    const ServiceMark service0(service_.get());
    counters_ = EngineCounters();
    rebuilds_ = 0;
    delta_rows_at_read_ = 0;

    // The window's command stream, drawn up front from the seeded stream.
    std::vector<delta::DmlCommand> commands(
        static_cast<size_t>(std::ceil(seconds * kCommandsPerSecond)));
    for (delta::DmlCommand& cmd : commands) cmd = NextCommand();

    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline = After(start, seconds);
    struct Writer {
      uint64_t attempted = 0, failed = 0;
      std::vector<double> latency, lateness;
    };
    std::vector<Writer> writers(kWriters);
    std::vector<std::thread> write_threads;
    for (int w = 0; w < kWriters; ++w) {
      write_threads.emplace_back([&, w] {
        // Open loop: command k is due at start + k / rate, whatever
        // happened to the commands before it.
        Writer& out = writers[static_cast<size_t>(w)];
        for (size_t k = static_cast<size_t>(w); k < commands.size();
             k += kWriters) {
          const Clock::time_point due =
              After(start, static_cast<double>(k) / kCommandsPerSecond);
          std::this_thread::sleep_until(due);
          const Clock::time_point sent = Clock::now();
          const delta::DmlOutcome outcome =
              Write(commands[k], tracer, sent, 1 + w);
          const Clock::time_point done = Clock::now();
          ++out.attempted;
          if (!outcome.ok() || outcome.rows_rejected > 0) ++out.failed;
          out.latency.push_back(SecondsBetween(due, done));
          out.lateness.push_back(SecondsBetween(due, sent));
        }
      });
    }
    WindowResult window;
    while (Clock::now() < deadline) {
      if (!Read(tracer, &window)) break;
    }
    for (std::thread& t : write_threads) t.join();

    const uint64_t reads = window.attempted;
    window.seconds = SecondsBetween(start, Clock::now());
    std::vector<double> dml_latency, lateness;
    for (const Writer& w : writers) {
      window.attempted += w.attempted;
      window.failed += w.failed;
      dml_latency.insert(dml_latency.end(), w.latency.begin(),
                         w.latency.end());
      lateness.insert(lateness.end(), w.lateness.begin(), w.lateness.end());
    }
    // Load check: a writer that fell behind its schedule offered less than
    // the load the workload names.
    const double late_mean =
        lateness.empty() ? 0
                         : std::accumulate(lateness.begin(), lateness.end(),
                                           0.0) /
                               static_cast<double>(lateness.size());
    if (late_mean > kMaxLatenessSeconds) {
      window.failed += static_cast<uint64_t>(
          std::count_if(lateness.begin(), lateness.end(),
                        [](double s) { return s > kMaxLatenessSeconds; }));
      std::fprintf(stderr, "writer mean lateness %.2f ms, above %.0f ms\n",
                   late_mean * 1e3, kMaxLatenessSeconds * 1e3);
    }
    std::map<std::string, double>& layer = window.layer;
    layer["dml.p50_ms"] = Percentile(dml_latency, 0.5) * 1e3;
    layer["dml.p99_ms"] = Percentile(dml_latency, 0.99) * 1e3;
    layer["dml.lateness_mean_ms"] = late_mean * 1e3;
    layer["dml.lateness_p99_ms"] = Percentile(lateness, 0.99) * 1e3;
    layer["delta.snapshot_rebuild_ratio"] =
        reads > 0 ? static_cast<double>(rebuilds_) / static_cast<double>(reads)
                  : 0;
    layer["delta.rows_at_read"] =
        reads > 0 ? static_cast<double>(delta_rows_at_read_) /
                        static_cast<double>(reads)
                  : 0;
    const uint64_t compactions = compaction->count() - compactions0;
    layer["compaction.count"] = static_cast<double>(compactions);
    layer["compaction.ms"] =
        compactions > 0 ? (compaction->sum() - compaction_sum0) * 1e3 /
                              static_cast<double>(compactions)
                        : 0;
    layer["compaction.rows_folded"] = static_cast<double>(
        metrics.counter("compaction.rows_folded")->value() - folded0);
    service0.Export(&layer);
    counters_.Export(&layer);
    return window;
  }

  uint64_t Finish() override {
    // Quiesce and fold the whole delta in. Then every acknowledged INSERT
    // and DELETE must be reflected exactly once in the row tally, and the
    // read query must give the reference answer on the final table.
    service_->StopCompactor();
    service_->CompactTable(kTable);
    const QueryService::DeltaInfo info = service_->GetDeltaInfo(kTable);
    const std::shared_ptr<const Table> table =
        service_->FindTableShared(kTable);
    const QuerySpec count = QuerySpecBuilder("count")
                                .GroupBy({"a"})
                                .Count()
                                .Build();
    std::unique_ptr<QuerySession> session = service_->OpenSession(*table);
    const ExecResult counted_run =
        session->Execute(count, ExecContext::Default());
    int64_t counted = 0;
    if (counted_run.ok() && !counted_run.result.aggregate_values.empty()) {
      for (int64_t c : counted_run.result.aggregate_values[0]) counted += c;
    }
    const uint64_t expected = kRows + inserted_ - deleted_;
    const bool tally = counted_run.ok() && info.live_rows == expected &&
                       table->row_count() == expected &&
                       static_cast<uint64_t>(counted) == expected;
    if (!tally) {
      std::fprintf(stderr,
                   "row tally mismatch: expected %llu, live_rows %llu, "
                   "table rows %zu, COUNT(*) %lld\n",
                   static_cast<unsigned long long>(expected),
                   static_cast<unsigned long long>(info.live_rows),
                   table->row_count(), static_cast<long long>(counted));
    }
    const ExecResult read = session->Execute(read_, ExecContext::Default());
    const bool answer =
        read.ok() && DigestOf(*table, read_, ViewOf(read.result)) ==
                         ReferenceDigest(*table, read_);
    if (!answer) {
      std::fprintf(stderr, "read on the final table differs from the "
                           "reference\n");
    }
    return (tally ? 0 : 1) + (answer ? 0 : 1);
  }

 private:
  // The next command of the seeded write stream. Only the main thread
  // draws commands.
  delta::DmlCommand NextCommand() {
    delta::DmlCommand cmd;
    cmd.table = kTable;
    if (command_index_++ % 10 == 9) {
      cmd.op = delta::DmlOp::kDelete;
      cmd.has_predicate = true;
      cmd.predicate = {std::string("c"), delta::DmlCompareOp::kEq,
                       delta::DmlValue::Int(static_cast<int64_t>(
                           writes_.NextBounded(kDomainC)))};
    } else {
      cmd.op = delta::DmlOp::kInsert;
      cmd.columns = {"a", "b", "c", "m"};
      for (int r = 0; r < kInsertRows; ++r) {
        cmd.rows.push_back(
            {delta::DmlValue::Int(
                 static_cast<int64_t>(writes_.NextBounded(kDomainA))),
             delta::DmlValue::Int(
                 static_cast<int64_t>(writes_.NextBounded(kDomainB))),
             delta::DmlValue::Int(
                 static_cast<int64_t>(writes_.NextBounded(kDomainC))),
             delta::DmlValue::Int(
                 static_cast<int64_t>(writes_.NextBounded(kDomainM)))});
      }
    }
    return cmd;
  }

  // Applies `cmd`, sent at `t0` from load thread `thread`, and tallies it.
  delta::DmlOutcome Write(const delta::DmlCommand& cmd, Tracer* tracer,
                          Clock::time_point t0, int thread) {
    delta::DmlOutcome outcome = service_->ApplyDml(cmd);
    const Clock::time_point t1 = Clock::now();
    if (outcome.ok()) {
      (cmd.op == delta::DmlOp::kDelete ? deleted_ : inserted_) +=
          outcome.rows_affected;
    } else {
      std::fprintf(stderr, "dml failed: %s\n",
                   outcome.status.ToString().c_str());
    }
    if (tracer != nullptr) {
      RequestSpans request;
      request.kind = RequestSpans::Kind::kDml;
      request.thread = thread;
      request.query = delta::DmlOpName(cmd.op);
      request.Add("delta.apply", "delta.apply_ms", -1, tracer->Since(t0),
                  SecondsBetween(t0, t1));
      tracer->Commit(std::move(request));
    }
    return outcome;
  }

  // One read the way a server worker serves it. False when the table is
  // gone, which ends the window.
  bool Read(Tracer* tracer, WindowResult* out) {
    const uint64_t delta_rows = service_->GetDeltaInfo(kTable).delta_rows;
    const Clock::time_point t0 = Clock::now();
    std::shared_ptr<const Table> table = service_->FindTableShared(kTable);
    const Clock::time_point t1 = Clock::now();
    if (table == nullptr) return false;
    const bool rebuilt = table != table_;
    if (rebuilt) {
      session_.reset();  // it borrows the table it was opened on
      table_ = std::move(table);
      session_ = service_->OpenSession(*table_);
    }
    const Clock::time_point t2 = Clock::now();
    const ExecResult run = session_->Execute(read_, ExecContext::Default());
    const Clock::time_point t3 = Clock::now();
    ++out->attempted;
    counters_.Record(read_.id, read_, run.result);
    rebuilds_ += rebuilt ? 1 : 0;
    delta_rows_at_read_ += delta_rows;
    if (tracer != nullptr) {
      RequestSpans request;
      request.query = read_.id;
      const int root = request.Add("read", "", -1, tracer->Since(t0),
                                   SecondsBetween(t0, t3));
      request.Add("delta.snapshot", "delta.snapshot_ms", root,
                  tracer->Since(t0), SecondsBetween(t0, t1));
      if (rebuilt) {
        request.Add("service.session", "service.session_ms", root,
                    tracer->Since(t1), SecondsBetween(t1, t2));
      }
      const int exec = request.Add("service.execute", "", root,
                                   tracer->Since(t2), SecondsBetween(t2, t3));
      request.AddExecution(exec, read_, run.result, "engine.unattributed",
                           "engine.unattributed_ms");
      tracer->Commit(std::move(request));
    }
    if (run.ok() && Consistent(run.result)) {
      out->latencies.push_back(SecondsBetween(t0, t3));
    } else {
      ++out->failed;
      std::fprintf(stderr, "read: %s\n",
                   run.ok() ? "inconsistent result"
                            : run.ToStatus().ToString().c_str());
    }
    return true;
  }

  // The table moves under every read, so a read is checked against itself:
  // each group's COUNT equals its size, the counts add up to the filtered
  // rows, and there are no more groups than (a, b) pairs. The row tally
  // in Finish checks the writes.
  static bool Consistent(const QueryResult& result) {
    if (result.aggregate_values.size() != 2) return false;
    const std::vector<int64_t>& counts = result.aggregate_values[1];
    const std::vector<uint32_t>& bounds = result.sort_profile.groups.bounds;
    if (counts.size() != result.num_groups ||
        counts.size() > kDomainA * kDomainB ||
        bounds.size() != counts.size() + 1) {
      return false;
    }
    int64_t total = 0;
    for (size_t g = 0; g < counts.size(); ++g) {
      if (counts[g] != static_cast<int64_t>(bounds[g + 1] - bounds[g])) {
        return false;
      }
      total += counts[g];
    }
    return static_cast<uint64_t>(total) == result.filtered_rows &&
           result.result_oids.size() == result.filtered_rows;
  }

  RunOptions run_;
  std::string catalog_;
  Rng writes_;
  QuerySpec read_;
  std::unique_ptr<QueryService> service_;
  std::shared_ptr<const Table> table_;
  std::unique_ptr<QuerySession> session_;
  uint64_t command_index_ = 0;
  std::atomic<uint64_t> inserted_{0}, deleted_{0};  // from every DmlOutcome
  uint64_t rebuilds_ = 0, delta_rows_at_read_ = 0;
  EngineCounters counters_;  // reader side, reset every window
};

}  // namespace

std::unique_ptr<WorkloadRunner> MakeWriteChurn(const RunOptions& run) {
  return std::make_unique<WriteChurn>(run);
}

}  // namespace e2e
}  // namespace mcsort
