// Shared declarations of the end-to-end benchmark program, mcsort_e2e.
//
// It runs one named workload per process: it sets the workload up
// several times (the median is `setup_s`), then measures one window of
// closed- or open-loop traffic, checks every result it receives, and
// prints the metrics. Everything here measures mcsort from outside: the
// benchmark times its own calls into each layer's public functions and
// reads the phase timings and counters those functions already return.
#ifndef MCSORT_BENCH_E2E_E2E_H_
#define MCSORT_BENCH_E2E_E2E_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "mcsort/common/random.h"
#include "mcsort/common/thread_pool.h"
#include "mcsort/cost/params.h"
#include "mcsort/engine/query.h"
#include "mcsort/net/protocol.h"
#include "mcsort/service/query_service.h"
#include "mcsort/storage/table.h"

namespace mcsort {
namespace e2e {

// Load shape. Fixed numbers, never derived from the core count, so that
// records taken on different machines stay comparable.
constexpr int kPoolThreads = 2;  // morsel pool workers, every workload

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline Clock::time_point After(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

// What every workload is built from.
struct RunOptions {
  uint64_t seed = 1;     // drives every generated input
  std::string work_dir;  // catalogs and spill files live here
  CostParams params;     // loaded from the checked-in calibration
};

ExecutorOptions MakeExecutorOptions(const RunOptions& run, ThreadPool* pool);
ServiceOptions MakeServiceOptions(const RunOptions& run);

// ---------------------------------------------------------------------------
// Tracing. Spans are laid out by the benchmark around its own calls and, inside
// each call, from the phase timings the call returns. They stay in memory
// and are written as Chrome trace-event JSON when the run ends.

struct Span {
  std::string name;    // e.g. "sort.round2.lookup"
  std::string metric;  // per-layer metric its self time feeds ("" = none)
  int parent = -1;     // index into the request's span list
  double start = 0;    // seconds since the tracer epoch
  double dur = 0;      // seconds
};

// The span tree of one request, built on the thread that ran it once the
// request has returned. Building and committing it is the tracer's whole
// cost on that thread, timed from construction to the end of Commit.
struct RequestSpans {
  enum class Kind { kRead, kDml };
  Kind kind = Kind::kRead;
  int thread = 0;           // load thread that issued it (the trace track)
  std::string query;        // query id, for finding slow requests
  std::vector<Span> spans;  // spans[0] is the root
  Clock::time_point recording_began = Clock::now();

  int Add(std::string name, std::string metric, int parent, double start,
          double dur) {
    spans.push_back({std::move(name), std::move(metric), parent, start, dur});
    return static_cast<int>(spans.size()) - 1;
  }
  // Lays out the executor's phases as children of `parent`, back to back
  // from the parent's start, and fills the rest with `gap_name`.
  void AddExecution(int parent, const QuerySpec& spec,
                    const QueryResult& result, const char* gap_name,
                    const char* gap_metric);
  // Same from a wire result's phase summary (no per-round profile).
  void AddSummary(int parent, const net::ResultSummary& summary,
                  const char* gap_name, const char* gap_metric);
};

class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  double Since(Clock::time_point t) const { return SecondsBetween(epoch_, t); }
  void Commit(RequestSpans request);

  // Mean self time (ms) per metric: read-side metrics per read request,
  // DML metrics per DML command.
  std::map<std::string, double> LayerMeans() const;
  // |sum of self times - latency| / latency of the median read request.
  // The phases leave their gap to an unattributed span, so this is nonzero
  // only when phase timers overrun the call they sit in.
  double MedianRequestSumError() const;
  // Time the load threads spent recording spans, as a share of that time
  // plus the time they spent in the requests: the throughput a closed-loop
  // caller gives up to tracing.
  double RecordingFraction() const;
  bool WriteChrome(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<RequestSpans> requests_;
  double recording_seconds_ = 0;
  double request_seconds_ = 0;
};

// ---------------------------------------------------------------------------
// Result checks. A digest condenses a result into what must not depend on
// the plan: an order-free multiset hash of (group key tuple, aggregates) or
// of (partition key tuple, window value, rank) per row, and an ordered hash
// of the sort-key values for ORDER BY and result-ordered output. Oids are
// never compared, so rows tied on every key may permute.

struct Digest {
  uint64_t rows = 0;
  uint64_t groups = 0;
  uint64_t multiset = 0;
  uint64_t sequence = 0;
  bool valid = true;  // false when the payload is malformed

  bool operator==(const Digest& o) const {
    return valid && o.valid && rows == o.rows && groups == o.groups &&
           multiset == o.multiset && sequence == o.sequence;
  }
  bool operator!=(const Digest& o) const { return !(*this == o); }
};

struct ResultView {
  const std::vector<uint32_t>* oids = nullptr;
  const std::vector<std::vector<int64_t>>* aggregates = nullptr;
  const std::vector<double>* avg = nullptr;
  const std::vector<uint32_t>* ranks = nullptr;
  const std::vector<uint32_t>* group_order = nullptr;
  // Group bounds when the caller has them; else found from key changes.
  const std::vector<uint32_t>* group_bounds = nullptr;
};

ResultView ViewOf(const QueryResult& result);
Digest DigestOf(const Table& table, const QuerySpec& spec,
                const ResultView& result);
// The digest of the right answer, computed without the engine: the
// filters, sorts, aggregates and ranks done row by row in plain C++.
Digest ReferenceDigest(const Table& table, const QuerySpec& spec);

// Checks results of one query against its reference digest. Computing a
// digest gathers key values row by row, which costs as much as some of the
// queries; a result whose raw payload hashes like one already verified is
// accepted after one sequential pass instead.
class Verifier {
 public:
  Verifier() = default;
  explicit Verifier(Digest reference) : reference_(reference) {}
  bool Check(const Table& table, const QuerySpec& spec,
             const ResultView& result);

 private:
  static constexpr size_t kMaxRemembered = 64;
  Digest reference_;
  std::vector<uint64_t> verified_;  // raw hashes of verified results
};

// ---------------------------------------------------------------------------
// Workloads.

// What one measured window produced.
struct WindowResult {
  double seconds = 0;             // wall time of the window
  uint64_t attempted = 0;         // every operation sent, reads and writes
  uint64_t failed = 0;            // non-ok, refused, transport error, wrong
  std::vector<double> latencies;  // completed reads, seconds
  // Per-layer values the workload measures itself (counters, ratios).
  std::map<std::string, double> layer;
};

class WorkloadRunner {
 public:
  virtual ~WorkloadRunner() = default;
  // Generates inputs, loads them and warms the program up. Timed.
  virtual bool Setup() = 0;
  // Computes the reference answers the checks compare against. Untimed.
  virtual void PrepareChecks() {}
  // One measured window; spans go to `tracer` when it is non-null.
  virtual WindowResult RunWindow(double seconds, Tracer* tracer) = 0;
  // Checks that only hold once traffic has stopped. Returns failures.
  virtual uint64_t Finish() { return 0; }
};

std::unique_ptr<WorkloadRunner> MakeOlapTpch(const RunOptions& run);
std::unique_ptr<WorkloadRunner> MakeServeMix(const RunOptions& run);
std::unique_ptr<WorkloadRunner> MakeWriteChurn(const RunOptions& run);
std::unique_ptr<WorkloadRunner> MakeSpillSort(const RunOptions& run);

// Fills the engine-side per-layer counters every in-process workload
// shares: sort rounds and the kernel that ran each, plan changes per query
// id, and which queries spilled.
class EngineCounters {
 public:
  void Record(const std::string& query_id, const QuerySpec& spec,
              const QueryResult& result);
  void Export(std::map<std::string, double>* layer) const;

 private:
  std::map<std::string, std::string> first_plan_;
  uint64_t queries_ = 0;
  uint64_t flips_ = 0;
  uint64_t rounds_ = 0;
  std::map<std::string, uint64_t> kernel_rounds_;
  uint64_t order_by_ = 0, order_by_spilled_ = 0;
  uint64_t group_by_ = 0, group_by_spilled_ = 0;
  uint64_t spilled_ = 0, spill_runs_ = 0, spill_bytes_ = 0;
};

// Service-side counters at one point in time; Export writes the plan-cache
// hit rate and the mean admission wait of the queries served since.
class ServiceMark {
 public:
  explicit ServiceMark(QueryService* service);
  void Export(std::map<std::string, double>* layer) const;
  // Plan-cache lookups since the mark that did not hit.
  uint64_t CacheMisses() const;

 private:
  QueryService* service_;
  PlanCache::Stats cache_;
  const Histogram* admission_;
  uint64_t admitted_;
  double waited_;
};

// Where the spill-vs-degrade router must send a query. A query routed
// otherwise counts as failed: the workload would no longer measure the
// path it exists for.
enum class Route {
  kAny,
  kSpill,     // must spill
  kInMemory,  // must neither spill nor degrade
};

// One query of an in-process mix, with the reference its results must match.
struct MixQuery {
  std::string id;
  const Table* table = nullptr;
  QueryExecutor* executor = nullptr;
  QuerySpec spec;
  size_t scratch_budget = 0;  // ExecContext budget; 0 = unlimited
  Route route = Route::kAny;
  Verifier verifier;
};

// Executes every query of `mix` once; false on the first failure.
bool RunOnce(const std::vector<MixQuery>& mix);

// One closed-loop caller running whole passes over `mix` (shuffled by
// `order` when non-null) until `seconds` have been measured. Time spent
// checking results is left out of the window.
WindowResult RunSerialPasses(std::vector<MixQuery>* mix, Rng* order,
                             double seconds, Tracer* tracer,
                             EngineCounters* counters);

// Fisher-Yates shuffle of a query order.
void Shuffle(std::vector<size_t>* order, Rng* rng);

// Latency percentile (p in [0, 1]) with linear interpolation.
double Percentile(std::vector<double> values, double p);

}  // namespace e2e
}  // namespace mcsort

#endif  // MCSORT_BENCH_E2E_E2E_H_
