// spill_sort — external sort under a scratch budget. One closed-loop
// caller runs a 4-column ORDER BY over 2^20 rows (16/17/18/12-bit columns)
// under an ExecContext budget of a quarter of the unrestricted plan's
// EstimatePlanScratchBytes, so it must spill: run generation, run-file IO,
// prefetch and the OVC loser-tree merge. Each ORDER BY is followed by two
// filtered GROUP BYs sized to fit the same budget, which must stay in
// memory; they catch a router change that spills too eagerly. A query the
// router sends the other way counts as failed. Two of them
// per ORDER BY keep the median and the 90th percentile each inside one
// query class instead of on the boundary between them.
#include <memory>
#include <utility>
#include <vector>

#include "bench/e2e/e2e.h"

namespace mcsort {
namespace e2e {
namespace {

constexpr size_t kRows = size_t{1} << 20;
constexpr size_t kBudgetDivisor = 4;

Table SpillTable(size_t n, uint64_t seed) {
  Rng rng(seed);
  Table table;
  EncodedColumn a(16, n), b(17, n), c(18, n), d(12, n);
  for (size_t r = 0; r < n; ++r) {
    a.Set(r, rng.NextBounded(60000));
    b.Set(r, rng.NextBounded(120000));
    c.Set(r, rng.NextBounded(250000));
    d.Set(r, rng.NextBounded(4000));
  }
  table.AddColumn("a", std::move(a));
  table.AddColumn("b", std::move(b));
  table.AddColumn("c", std::move(c));
  table.AddColumn("d", std::move(d));
  return table;
}

class SpillSort : public WorkloadRunner {
 public:
  explicit SpillSort(const RunOptions& run) : run_(run), pool_(kPoolThreads) {}

  bool Setup() override {
    table_ = SpillTable(kRows, run_.seed);
    executor_ =
        std::make_unique<QueryExecutor>(table_, MakeExecutorOptions(run_, &pool_));
    const QuerySpec order = QuerySpecBuilder("order4")
                                .OrderBy("a")
                                .OrderBy("b")
                                .OrderBy("c")
                                .OrderBy("d")
                                .Build();
    const QuerySpec group = QuerySpecBuilder("group2")
                                .Filter("c", CompareOp::kLess, 62500)
                                .GroupBy({"d", "a"})
                                .Sum("b")
                                .Count()
                                .Build();
    // The budget is a quarter of what the unrestricted plan asks for.
    const ExecResult full = executor_->Execute(order, ExecContext::Default());
    if (!full.ok()) return false;
    const size_t budget =
        QueryExecutor::EstimatePlanScratchBytes(full.result.plan, kRows) /
        kBudgetDivisor;
    for (const QuerySpec* spec : {&order, &group, &group}) {
      MixQuery q;
      q.id = spec->id;
      q.table = &table_;
      q.executor = executor_.get();
      q.spec = *spec;
      q.scratch_budget = budget;
      q.route = spec == &order ? Route::kSpill : Route::kInMemory;
      mix_.push_back(std::move(q));
    }
    return RunOnce(mix_);
  }

  void PrepareChecks() override {
    for (MixQuery& q : mix_) {
      q.verifier = Verifier(ReferenceDigest(table_, q.spec));
    }
  }

  WindowResult RunWindow(double seconds, Tracer* tracer) override {
    EngineCounters counters;
    WindowResult window =
        RunSerialPasses(&mix_, nullptr, seconds, tracer, &counters);
    counters.Export(&window.layer);
    return window;
  }

 private:
  RunOptions run_;
  ThreadPool pool_;
  Table table_;
  std::unique_ptr<QueryExecutor> executor_;
  std::vector<MixQuery> mix_;
};

}  // namespace

std::unique_ptr<WorkloadRunner> MakeSpillSort(const RunOptions& run) {
  return std::make_unique<SpillSort>(run);
}

}  // namespace e2e
}  // namespace mcsort
