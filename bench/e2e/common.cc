// Option builders and counters shared by the four workloads.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "bench/e2e/e2e.h"

namespace mcsort {
namespace e2e {

ExecutorOptions MakeExecutorOptions(const RunOptions& run, ThreadPool* pool) {
  ExecutorOptions options;
  options.use_massage = true;
  options.pool = pool;
  options.params = run.params;
  options.spill.dir = run.work_dir + "/spill";
  return options;
}

ServiceOptions MakeServiceOptions(const RunOptions& run) {
  ServiceOptions options;
  options.threads = kPoolThreads;
  options.use_massage = true;
  options.use_calibration = false;  // never calibrate during a run
  options.params = run.params;
  options.spill.dir = run.work_dir + "/spill";
  return options;
}

void EngineCounters::Record(const std::string& query_id,
                            const QuerySpec& spec, const QueryResult& result) {
  ++queries_;
  std::string plan = result.plan.ToString() + " order";
  for (int column : result.column_order) {
    plan += ' ';
    plan += std::to_string(column);
  }
  const auto [it, inserted] = first_plan_.emplace(query_id, plan);
  if (!inserted && it->second != plan) ++flips_;
  for (const RoundProfile& round : result.sort_profile.rounds) {
    ++rounds_;
    ++kernel_rounds_[SortKernelName(round.kernel)];
  }
  if (!spec.order_by.empty()) {
    ++order_by_;
    order_by_spilled_ += result.spilled ? 1 : 0;
  } else if (!spec.group_by.empty()) {
    // A GROUP BY sized to fit must stay on the in-memory plan: spilling
    // or degrading it both count.
    ++group_by_;
    group_by_spilled_ += result.spilled || result.degraded ? 1 : 0;
  }
  spilled_ += result.spilled ? 1 : 0;
  spill_runs_ += result.spill_runs;
  spill_bytes_ += result.spill_bytes;
}

void EngineCounters::Export(std::map<std::string, double>* layer) const {
  const auto ratio = [](uint64_t part, uint64_t whole) {
    return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole)
                     : 0.0;
  };
  (*layer)["plan.flips"] = static_cast<double>(flips_);
  (*layer)["sort.rounds"] = ratio(rounds_, queries_);
  for (SortKernel kernel : {SortKernel::kSimdMerge, SortKernel::kRadix,
                            SortKernel::kOvcMerge, SortKernel::kCounting}) {
    const std::string name = SortKernelName(kernel);
    const auto it = kernel_rounds_.find(name);
    (*layer)["sort.kernel." + name] =
        ratio(it == kernel_rounds_.end() ? 0 : it->second, queries_);
  }
  (*layer)["spill.frac"] = ratio(order_by_spilled_, order_by_);
  (*layer)["spill.groupby_frac"] = ratio(group_by_spilled_, group_by_);
  (*layer)["spill.runs"] = ratio(spill_runs_, spilled_);
  (*layer)["spill.bytes"] = ratio(spill_bytes_, spilled_);
}

ServiceMark::ServiceMark(QueryService* service)
    : service_(service),
      cache_(service->plan_cache().GetStats()),
      admission_(service->metrics().histogram("admission.wait_seconds")),
      admitted_(admission_->count()),
      waited_(admission_->sum()) {}

uint64_t ServiceMark::CacheMisses() const {
  const PlanCache::Stats now = service_->plan_cache().GetStats();
  return (now.misses + now.stale_hits) - (cache_.misses + cache_.stale_hits);
}

void ServiceMark::Export(std::map<std::string, double>* layer) const {
  const uint64_t hits = service_->plan_cache().GetStats().hits - cache_.hits;
  const uint64_t lookups = hits + CacheMisses();
  (*layer)["service.plan_cache_hit_rate"] =
      lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups)
                  : 0;
  const uint64_t admitted = admission_->count() - admitted_;
  (*layer)["service.admission_wait_ms"] =
      admitted > 0 ? (admission_->sum() - waited_) * 1e3 /
                         static_cast<double>(admitted)
                   : 0;
}

namespace {

// "" when `result` took the route `route` asks for.
const char* RouteProblem(Route route, const QueryResult& result) {
  switch (route) {
    case Route::kAny:
      return "";
    case Route::kSpill:
      return result.spilled ? "" : "did not spill";
    case Route::kInMemory:
      return result.spilled    ? "spilled"
             : result.degraded ? "degraded"
                               : "";
  }
  return "";
}

}  // namespace

bool RunOnce(const std::vector<MixQuery>& mix) {
  for (const MixQuery& q : mix) {
    ExecContext ctx;
    if (q.scratch_budget > 0) ctx.WithScratchBudget(q.scratch_budget);
    const ExecResult run = q.executor->Execute(q.spec, ctx);
    if (!run.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", q.id.c_str(),
                   run.ToStatus().ToString().c_str());
      return false;
    }
  }
  return true;
}

WindowResult RunSerialPasses(std::vector<MixQuery>* mix, Rng* order,
                             double seconds, Tracer* tracer,
                             EngineCounters* counters) {
  WindowResult window;
  std::vector<size_t> pass(mix->size());
  std::iota(pass.begin(), pass.end(), size_t{0});
  const Clock::time_point start = Clock::now();
  double checking = 0;
  const auto measured = [&] {
    return SecondsBetween(start, Clock::now()) - checking;
  };
  while (measured() < seconds) {
    if (order != nullptr) Shuffle(&pass, order);
    for (size_t i : pass) {
      MixQuery& q = (*mix)[i];
      ExecContext ctx;
      if (q.scratch_budget > 0) ctx.WithScratchBudget(q.scratch_budget);
      const Clock::time_point t0 = Clock::now();
      const ExecResult run = q.executor->Execute(q.spec, ctx);
      const Clock::time_point t1 = Clock::now();
      ++window.attempted;
      counters->Record(q.id, q.spec, run.result);
      if (tracer != nullptr) {
        RequestSpans request;
        request.query = q.id;
        const int root = request.Add("executor.execute", "", -1,
                                     tracer->Since(t0), SecondsBetween(t0, t1));
        request.AddExecution(root, q.spec, run.result, "engine.unattributed",
                             "engine.unattributed_ms");
        tracer->Commit(std::move(request));
      }
      const Clock::time_point c0 = Clock::now();
      std::string problem;
      if (!run.ok()) {
        problem = run.ToStatus().ToString();
      } else if (!q.verifier.Check(*q.table, q.spec, ViewOf(run.result))) {
        problem = "result differs from the reference";
      } else {
        problem = RouteProblem(q.route, run.result);
      }
      checking += SecondsBetween(c0, Clock::now());
      if (problem.empty()) {
        window.latencies.push_back(SecondsBetween(t0, t1));
      } else {
        ++window.failed;
        std::fprintf(stderr, "%s: %s\n", q.id.c_str(), problem.c_str());
      }
    }
  }
  window.seconds = measured();
  return window;
}

void Shuffle(std::vector<size_t>* order, Rng* rng) {
  for (size_t i = order->size(); i > 1; --i) {
    std::swap((*order)[i - 1], (*order)[rng->NextBounded(i)]);
  }
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

}  // namespace e2e
}  // namespace mcsort
