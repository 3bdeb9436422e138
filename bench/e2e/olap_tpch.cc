// olap_tpch — the paper's setting: the Fig. 9 query set at SF 0.5 run
// through QueryExecutor::Execute by one closed-loop caller, massage on.
// Every pass runs the 13 queries once in a seeded order and the window
// ends on a whole pass. Service, net, delta and spill are bypassed.
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/e2e/e2e.h"
#include "mcsort/workloads/workload.h"

namespace mcsort {
namespace e2e {
namespace {

constexpr double kScale = 0.5;

class OlapTpch : public WorkloadRunner {
 public:
  explicit OlapTpch(const RunOptions& run)
      : run_(run), pool_(kPoolThreads), order_(run.seed) {}

  bool Setup() override {
    WorkloadOptions options;
    options.scale = kScale;
    options.seed = run_.seed;
    tpch_ = MakeTpch(options);
    options.skew = true;
    skew_ = MakeTpch(options);
    options.skew = false;
    tpcds_ = MakeTpcds(options);

    struct Pick {
      const Workload* source;
      const char* prefix;
      std::vector<const char*> ids;
    };
    const Pick picks[] = {
        {&tpch_, "tpch", {"Q1", "Q3", "Q9", "Q13", "Q18"}},
        {&skew_, "skew", {"Q2", "Q7", "Q10", "Q16"}},
        {&tpcds_, "tpcds", {"Q36", "Q67", "Q70", "Q86"}},
    };
    const ExecutorOptions exec = MakeExecutorOptions(run_, &pool_);
    for (const Pick& pick : picks) {
      for (const char* id : pick.ids) {
        const WorkloadQuery& query = pick.source->query(id);
        const Table& table = pick.source->table_for(query);
        // One executor per table, as a server would keep one per session.
        std::unique_ptr<QueryExecutor>& executor =
            executors_[std::string(pick.prefix) + "." + query.table];
        if (executor == nullptr) {
          executor = std::make_unique<QueryExecutor>(table, exec);
        }
        MixQuery q;
        q.id = std::string(pick.prefix) + "." + id;
        q.table = &table;
        q.executor = executor.get();
        q.spec = query.spec;
        mix_.push_back(std::move(q));
      }
    }
    // Warm-up: one full pass builds every lazy ByteSlice/statistics layout.
    return RunOnce(mix_);
  }

  void PrepareChecks() override {
    for (MixQuery& q : mix_) {
      q.verifier = Verifier(ReferenceDigest(*q.table, q.spec));
    }
  }

  WindowResult RunWindow(double seconds, Tracer* tracer) override {
    EngineCounters counters;
    WindowResult window =
        RunSerialPasses(&mix_, &order_, seconds, tracer, &counters);
    counters.Export(&window.layer);
    return window;
  }

 private:
  RunOptions run_;
  ThreadPool pool_;
  Rng order_;
  Workload tpch_, skew_, tpcds_;
  std::map<std::string, std::unique_ptr<QueryExecutor>> executors_;
  std::vector<MixQuery> mix_;
};

}  // namespace

std::unique_ptr<WorkloadRunner> MakeOlapTpch(const RunOptions& run) {
  return std::make_unique<OlapTpch>(run);
}

}  // namespace e2e
}  // namespace mcsort
