// Reproduces Table 2 of the paper: the time ROGA spends finding a code
// massage plan for each eligible query (the paper reports it as
// negligible; under rho = 0.1%, 22 of the 27 queries complete the whole
// search before the deadline).
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "mcsort/plan/roga.h"

namespace mcsort {
namespace {

void RunWorkload(const Workload& workload, const CostModel& model) {
  bench::Header(workload.name);
  std::printf("%-5s %4s %12s %10s %10s  %-28s\n", "query", "W", "search(ms)",
              "plans", "complete", "chosen plan");
  for (const WorkloadQuery& q : workload.queries) {
    const Table& table = workload.table_for(q);
    ExecutorOptions exec_options;
    QueryExecutor executor(table, exec_options);
    const SortInstanceStats stats =
        executor.InstanceStats(q.spec, table.row_count());
    SearchOptions options;  // rho = 0.1% default
    options.permute_columns =
        !q.spec.group_by.empty() || !q.spec.partition_by.empty();
    options.permute_prefix =
        q.spec.partition_by.empty()
            ? -1
            : static_cast<int>(q.spec.partition_by.size());
    const SearchResult result = RogaSearch(model, stats, options);
    std::printf("%-5s %4d %12.3f %10zu %10s  %-28s\n", q.id.c_str(),
                stats.total_width(), result.search_seconds * 1e3,
                result.plans_costed, result.timed_out ? "deadline" : "yes",
                result.plan.ToString().c_str());
  }
}

}  // namespace
}  // namespace mcsort

int main() {
  using namespace mcsort;
  WorkloadOptions wopts;
  wopts.scale = bench::EnvScale();
  const CostParams& params = bench::BenchParams();
  const CostModel model(params);
  std::printf("Table 2 reproduction: ROGA plan-search time per query "
              "(rho = 0.1%%).\n");

  RunWorkload(MakeTpch(wopts), model);
  WorkloadOptions skew = wopts;
  skew.skew = true;
  RunWorkload(MakeTpch(skew), model);
  RunWorkload(MakeTpcds(wopts), model);
  RunWorkload(MakeAirline(wopts), model);
  std::printf("\npaper: the time used by ROGA to find a good plan is "
              "negligible; under\nrho = 0.1%%, 22 of 27 queries complete "
              "the whole search before the deadline\n(the remainder have "
              "W > 87).\n");
  return 0;
}
