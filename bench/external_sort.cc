// External (spill) sort benchmark: what does sorting under a scratch
// budget cost, and what does the double-buffered prefetch buy?
//
// Part 1 (budget sweep): a 4-column ORDER BY over MCSORT_N rows, executed
// in memory first, then under scratch budgets of 1/2, 1/4, and 1/8 of the
// plan's estimate — each over-budget run spills through the external
// sorter (massaging disabled so the router cannot pick the degrade arm
// and the comparison stays plan-for-plan). Reports run-generation and
// merge time, run count, and spill footprint per budget.
//
// Part 2 (prefetch ablation): the external sorter driven directly at a
// fixed slice size, with the async block loader on vs. off (synchronous
// reads on the merge thread), at 1 and 2 IO threads.
//
// With --verify (the spill_smoke.sh mode) every spilled result is checked
// value-identical to the in-memory baseline — equal group bounds and the
// same row set per group — and the spill dir must be empty afterwards;
// any violation exits nonzero.
//
// Environment: MCSORT_N (default 2^21), MCSORT_REPS, MCSORT_SPILL_DIR
// (default /tmp/mcsort-spill-bench).
#include <dirent.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "mcsort/common/thread_pool.h"
#include "mcsort/io/fs_util.h"
#include "mcsort/sort/external/external_sort.h"

namespace mcsort {
namespace {

Table BenchTable(size_t n, uint64_t seed) {
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

size_t SpillDirFiles(const std::string& dir) {
  size_t count = 0;
  if (DIR* d = ::opendir(dir.c_str())) {
    while (struct dirent* e = ::readdir(d)) {
      if (std::strcmp(e->d_name, ".") != 0 && std::strcmp(e->d_name, "..") != 0)
        ++count;
    }
    ::closedir(d);
  }
  return count;
}

bool ValueIdentical(const std::vector<Oid>& got, const Segments& got_groups,
                    const std::vector<Oid>& want,
                    const Segments& want_groups) {
  if (got.size() != want.size()) return false;
  if (got_groups.bounds != want_groups.bounds) return false;
  for (size_t g = 0; g < want_groups.count(); ++g) {
    std::vector<Oid> a(got.begin() + want_groups.begin(g),
                       got.begin() + want_groups.end(g));
    std::vector<Oid> b(want.begin() + want_groups.begin(g),
                       want.begin() + want_groups.end(g));
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    if (a != b) return false;
  }
  return true;
}

int RunBudgetSweep(const Table& table, const std::string& spill_dir, int reps,
                   bool verify, ThreadPool* pool) {
  const size_t n = table.row_count();
  ExecutorOptions options;
  options.pool = pool;
  options.use_massage = false;
  options.spill.dir = spill_dir;
  QueryExecutor executor(table, options);
  const QuerySpec spec = QuerySpecBuilder()
                             .OrderBy("a")
                             .OrderBy("b")
                             .OrderBy("c")
                             .OrderBy("d")
                             .Build();

  ExecResult baseline;
  double in_memory = 1e30;
  for (int r = 0; r < reps; ++r) {
    Timer timer;
    baseline = executor.Execute(spec, ExecContext::Default());
    in_memory = std::min(in_memory, timer.Seconds());
    if (!baseline.ok()) {
      std::fprintf(stderr, "in-memory execution failed: %s\n",
                   baseline.status.ToString().c_str());
      return 1;
    }
  }
  const size_t full_bytes =
      QueryExecutor::EstimatePlanScratchBytes(baseline.result.plan, n);
  std::printf("in-memory             %8.3f s   (scratch estimate %.1f MiB)\n",
              in_memory, full_bytes / 1048576.0);

  for (const size_t divisor : {2, 4, 8}) {
    ExecResult best;
    double seconds = 1e30;
    for (int r = 0; r < reps; ++r) {
      ExecContext ctx;
      ctx.WithScratchBudget(full_bytes / divisor);
      Timer timer;
      ExecResult run = executor.Execute(spec, ctx);
      if (!run.ok()) {
        std::fprintf(stderr, "budget 1/%zu failed: %s\n", divisor,
                     run.status.ToString().c_str());
        return 1;
      }
      if (timer.Seconds() < seconds) {
        seconds = timer.Seconds();
        best = std::move(run);
      }
    }
    std::printf(
        "budget 1/%zu            %8.3f s   (%5.2fx, %zu runs, %.1f MiB "
        "spilled, gen %.3f s, merge %.3f s)\n",
        divisor, seconds, seconds / in_memory, best.result.spill_runs,
        best.result.spill_bytes / 1048576.0, best.result.spill_run_gen_seconds,
        best.result.spill_merge_seconds);
    if (verify) {
      if (!best.result.spilled) {
        std::fprintf(stderr, "budget 1/%zu did not spill\n", divisor);
        return 1;
      }
      if (!ValueIdentical(best.result.result_oids,
                          best.result.sort_profile.groups,
                          baseline.result.result_oids,
                          baseline.result.sort_profile.groups)) {
        std::fprintf(stderr,
                     "budget 1/%zu result diverged from in-memory sort\n",
                     divisor);
        return 1;
      }
      const size_t residue = SpillDirFiles(spill_dir);
      if (residue != 0) {
        std::fprintf(stderr, "budget 1/%zu left %zu files in %s\n", divisor,
                     residue, spill_dir.c_str());
        return 1;
      }
    }
  }
  return 0;
}

int RunPrefetchAblation(const Table& table, const std::string& spill_dir,
                        int reps, ThreadPool* pool) {
  const size_t n = table.row_count();
  const std::vector<MassageInput> inputs = {
      {&table.column("a"), SortOrder::kAscending},
      {&table.column("b"), SortOrder::kAscending},
      {&table.column("c"), SortOrder::kAscending},
      {&table.column("d"), SortOrder::kAscending}};
  const MassagePlan plan = MassagePlan::ColumnAtATime({16, 17, 18, 12});
  MultiColumnSorter sorter(pool);

  struct Mode {
    const char* name;
    bool prefetch;
    int io_threads;
  };
  for (const Mode mode : {Mode{"sync reads      ", false, 0},
                          Mode{"prefetch x1     ", true, 1},
                          Mode{"prefetch x2     ", true, 2}}) {
    SpillConfig config;
    config.dir = spill_dir;
    config.prefetch = mode.prefetch;
    config.io_threads = mode.io_threads;
    external::ExternalSorter ext(&sorter, config, n / 8);
    double merge = 1e30, total = 1e30;
    for (int r = 0; r < reps; ++r) {
      Timer timer;
      const external::ExternalSortResult result =
          ext.Sort(inputs, plan, ExecContext::Default());
      if (!result.status.ok()) {
        std::fprintf(stderr, "%s failed: %s\n", mode.name,
                     result.status.ToString().c_str());
        return 1;
      }
      total = std::min(total, timer.Seconds());
      merge = std::min(merge, result.merge_seconds);
    }
    std::printf("%s  %8.3f s total   merge %8.3f s\n", mode.name, total,
                merge);
  }
  return 0;
}

}  // namespace
}  // namespace mcsort

int main(int argc, char** argv) {
  using namespace mcsort;
  bool verify = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--verify") == 0) verify = true;
  }
  const size_t n = bench::EnvRows();
  const int reps = bench::EnvReps();
  const std::string spill_dir =
      EnvStr("MCSORT_SPILL_DIR", "/tmp/mcsort-spill-bench");
  std::printf("external sort bench: n=%zu reps=%d dir=%s%s\n\n", n, reps,
              spill_dir.c_str(), verify ? " (verify)" : "");

  const Table table = BenchTable(n, 2024);
  ThreadPool pool(2);
  std::printf("--- budget sweep (4-column ORDER BY, column-at-a-time) ---\n");
  if (const int rc = RunBudgetSweep(table, spill_dir, reps, verify, &pool)) {
    return rc;
  }
  std::printf("\n--- merge prefetch ablation (8 runs) ---\n");
  if (const int rc = RunPrefetchAblation(table, spill_dir, reps, &pool)) {
    return rc;
  }
  return 0;
}
