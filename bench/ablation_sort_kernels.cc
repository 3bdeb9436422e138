// Ablation: the per-round sort kernels of multi-column sorting — SIMD
// merge-sort (the paper's kernel), LSD radix (Sec. 7 future work), and the
// CAFS-style counting sort (O(N + K) when the round's distinct count K is
// small against N). A kernel runs by annotating every round of the plan
// with it.
//
// Three experiments:
//   1. Kernel-per-plan table over the Sec. 3 instances — which kernel wins
//      for which massage plan shape.
//   2. Cardinality sweep: one 16-bit round at K/N from 2^-16 up to ~1,
//      the regime split the cost model's counting term must capture
//      (counting's histogram costs O(2^width); its payoff needs small K
//      AND a cache-resident histogram).
//   3. Unforced routing: ROGA with the full kernel mask over the sweep's
//      statistics — prints the chosen plan with its kernel annotations so
//      the cost-model crossover can be checked against the measured one.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "mcsort/cost/cost_model.h"
#include "mcsort/plan/roga.h"
#include "mcsort/sort/counting_sort.h"

namespace {

// `plan` with every round annotated to run `kernel`.
mcsort::MassagePlan OnKernel(mcsort::MassagePlan plan,
                             mcsort::SortKernel kernel) {
  for (size_t j = 0; j < plan.num_rounds(); ++j) {
    plan.mutable_round(j)->kernel = kernel;
  }
  return plan;
}

}  // namespace

int main() {
  using namespace mcsort;
  const uint64_t n = bench::EnvRows();
  std::printf("Ablation: per-round sort kernels; N = %llu rows.\n",
              static_cast<unsigned long long>(n));

  struct Case {
    int w1, w2;
    std::vector<std::vector<int>> plans;
  };
  const std::vector<Case> cases = {
      // Ex1-style narrow pair; note 17 bits = 3 radix passes, 16 = 2.
      {10, 17, {{10, 17}, {27}, {11, 16}}},
      // Ex3: the paper's sweep instance.
      {17, 33, {{17, 33}, {18, 32}, {25, 25}, {50}}},
      // Wide pair (Ex4): radix pays many passes on 48-bit rounds.
      {48, 48, {{48, 48}, {32, 32, 32}}},
  };

  MultiColumnSorter sorter;
  // Best-of-reps seconds of `plan` with every round on `kernel`.
  const auto measure = [&](const std::vector<MassageInput>& inputs,
                           const MassagePlan& plan, SortKernel kernel) {
    return bench::MeasurePlan(inputs, OnKernel(plan, kernel),
                              bench::EnvReps(), &sorter)
        .total_seconds();
  };

  for (const Case& c : cases) {
    bench::Header(std::to_string(c.w1) + "-bit + " + std::to_string(c.w2) +
                  "-bit columns");
    const EncodedColumn c1 = bench::SyntheticColumn(c.w1, n, 71);
    const EncodedColumn c2 = bench::SyntheticColumn(c.w2, n, 72);
    std::vector<MassageInput> inputs = {{&c1, SortOrder::kAscending},
                                        {&c2, SortOrder::kAscending}};
    std::printf("%-28s %10s %10s %10s\n", "plan", "merge(ms)", "radix(ms)",
                "count(ms)");
    for (const auto& widths : c.plans) {
      const MassagePlan plan = MassagePlan::WithMinimalBanks(widths);
      const double merge_s = measure(inputs, plan, SortKernel::kSimdMerge);
      const double radix_s = measure(inputs, plan, SortKernel::kRadix);
      // Counting degrades per round to merge beyond kCountingMaxWidth
      // (the executor's feasibility guard) — flagged with a '*'.
      bool degraded = false;
      for (int w : widths) degraded = degraded || !CountingSortFeasible(w);
      const double counting_s = measure(inputs, plan, SortKernel::kCounting);
      std::printf("%-28s %10s %10s %9s%c\n", plan.ToString().c_str(),
                  bench::Ms(merge_s).c_str(), bench::Ms(radix_s).c_str(),
                  bench::Ms(counting_s).c_str(), degraded ? '*' : ' ');
    }
  }
  std::printf("\n(* = counting infeasible on some round; those rounds "
              "degraded to merge)\n");

  // ------------------------------------------------------------------
  // Cardinality sweep: one 16-bit round, K distinct values over N rows.
  // ------------------------------------------------------------------
  bench::Header("cardinality sweep: 16-bit round, K/N from 2^-16 to ~1");
  std::printf("%-10s %8s %10s %10s %10s %12s\n", "K", "K/N", "merge(ms)",
              "radix(ms)", "count(ms)", "count/merge");
  for (int log_k = 0; log_k <= 16; log_k += 2) {
    const uint64_t k = uint64_t{1} << log_k;
    const EncodedColumn col = bench::SyntheticColumn(16, n, 81 + log_k, k);
    std::vector<MassageInput> inputs = {{&col, SortOrder::kAscending}};
    const MassagePlan plan = MassagePlan::WithMinimalBanks({16});
    const double merge_s = measure(inputs, plan, SortKernel::kSimdMerge);
    const double radix_s = measure(inputs, plan, SortKernel::kRadix);
    const double counting_s = measure(inputs, plan, SortKernel::kCounting);
    std::printf("2^%-8d %8.2g %10s %10s %10s %11.2fx\n", log_k,
                static_cast<double>(k) / static_cast<double>(n),
                bench::Ms(merge_s).c_str(), bench::Ms(radix_s).c_str(),
                bench::Ms(counting_s).c_str(),
                merge_s > 0 ? counting_s / merge_s : 0);
  }

  // ------------------------------------------------------------------
  // Unforced routing: does ROGA pick the counting kernel at low K?
  // ------------------------------------------------------------------
  bench::Header("ROGA kernel routing (no forcing, full kernel mask)");
  const CostModel model(bench::BenchParams());
  std::printf("%-10s %-40s\n", "K", "chosen plan (round:kernel)");
  for (int log_k = 0; log_k <= 16; log_k += 4) {
    const uint64_t k = uint64_t{1} << log_k;
    const EncodedColumn col = bench::SyntheticColumn(16, n, 81 + log_k, k);
    std::vector<ColumnStats> storage;
    const SortInstanceStats stats = bench::StatsFor({&col}, &storage);
    SearchOptions options;
    options.kernels = kRoutableKernels;
    const SearchResult found = RogaSearch(model, stats, options);
    std::printf("2^%-8d %-40s\n", log_k, found.plan.ToString().c_str());
  }

  std::printf("\nexpected shape: counting beats merge while K stays far\n"
              "below N with the 2^16-counter histogram cache-resident;\n"
              "radix wins on narrow rounds ending at digit boundaries;\n"
              "ROGA's routing crossover should track the measured\n"
              "count/merge crossover.\n");
  return 0;
}
