// The architectural cost model of Sec. 4: estimates T_mcs, the CPU time of
// a multi-column sorting instance under a given code massage plan, from
// basic statistics (row count, column widths, value distributions).
//
//   T_mcs = T_massage + sum over rounds of (T_lookup + T_sort^k + T_scan)
//
//   T_lookup  (Eq. 3): N random accesses under a modeled cache hit ratio
//                      M_LLC / (N * size(w)).
//   T_massage (Eq. 4): I_FIP * C_massage * N.
//   T_sort^k  (Eq. 1): N_sort invocations of a b-bit SIMD merge-sort, each
//                      costed by Eqs. 2 and 5-8.
//   T_scan    (Eq. 9): one sequential pass.
//
// Group structure per round (N_group, N_sort, average group size) is
// estimated from per-column distinct/histogram statistics: the bit prefix
// sorted before round k determines the expected number of tied groups via
// a balls-into-bins model over the composite prefix domain.
#ifndef MCSORT_COST_COST_MODEL_H_
#define MCSORT_COST_COST_MODEL_H_

#include <cstdint>
#include <vector>

#include "mcsort/cost/params.h"
#include "mcsort/massage/plan.h"
#include "mcsort/storage/statistics.h"

namespace mcsort {

// One multi-column sorting problem instance, described by statistics only.
struct SortInstanceStats {
  uint64_t n = 0;
  // Per input column (most significant first). Pointers are borrowed.
  std::vector<const ColumnStats*> columns;
  // Shard-aware costing: when this instance is one shard of a distributed
  // query, the coordinator's merge fan-in (> 1). Every plan estimate then
  // includes the coordinator-merge term, so the rho search budget is
  // anchored to the true end-to-end cost. 0 / 1 = single-node.
  int merge_fan_in = 0;

  std::vector<int> widths() const {
    std::vector<int> w;
    w.reserve(columns.size());
    for (const ColumnStats* c : columns) w.push_back(c->width());
    return w;
  }
  int total_width() const {
    int total = 0;
    for (const ColumnStats* c : columns) total += c->width();
    return total;
  }
  // The instance with its columns permuted (GROUP BY / PARTITION BY plan
  // search explores column orders).
  SortInstanceStats Permuted(const std::vector<int>& order) const;
};

class CostModel {
 public:
  explicit CostModel(const CostParams& params) : params_(params) {}

  const CostParams& params() const { return params_; }

  struct RoundEstimate {
    double n_group = 0;        // groups after this round
    double n_sort = 0;         // SIMD-sort invocations in this round
    double rows_to_sort = 0;   // rows inside non-singleton groups
    double avg_group_size = 0; // N̄_code entering this round's sorts
    double t_lookup = 0;       // cycles (0 for the first round)
    double t_sort = 0;         // cycles
    double t_scan = 0;         // cycles
    // Cheapest feasible kernel among the allowed set; t_sort is its cost.
    SortKernel kernel = SortKernel::kSimdMerge;
  };
  struct PlanEstimate {
    double t_massage = 0;  // cycles
    std::vector<RoundEstimate> rounds;
    // Coordinator-merge term (distributed shards only; see
    // SortInstanceStats::merge_fan_in). Plan-independent — it never flips
    // the argmin between candidate plans — but it inflates T(P*) and
    // therefore the rho stopwatch budget, which is the point: a shard
    // feeding an expensive merge can afford a longer plan search.
    double t_coord_merge = 0;
    double total_cycles = 0;
  };

  // Full estimate of plan `plan` on `stats` (plan width must equal the
  // instance width). `kernels` is the kernel-choice dimension: each round
  // is costed with the cheapest allowed feasible kernel (merge is always
  // feasible and is the implicit fallback). The default keeps the paper's
  // merge-only model.
  PlanEstimate Estimate(
      const MassagePlan& plan, const SortInstanceStats& stats,
      SortKernelMask kernels = KernelBit(SortKernel::kSimdMerge)) const;
  double EstimateCycles(
      const MassagePlan& plan, const SortInstanceStats& stats,
      SortKernelMask kernels = KernelBit(SortKernel::kSimdMerge)) const {
    return Estimate(plan, stats, kernels).total_cycles;
  }
  double EstimateSeconds(
      const MassagePlan& plan, const SortInstanceStats& stats,
      SortKernelMask kernels = KernelBit(SortKernel::kSimdMerge)) const {
    return EstimateCycles(plan, stats, kernels) / (params_.ghz * 1e9);
  }

  // Spill-arm estimate for the executor's spill-vs-degrade router: the
  // *extra* cost external sorting adds on top of the in-memory sort of the
  // same rows — composite-key builds, run-file writes and reads (20 bytes
  // per row: 128-bit key + 32-bit oid), and the `num_runs`-way OVC merge
  // (costed like the coordinator merge it clones). The caller adds the
  // in-memory plan estimate itself.
  double SpillCycles(uint64_t n, int num_runs, int key_bits) const;

  // Calibratable coordinator-merge cost: merging `n` elements of
  // `key_bits`-bit composite keys from `fan_in` pre-sorted shard streams
  // through an OVC loser tree (ceil(log2 fan_in) levels). Returns 0 for
  // fan_in <= 1.
  double CoordinatorMergeCycles(uint64_t n, int fan_in, int key_bits) const;

  // T_sort of the round that would *follow* a sorted prefix of
  // `prefix_bits` bits, when executed with `bank`-bit banks — the greedy
  // criterion of Algorithm 1 line 11 (it does not depend on how many bits
  // that next round itself carries).
  double NextRoundSortCycles(const SortInstanceStats& stats, int prefix_bits,
                             int bank) const;

  // Expected number of distinct values of the leading `bits` bits of the
  // concatenated key (composite across columns, independence assumed).
  double CompositeDistinct(const SortInstanceStats& stats, int bits) const;

 private:
  struct GroupShape {
    double n_group;
    double n_sort;
    double rows_to_sort;
    double avg_group_size;
  };
  // Group structure among N rows given the distinct count of the sorted
  // prefix (balls-into-bins).
  GroupShape EstimateGroups(uint64_t n, double prefix_distinct) const;
  // T_sort^k: cost of sorting `shape` with bank `bank` (Eqs. 1-2, 5-8).
  double SortCycles(const GroupShape& shape, int bank) const;
  // T_sort for the counting kernel on a `width`-bit round whose average
  // group holds `avg_group_distinct` distinct codes (drives the histogram
  // cache-residency blend). Returns +inf when width is infeasible.
  double SortCyclesCounting(const GroupShape& shape, int width,
                            double avg_group_distinct) const;
  // T_lookup for reordering a w-bit column of N codes (Eq. 3).
  double LookupCycles(uint64_t n, int width) const;

  CostParams params_;
};

}  // namespace mcsort

#endif  // MCSORT_COST_COST_MODEL_H_
