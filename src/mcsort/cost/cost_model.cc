#include "mcsort/cost/cost_model.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "mcsort/common/bits.h"
#include "mcsort/common/logging.h"
#include "mcsort/massage/fip.h"
#include "mcsort/sort/counting_sort.h"
#include "mcsort/sort/radix_sort.h"
#include "mcsort/storage/types.h"

namespace mcsort {

SortInstanceStats SortInstanceStats::Permuted(
    const std::vector<int>& order) const {
  MCSORT_CHECK(order.size() == columns.size());
  SortInstanceStats permuted;
  permuted.n = n;
  permuted.merge_fan_in = merge_fan_in;
  permuted.columns.reserve(columns.size());
  for (int idx : order) {
    permuted.columns.push_back(columns[static_cast<size_t>(idx)]);
  }
  return permuted;
}

double CostModel::CompositeDistinct(const SortInstanceStats& stats,
                                    int bits) const {
  // Product of per-column (partial-)prefix distinct counts, assuming
  // column independence; capped to avoid overflow (the balls-into-bins
  // step saturates at N long before the cap matters).
  constexpr double kCap = 1e18;
  double product = 1.0;
  int remaining = bits;
  for (const ColumnStats* column : stats.columns) {
    if (remaining <= 0) break;
    const int take = std::min(column->width(), remaining);
    product *= std::max(1.0, column->EstimateDistinctPrefixes(take));
    remaining -= take;
    if (product > kCap) return kCap;
  }
  return product;
}

CostModel::GroupShape CostModel::EstimateGroups(uint64_t n,
                                                double prefix_distinct) const {
  GroupShape shape;
  const double rows = static_cast<double>(n);
  if (prefix_distinct <= 1.0) {
    // Single group covering everything (round 1).
    shape.n_group = 1.0;
    shape.n_sort = rows > 1 ? 1.0 : 0.0;
    shape.rows_to_sort = rows;
    shape.avg_group_size = rows;
    return shape;
  }
  const double cells = prefix_distinct;
  // Balls into bins over the composite prefix domain.
  shape.n_group = ExpectedOccupiedCells(cells, rows);
  const double log_miss = (rows - 1.0) * std::log1p(-1.0 / cells);
  const double singletons = rows * std::exp(log_miss);
  shape.n_sort = std::max(0.0, shape.n_group - singletons);
  shape.rows_to_sort = std::max(0.0, rows - singletons);
  shape.avg_group_size =
      shape.n_sort > 0.5 ? shape.rows_to_sort / shape.n_sort : 0.0;
  return shape;
}

double CostModel::SortCycles(const GroupShape& shape, int bank) const {
  const BankSortParams& p = params_.bank(bank);
  if (shape.n_sort < 0.5) return 0.0;
  // Out-of-cache passes for an average-size group (Eq. 8), >= 0.
  const double group_bytes = shape.avg_group_size * bank / 8.0;
  const double half_l2 = 0.5 * static_cast<double>(params_.l2_bytes);
  double passes = 0.0;
  if (group_bytes > half_l2) {
    passes = std::ceil(std::log(group_bytes / half_l2) /
                       std::log(static_cast<double>(params_.merge_fanout)));
    passes = std::max(passes, 0.0);
  }
  return shape.n_sort * p.overhead +
         shape.rows_to_sort * (p.sort_network + p.in_cache_merge) +
         shape.rows_to_sort * p.out_of_cache_merge * passes;
}

double CostModel::LookupCycles(uint64_t n, int width) const {
  if (n == 0) return 0.0;
  const double footprint =
      static_cast<double>(n) * static_cast<double>(SizeOfWidth(width));
  const double hit = std::min(
      1.0, static_cast<double>(params_.llc_bytes) / footprint);
  return static_cast<double>(n) *
         (params_.cache_cycles * hit + params_.mem_cycles * (1.0 - hit));
}

double CostModel::SortCyclesCounting(const GroupShape& shape, int width,
                                     double avg_group_distinct) const {
  if (shape.n_sort < 0.5) return 0.0;
  if (!CountingSortFeasible(width)) {
    return std::numeric_limits<double>::infinity();
  }
  const CountingSortParams& p = params_.counting;
  // Every per-group invocation walks the full 2^width domain (prefix +
  // regeneration) — the O(K) term that keeps counting out of late rounds
  // with many small groups.
  const double domain = std::pow(2.0, width);
  // Histogram residency: only a group's ~distinct counters are touched;
  // blend row cost by how much of that working set one L2 holds.
  const double touched_bytes =
      std::max(1.0, avg_group_distinct) * static_cast<double>(sizeof(uint64_t));
  const double hit =
      std::min(1.0, static_cast<double>(params_.l2_bytes) / touched_bytes);
  return shape.n_sort * (p.overhead + domain * p.per_bucket) +
         shape.rows_to_sort * (p.row_cache * hit + p.row_mem * (1.0 - hit));
}

double CostModel::SortCyclesRadix(const GroupShape& shape, int width,
                                  int bank) const {
  if (width <= kRadixDigitBits ||
      shape.avg_group_size <= static_cast<double>(kRadixInsertionMax)) {
    return std::numeric_limits<double>::infinity();
  }
  const RadixSortParams& p = params_.radix;
  const double passes =
      static_cast<double>((width + kRadixDigitBits - 1) / kRadixDigitBits);
  const double buckets = static_cast<double>(size_t{1} << kRadixDigitBits);
  const double group_bytes =
      shape.avg_group_size * (bank / 8.0 + static_cast<double>(sizeof(Oid)));
  const double msd =
      group_bytes > static_cast<double>(kRadixMsdMinBytes) ? 1.0 : 0.0;
  return shape.n_sort * (p.overhead + passes * buckets * p.per_bucket) +
         shape.rows_to_sort * (passes * p.row_pass + msd * p.msd_row);
}

double CostModel::NextRoundSortCycles(const SortInstanceStats& stats,
                                      int prefix_bits, int bank) const {
  const GroupShape shape =
      EstimateGroups(stats.n, CompositeDistinct(stats, prefix_bits));
  return SortCycles(shape, bank);
}

CostModel::PlanEstimate CostModel::Estimate(const MassagePlan& plan,
                                            const SortInstanceStats& stats,
                                            SortKernelMask kernels) const {
  MCSORT_CHECK(plan.IsValid());
  MCSORT_CHECK(plan.total_width() == stats.total_width());
  PlanEstimate estimate;

  // T_massage (Eq. 4).
  const int fips = CountFipInvocations(stats.widths(), plan.widths());
  estimate.t_massage =
      static_cast<double>(fips) * params_.massage_cycles *
      static_cast<double>(stats.n);
  estimate.total_cycles = estimate.t_massage;

  int prefix_bits = 0;
  for (size_t j = 0; j < plan.num_rounds(); ++j) {
    const Round& round = plan.round(j);
    RoundEstimate re;
    const GroupShape entering =
        EstimateGroups(stats.n, CompositeDistinct(stats, prefix_bits));
    re.n_sort = entering.n_sort;
    re.rows_to_sort = entering.rows_to_sort;
    re.avg_group_size = entering.avg_group_size;
    // Kernel-choice dimension: cheapest allowed feasible kernel wins the
    // round; merge is the unconditional fallback.
    re.kernel = SortKernel::kSimdMerge;
    re.t_sort = SortCycles(entering, round.bank);
    const double exiting_distinct =
        CompositeDistinct(stats, prefix_bits + round.width);
    if ((kernels & KernelBit(SortKernel::kCounting)) != 0) {
      // Distinct codes per sorted group this round: the new composite
      // distinct spread over the groups entering it, capped by the domain.
      double avg_group_distinct =
          entering.n_group > 0.5 ? exiting_distinct / entering.n_group
                                 : exiting_distinct;
      avg_group_distinct = std::min(
          avg_group_distinct,
          std::pow(2.0, std::min(round.width, kCountingMaxWidth + 1)));
      const double t =
          SortCyclesCounting(entering, round.width, avg_group_distinct);
      if (t < re.t_sort) {
        re.t_sort = t;
        re.kernel = SortKernel::kCounting;
      }
    }
    if ((kernels & KernelBit(SortKernel::kRadix)) != 0) {
      const double t = SortCyclesRadix(entering, round.width, round.bank);
      if (t < re.t_sort) {
        re.t_sort = t;
        re.kernel = SortKernel::kRadix;
      }
    }
    if (j > 0) re.t_lookup = LookupCycles(stats.n, round.width);
    re.t_scan = params_.scan_cycles * static_cast<double>(stats.n);
    prefix_bits += round.width;
    re.n_group = EstimateGroups(stats.n, exiting_distinct).n_group;
    estimate.total_cycles += re.t_lookup + re.t_sort + re.t_scan;
    estimate.rounds.push_back(re);
  }
  // Shard-aware term: the coordinator merge this shard's stream feeds.
  // Each shard is billed its own rows' share of the merge.
  if (stats.merge_fan_in > 1) {
    estimate.t_coord_merge = CoordinatorMergeCycles(
        stats.n, stats.merge_fan_in, stats.total_width());
    estimate.total_cycles += estimate.t_coord_merge;
  }
  return estimate;
}

double CostModel::SpillCycles(uint64_t n, int num_runs, int key_bits) const {
  if (n == 0) return 0;
  const SpillParams& p = params_.spill;
  // Run-file row: 128-bit composite key + 32-bit oid (run_file.h's
  // kRunRowBytes), written once during generation and read once to merge.
  const double bytes = static_cast<double>(n) * 20.0;
  return p.overhead + static_cast<double>(n) * p.key_build_per_row +
         bytes * (p.write_per_byte + p.read_per_byte) +
         CoordinatorMergeCycles(n, num_runs < 2 ? 2 : num_runs, key_bits);
}

double CostModel::CoordinatorMergeCycles(uint64_t n, int fan_in,
                                         int key_bits) const {
  if (fan_in <= 1 || n == 0) return 0;
  const CoordMergeParams& p = params_.coord_merge;
  const int levels =
      std::bit_width(static_cast<unsigned>(fan_in) - 1u);  // ceil(log2)
  const double key_bytes = static_cast<double>((key_bits + 7) / 8);
  return p.overhead +
         static_cast<double>(n) * static_cast<double>(levels) *
             (p.per_element + p.per_key_byte * key_bytes);
}

}  // namespace mcsort
