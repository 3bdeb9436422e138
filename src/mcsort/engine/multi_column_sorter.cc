#include "mcsort/engine/multi_column_sorter.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "mcsort/common/logging.h"
#include "mcsort/common/timer.h"
#include "mcsort/scan/lookup.h"
#include "mcsort/sort/counting_sort.h"
#include "mcsort/sort/radix_sort.h"

namespace mcsort {
namespace {

// Typed pointer to element `offset` of a round-key column.
void* RawAt(EncodedColumn* column, size_t offset) {
  switch (column->type()) {
    case PhysicalType::kU16: return column->Data16() + offset;
    case PhysicalType::kU32: return column->Data32() + offset;
    case PhysicalType::kU64: return column->Data64() + offset;
  }
  // A new PhysicalType must be wired into every dispatch, not silently
  // treated as a null array.
  MCSORT_CHECK(false && "unhandled PhysicalType in RawAt");
  return nullptr;
}

int BankOfType(PhysicalType type) {
  switch (type) {
    case PhysicalType::kU16: return 16;
    case PhysicalType::kU32: return 32;
    case PhysicalType::kU64: return 64;
  }
  MCSORT_CHECK(false && "unhandled PhysicalType in BankOfType");
  return 0;
}

// Segments of at least this many rows (and at least a 1/(2T) share of the
// round) are sorted by the cooperative parallel split+merge sorter instead
// of being one worker's morsel: a single dominant group would otherwise
// serialize the round on one core.
uint32_t CooperativeSortThreshold(size_t round_rows, int workers) {
  const uint64_t share =
      round_rows / (2 * static_cast<uint64_t>(workers));
  return static_cast<uint32_t>(
      std::max<uint64_t>(kParallelSortMinRows, share));
}

// Segments per dynamic morsel: mid-size segments are claimed one at a
// time (a relaxed fetch_add per segment is noise next to sorting >32
// rows); tiny segments are batched so dispatch does not dominate the
// few-element insertion sorts the later rounds produce in bulk.
constexpr uint64_t kMidSortMorselSegments = 1;
constexpr uint64_t kTinySortMorselSegments = 256;

// Maps a single-kernel MCSORT_KERNELS mask to the forced kernel.
bool SingleKernelFromEnv(SortKernel* out) {
  const SortKernelMask mask = KernelMaskFromEnv(0);
  for (SortKernel kernel :
       {SortKernel::kSimdMerge, SortKernel::kRadix, SortKernel::kCounting}) {
    if (mask == KernelBit(kernel)) {
      *out = kernel;
      return true;
    }
  }
  return false;
}

}  // namespace

MultiColumnSorter::MultiColumnSorter(ThreadPool* pool) : pool_(pool) {
  const int workers = pool_ == nullptr ? 1 : pool_->num_threads();
  scratch_.resize(static_cast<size_t>(workers));
  env_forced_ = SingleKernelFromEnv(&env_kernel_);
}

void MultiColumnSorter::SortSegments(int bank, SortKernel kernel,
                                     EncodedColumn* keys, Oid* oids,
                                     const Segments& segments,
                                     RoundProfile* profile,
                                     const ExecContext* ctx) {
  // The massager typed the round column for its bank.
  MCSORT_CHECK(BankOfType(keys->type()) == bank);
  const bool stoppable = ctx != nullptr && ctx->stoppable();
  size_t num_sorts = 0;
  for (size_t s = 0; s < segments.count(); ++s) {
    if (segments.length(s) > 1) ++num_sorts;
  }
  profile->num_sorts = num_sorts;

  const int key_width = keys->width();
  // Resolution: a single-kernel MCSORT_KERNELS force, else the plan round.
  SortKernel effective = env_forced_ ? env_kernel_ : kernel;
  // Nothing produces the retired OVC kernel; a round carrying it is a
  // programming error, like an unsupported bank.
  MCSORT_CHECK(effective != SortKernel::kOvcMerge);
  // A counting round too wide for its histogram degrades to merge rather
  // than crashing (the planner never chooses an infeasible width itself).
  if (effective == SortKernel::kCounting &&
      !CountingSortFeasible(key_width)) {
    effective = SortKernel::kSimdMerge;
  }
  profile->kernel = effective;

  const auto sort_one = [&](size_t s, SortScratch& scratch) {
    const uint32_t begin = segments.begin(s);
    const uint32_t len = segments.length(s);
    switch (effective) {
      case SortKernel::kRadix:
        RadixSortPairsBank(bank, RawAt(keys, begin), oids + begin, len,
                           key_width, scratch);
        break;
      case SortKernel::kCounting:
        CountingSortPairsBank(bank, RawAt(keys, begin), oids + begin, len,
                              key_width, scratch);
        break;
      default:
        SortPairsBank(bank, RawAt(keys, begin), oids + begin, len, scratch);
        break;
    }
  };

  if (pool_ == nullptr || pool_->num_threads() <= 1) {
    for (size_t s = 0; s < segments.count(); ++s) {
      if (stoppable && ctx->StopRequested()) break;
      if (segments.length(s) > 1) sort_one(s, scratch_[0]);
    }
    return;
  }

  // Morsel-driven parallel round: bucket the segments by size. Skewed
  // group lists (one huge group plus thousands of tiny ones — the normal
  // shape of later rounds) defeat a static contiguous split, so everything
  // below the cooperative threshold is claimed dynamically.
  const uint32_t huge_len =
      CooperativeSortThreshold(keys->size(), pool_->num_threads());
  std::vector<uint32_t> huge;  // cooperative parallel sorts, one at a time
  std::vector<uint32_t> mid;   // one-segment morsels
  std::vector<uint32_t> tiny;  // batched morsels of insertion sorts
  for (size_t s = 0; s < segments.count(); ++s) {
    const uint32_t len = segments.length(s);
    if (len <= 1) continue;
    if (len >= huge_len) {
      huge.push_back(static_cast<uint32_t>(s));
    } else if (len > kSimdSortInsertionMax) {
      mid.push_back(static_cast<uint32_t>(s));
    } else {
      tiny.push_back(static_cast<uint32_t>(s));
    }
  }

  for (const uint32_t s : huge) {
    if (stoppable && ctx->StopRequested()) break;
    const uint32_t begin = segments.begin(s);
    if (effective == SortKernel::kCounting) {
      ParallelCountingSortPairsBank(bank, RawAt(keys, begin), oids + begin,
                                    segments.length(s), key_width, *pool_,
                                    scratch_, ctx);
    } else if (effective == SortKernel::kRadix) {
      ParallelRadixSortPairsBank(bank, RawAt(keys, begin), oids + begin,
                                 segments.length(s), key_width, *pool_,
                                 scratch_, ctx);
    } else {
      ParallelSortPairsBank(bank, RawAt(keys, begin), oids + begin,
                            segments.length(s), *pool_, scratch_, ctx);
    }
  }
  profile->cooperative_sorts = huge.size();
  if (stoppable && ctx->StopRequested()) return;

  const auto sort_bucket = [&](const std::vector<uint32_t>& bucket,
                               uint64_t morsel) {
    const ThreadPool::DynamicStats stats = pool_->ParallelForDynamic(
        bucket.size(), morsel,
        [&](uint64_t begin, uint64_t end, int worker) {
          SortScratch& scratch = scratch_[static_cast<size_t>(worker)];
          for (uint64_t i = begin; i < end; ++i) {
            sort_one(bucket[static_cast<size_t>(i)], scratch);
          }
        },
        ctx);
    profile->sort_morsels += stats.morsels;
    profile->sort_workers = std::max(profile->sort_workers, stats.workers);
  };
  sort_bucket(mid, kMidSortMorselSegments);
  sort_bucket(tiny, kTinySortMorselSegments);
}

MultiColumnSortResult MultiColumnSorter::Sort(
    const std::vector<MassageInput>& inputs, const MassagePlan& plan,
    const ExecContext& ctx) {
  MCSORT_CHECK(!inputs.empty());
  const size_t n = inputs[0].column->size();
  MultiColumnSortResult result;
  result.oids.resize(n);
  std::iota(result.oids.begin(), result.oids.end(), 0);
  if (n == 0) {
    result.groups.bounds = {0};
    return result;
  }

  // Round boundary 0: massaging. CheckRound polls the fault injector, so
  // env-driven faults fire here and between rounds.
  const bool stoppable = ctx.stoppable();
  if (stoppable) {
    result.status = ctx.CheckRound();
    if (!result.status.ok()) return result;
  }

  Timer timer;
  std::vector<EncodedColumn> round_keys =
      ApplyMassage(inputs, plan, pool_, &ctx);
  result.massage_seconds = timer.Seconds();

  Segments segments = Segments::Whole(n);
  EncodedColumn gathered;
  for (size_t j = 0; j < plan.num_rounds(); ++j) {
    if (stoppable) {
      result.status = ctx.CheckRound();
      if (!result.status.ok()) return result;
    }
    RoundProfile profile;
    EncodedColumn* keys = &round_keys[j];
    if (j > 0) {
      // Lookup: reorder this round's key column into the current order.
      timer.Restart();
      profile.lookup_morsels =
          GatherColumn(round_keys[j], result.oids.data(), n, &gathered,
                       pool_, &ctx);
      profile.lookup_seconds = timer.Seconds();
      keys = &gathered;
      if (stoppable && ctx.StopRequested()) {
        result.status = ctx.StopStatus();
        result.rounds.push_back(profile);
        return result;
      }
    }

    timer.Restart();
    SortSegments(plan.round(j).bank, plan.round(j).kernel, keys,
                 result.oids.data(), segments, &profile,
                 stoppable ? &ctx : nullptr);
    profile.sort_seconds = timer.Seconds();
    if (stoppable && ctx.StopRequested()) {
      result.status = ctx.StopStatus();
      result.rounds.push_back(profile);
      return result;
    }

    timer.Restart();
    Segments refined;
    profile.scan_chunks = FindGroups(*keys, segments, &refined, pool_, &ctx);
    profile.scan_seconds = timer.Seconds();
    if (stoppable && ctx.StopRequested()) {
      result.status = ctx.StopStatus();
      result.rounds.push_back(profile);
      return result;
    }
    segments = std::move(refined);
    profile.num_groups = segments.count();

    result.rounds.push_back(profile);
  }
  result.groups = std::move(segments);
  return result;
}

MultiColumnSortResult MultiColumnSorter::SortColumnAtATime(
    const std::vector<MassageInput>& inputs) {
  std::vector<int> widths;
  widths.reserve(inputs.size());
  for (const MassageInput& input : inputs) {
    widths.push_back(input.column->width());
  }
  return Sort(inputs, MassagePlan::ColumnAtATime(widths));
}

}  // namespace mcsort
