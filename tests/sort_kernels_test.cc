// Tests for the adaptive sort kernels (counting sort, radix) and the
// kernel-choice plan dimension.
//
// The load-bearing invariant is Lemma-1 equivalence: every kernel must
// produce the same sorted key sequence and the same group structure as the
// SIMD merge path on every input — payload order within fully tied keys is
// the only freedom (the SIMD networks are not stable). That is checked per
// bank, per data pattern, serial and parallel, end-to-end through
// MultiColumnSorter with each kernel annotated or forced, and across the
// buffered and mmap snapshot load paths.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "mcsort/common/bits.h"
#include "mcsort/common/exec_context.h"
#include "mcsort/common/random.h"
#include "mcsort/common/thread_pool.h"
#include "mcsort/common/zipf.h"
#include "mcsort/engine/multi_column_sorter.h"
#include "mcsort/io/snapshot.h"
#include "mcsort/massage/plan.h"
#include "mcsort/plan/roga.h"
#include "mcsort/service/signature.h"
#include "mcsort/sort/counting_sort.h"
#include "mcsort/sort/radix_sort.h"
#include "mcsort/sort/simd_sort.h"
#include "mcsort/storage/statistics.h"
#include "mcsort/storage/table.h"

namespace mcsort {
namespace {

enum class Pattern {
  kRandom, kSorted, kReverse, kFewDistinct, kAllEqual, kSawtooth, kZipf,
  kKEqualsN,  // all keys distinct: K == N, the counting sort's worst case
};

template <typename K>
std::vector<K> MakeKeys(Pattern pattern, size_t n, int width, uint64_t seed) {
  const uint64_t mask = LowBitsMask(width);
  std::vector<K> keys(n);
  Rng rng(seed);
  switch (pattern) {
    case Pattern::kRandom:
      for (auto& k : keys) k = static_cast<K>(rng.Next() & mask);
      break;
    case Pattern::kSorted:
      for (size_t i = 0; i < n; ++i) keys[i] = static_cast<K>(i & mask);
      break;
    case Pattern::kReverse:
      for (size_t i = 0; i < n; ++i) keys[i] = static_cast<K>((n - i) & mask);
      break;
    case Pattern::kFewDistinct:
      for (auto& k : keys) k = static_cast<K>(rng.NextBounded(7) & mask);
      break;
    case Pattern::kAllEqual:
      for (auto& k : keys) k = static_cast<K>(uint64_t{12345} & mask);
      break;
    case Pattern::kSawtooth:
      for (size_t i = 0; i < n; ++i) keys[i] = static_cast<K>((i % 97) & mask);
      break;
    case Pattern::kZipf: {
      ZipfGenerator zipf(1000, 1.0);
      for (auto& k : keys) k = static_cast<K>(zipf.Next(rng) & mask);
      break;
    }
    case Pattern::kKEqualsN: {
      // A permutation of [0, n) (requires n <= 2^width): every key unique.
      for (size_t i = 0; i < n; ++i) keys[i] = static_cast<K>(i & mask);
      for (size_t i = n; i > 1; --i) {
        std::swap(keys[i - 1], keys[rng.NextBounded(i)]);
      }
      break;
    }
  }
  return keys;
}

// Lemma-1 equivalence against a reference sort of the same input: the key
// sequences match exactly, and the oids are a permutation consistent with
// the keys (original[oid[i]] == keys[i]). Payload order within equal keys
// is free.
template <typename K>
void CheckEquivalent(const std::vector<K>& original,
                     const std::vector<K>& keys,
                     const std::vector<uint32_t>& oids) {
  const size_t n = original.size();
  ASSERT_EQ(keys.size(), n);
  std::vector<K> expected = original;
  std::sort(expected.begin(), expected.end());
  std::vector<bool> seen(n, false);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(keys[i], expected[i]) << "key sequence diverges at " << i;
    ASSERT_LT(oids[i], n);
    ASSERT_FALSE(seen[oids[i]]) << "oid duplicated: " << oids[i];
    seen[oids[i]] = true;
    ASSERT_EQ(original[oids[i]], keys[i]) << "payload mismatch at " << i;
  }
}

const Pattern kAllPatterns[] = {
    Pattern::kRandom,    Pattern::kSorted,   Pattern::kReverse,
    Pattern::kFewDistinct, Pattern::kAllEqual, Pattern::kSawtooth,
    Pattern::kZipf,      Pattern::kKEqualsN,
};

// Sizes straddling the insertion-sort cutoff, up to 20000 rows.
const size_t kSizes[] = {0, 1, 2, 3, 33, 65, 1000, 4096, 4097, 20000};

template <typename K>
void RunSerialCounting(int width, uint64_t seed) {
  ASSERT_TRUE(CountingSortFeasible(width));
  SortScratch scratch;
  for (Pattern pattern : kAllPatterns) {
    for (size_t n : kSizes) {
      if (pattern == Pattern::kKEqualsN && n > (uint64_t{1} << width)) {
        continue;  // permutation pattern needs n <= 2^width
      }
      const auto original =
          MakeKeys<K>(pattern, n, width, seed + n + static_cast<int>(pattern));
      auto keys = original;
      std::vector<uint32_t> oids(n);
      std::iota(oids.begin(), oids.end(), 0);
      CountingSortPairsBank(sizeof(K) * 8, keys.data(), oids.data(), n, width,
                            scratch);
      CheckEquivalent(original, keys, oids);
    }
  }
}

TEST(SortKernelsSerialTest, Bank16AllPatterns) {
  for (int width : {1, 7, 13, 16}) RunSerialCounting<uint16_t>(width, 1000);
}

TEST(SortKernelsSerialTest, Bank32AllPatterns) {
  for (int width : {1, 11, 17, 20}) RunSerialCounting<uint32_t>(width, 2000);
}

TEST(SortKernelsSerialTest, Bank64AllPatterns) {
  for (int width : {1, 19, 20}) RunSerialCounting<uint64_t>(width, 3000);
}

// Counting sort must be stable: equal keys keep their input payload order.
// (Merge kernels are not required to be — the ScanGroups pass only needs
// group boundaries — but counting's stability is what makes its grouped
// output deterministic, so pin it.)
TEST(SortKernelsSerialTest, CountingSortIsStable) {
  SortScratch scratch;
  for (size_t n : {size_t{100}, size_t{5000}}) {
    auto keys = MakeKeys<uint32_t>(Pattern::kFewDistinct, n, 8, 77);
    const auto original = keys;
    std::vector<uint32_t> oids(n);
    std::iota(oids.begin(), oids.end(), 0);
    CountingSortPairs32(keys.data(), oids.data(), n, 8, scratch);
    for (size_t i = 1; i < n; ++i) {
      ASSERT_LE(keys[i - 1], keys[i]);
      if (keys[i - 1] == keys[i]) {
        ASSERT_LT(oids[i - 1], oids[i]) << "instability at " << i;
      }
      ASSERT_EQ(original[oids[i]], keys[i]);
    }
  }
}

template <typename K>
void RunParallelCounting(int width, int threads, uint64_t seed) {
  ASSERT_TRUE(CountingSortFeasible(width));
  ThreadPool pool(threads);
  std::vector<SortScratch> scratches(static_cast<size_t>(pool.num_threads()));
  for (Pattern pattern : {Pattern::kRandom, Pattern::kFewDistinct,
                          Pattern::kAllEqual, Pattern::kReverse}) {
    for (size_t n : {size_t{100}, size_t{5000}, size_t{100000}}) {
      const auto original = MakeKeys<K>(pattern, n, width, seed + n);
      auto keys = original;
      std::vector<uint32_t> oids(n);
      std::iota(oids.begin(), oids.end(), 0);
      ParallelCountingSortPairsBank(sizeof(K) * 8, keys.data(), oids.data(), n,
                                    width, pool, scratches, nullptr);
      CheckEquivalent(original, keys, oids);
    }
  }
}

TEST(SortKernelsParallelTest, Bank16) { RunParallelCounting<uint16_t>(13, 4, 4); }
TEST(SortKernelsParallelTest, Bank32) { RunParallelCounting<uint32_t>(20, 4, 5); }
TEST(SortKernelsParallelTest, Bank64) { RunParallelCounting<uint64_t>(20, 3, 6); }

// The cooperative radix sort; 300000 rows exceed kRadixMsdMinBytes on
// every bank.
template <typename K>
void RunParallelRadix(int width, int threads, uint64_t seed) {
  ThreadPool pool(threads);
  std::vector<SortScratch> scratches(static_cast<size_t>(pool.num_threads()));
  for (Pattern pattern : {Pattern::kRandom, Pattern::kFewDistinct,
                          Pattern::kAllEqual, Pattern::kReverse,
                          Pattern::kZipf}) {
    for (size_t n : {size_t{100}, size_t{5000}, size_t{100000},
                     size_t{300000}}) {
      const auto original = MakeKeys<K>(pattern, n, width, seed + n);
      auto keys = original;
      std::vector<uint32_t> oids(n);
      std::iota(oids.begin(), oids.end(), 0);
      ParallelRadixSortPairsBank(sizeof(K) * 8, keys.data(), oids.data(), n,
                                 width, pool, scratches, nullptr);
      CheckEquivalent(original, keys, oids);
    }
  }
}

TEST(SortKernelsParallelTest, RadixBank16) {
  RunParallelRadix<uint16_t>(13, 4, 7);
}
TEST(SortKernelsParallelTest, RadixBank32) {
  RunParallelRadix<uint32_t>(29, 4, 8);
}
TEST(SortKernelsParallelTest, RadixBank64) {
  RunParallelRadix<uint64_t>(61, 3, 9);
}

// A pre-cancelled context must stop the parallel kernels without touching
// every element; the arrays are discarded, so only "returns, no crash,
// oids stay in range" is checked.
TEST(SortKernelsParallelTest, CancellationMidRoundUnwinds) {
  ThreadPool pool(4);
  std::vector<SortScratch> scratches(static_cast<size_t>(pool.num_threads()));
  const size_t n = 200000;
  CancellationSource source;
  ExecContext ctx;
  ctx.WithToken(source.token());
  source.Cancel();
  {
    auto keys = MakeKeys<uint32_t>(Pattern::kRandom, n, 32, 9);
    std::vector<uint32_t> oids(n);
    std::iota(oids.begin(), oids.end(), 0);
    ParallelSortPairsBank(32, keys.data(), oids.data(), n, pool, scratches,
                          &ctx);
    for (uint32_t oid : oids) ASSERT_LT(oid, n);
  }
  {
    auto keys = MakeKeys<uint32_t>(Pattern::kRandom, n, 16, 10);
    std::vector<uint32_t> oids(n);
    std::iota(oids.begin(), oids.end(), 0);
    ParallelCountingSortPairsBank(32, keys.data(), oids.data(), n, 16, pool,
                                  scratches, &ctx);
    for (uint32_t oid : oids) ASSERT_LT(oid, n);
  }
  {
    auto keys = MakeKeys<uint32_t>(Pattern::kRandom, n, 32, 12);
    std::vector<uint32_t> oids(n);
    std::iota(oids.begin(), oids.end(), 0);
    ParallelRadixSortPairsBank(32, keys.data(), oids.data(), n, 32, pool,
                               scratches, &ctx);
    for (uint32_t oid : oids) ASSERT_LT(oid, n);
  }
  // End-to-end: the executor reports the cancellation as a typed status.
  EncodedColumn c1(14, n);
  EncodedColumn c2(14, n);
  Rng rng(11);
  for (size_t r = 0; r < n; ++r) {
    c1.Set(r, rng.Next() & 0x3FFF);
    c2.Set(r, rng.Next() & 0x3FFF);
  }
  std::vector<MassageInput> inputs = {{&c1, SortOrder::kAscending},
                                      {&c2, SortOrder::kAscending}};
  MultiColumnSorter sorter(&pool);
  MassagePlan plan = MassagePlan::ColumnAtATime({14, 14});
  plan.mutable_round(0)->kernel = SortKernel::kSimdMerge;
  plan.mutable_round(1)->kernel = SortKernel::kCounting;
  const auto result = sorter.Sort(inputs, plan, ctx);
  EXPECT_EQ(result.status.code, StatusCode::kCancelled);
  MassagePlan radix_plan({{28, 32}});
  radix_plan.mutable_round(0)->kernel = SortKernel::kRadix;
  EXPECT_EQ(sorter.Sort(inputs, radix_plan, ctx).status.code,
            StatusCode::kCancelled);
}

TEST(KernelMaskTest, ParseKernelMask) {
  const SortKernelMask fallback = kRoutableKernels;
  EXPECT_EQ(ParseKernelMask("merge", fallback),
            KernelBit(SortKernel::kSimdMerge));
  EXPECT_EQ(ParseKernelMask("simd", fallback),
            KernelBit(SortKernel::kSimdMerge));
  EXPECT_EQ(ParseKernelMask("counting", fallback),
            KernelBit(SortKernel::kCounting));
  EXPECT_EQ(ParseKernelMask("radix", fallback), KernelBit(SortKernel::kRadix));
  EXPECT_EQ(ParseKernelMask("merge,radix", fallback),
            KernelBit(SortKernel::kSimdMerge) | KernelBit(SortKernel::kRadix));
  EXPECT_EQ(ParseKernelMask(" radix , counting ", fallback),
            KernelBit(SortKernel::kRadix) | KernelBit(SortKernel::kCounting));
  // The retired OVC kernel is no longer a token.
  EXPECT_EQ(ParseKernelMask("ovc", fallback), fallback);
  EXPECT_EQ(ParseKernelMask("merge,ovc", fallback),
            KernelBit(SortKernel::kSimdMerge));
  // Unknown / empty input keeps the fallback rather than masking everything.
  EXPECT_EQ(ParseKernelMask("", fallback), fallback);
  EXPECT_EQ(ParseKernelMask("bogus", fallback), fallback);
}

// --- End-to-end kernel equivalence through the executor -------------------

// Mirrors the executor's env forcing (see MultiColumnSorter): when
// MCSORT_KERNELS names exactly one kernel, it overrides every plan
// annotation — the CI kernel matrix runs this binary that way.
bool EnvForcedKernel(SortKernel* out) {
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

// The CI kernel matrix runs this binary once per MCSORT_KERNELS value. A
// value that forces nothing (a typo, a retired kernel such as "ovc", or a
// list of several) would run every test below unforced, and they would
// pass; fail the run instead.
TEST(KernelMaskTest, EnvSetNamesExactlyOneKernel) {
  const char* env = std::getenv("MCSORT_KERNELS");
  if (env == nullptr || *env == '\0') {
    GTEST_SKIP() << "MCSORT_KERNELS is not set";
  }
  SortKernel forced;
  EXPECT_TRUE(EnvForcedKernel(&forced))
      << "MCSORT_KERNELS=\"" << env
      << "\" does not name exactly one of merge, counting, radix";
}

struct Instance {
  std::vector<EncodedColumn> columns;

  std::vector<MassageInput> Inputs() const {
    std::vector<MassageInput> inputs;
    for (const auto& c : columns) {
      inputs.push_back({&c, SortOrder::kAscending});
    }
    return inputs;
  }
  std::vector<int> Widths() const {
    std::vector<int> widths;
    for (const auto& c : columns) widths.push_back(c.width());
    return widths;
  }
  size_t rows() const { return columns.empty() ? 0 : columns[0].size(); }
};

Instance MakeInstance(const std::vector<int>& widths, size_t rows,
                      uint64_t seed, uint64_t distinct_cap) {
  Instance inst;
  Rng rng(seed);
  for (int width : widths) {
    EncodedColumn column(width, rows);
    const uint64_t mask = LowBitsMask(width);
    for (size_t r = 0; r < rows; ++r) {
      column.Set(r, (rng.Next() % distinct_cap) & mask);
    }
    inst.columns.push_back(std::move(column));
  }
  return inst;
}

// The tuple sequence (values at rank) and the group bounds must match
// across kernels; oid order within fully tied tuples is free (Lemma 1).
void CheckSameSortedOutput(const Instance& inst,
                           const MultiColumnSortResult& a,
                           const MultiColumnSortResult& b) {
  ASSERT_EQ(a.groups.bounds, b.groups.bounds);
  ASSERT_EQ(a.oids.size(), b.oids.size());
  for (size_t r = 0; r < a.oids.size(); ++r) {
    for (const auto& column : inst.columns) {
      ASSERT_EQ(column.Get(a.oids[r]), column.Get(b.oids[r])) << "row " << r;
    }
  }
}

TEST(KernelEndToEndTest, AllKernelsProduceIdenticalSorts) {
  // 9+14 bits: every round feasible for counting; sizes cover serial and
  // morsel-parallel paths.
  for (size_t rows : {size_t{500}, size_t{60000}}) {
    Instance inst = MakeInstance({9, 14}, rows, 21, 1 << 9);
    ThreadPool pool(4);
    MultiColumnSorter sorter(&pool);
    const MassagePlan base = MassagePlan::ColumnAtATime(inst.Widths());
    MultiColumnSortResult reference;
    bool have_reference = false;
    for (SortKernel kernel : {SortKernel::kSimdMerge, SortKernel::kCounting,
                              SortKernel::kRadix}) {
      MassagePlan plan = base;
      for (size_t j = 0; j < plan.num_rounds(); ++j) {
        plan.mutable_round(j)->kernel = kernel;
      }
      const auto result = sorter.Sort(inst.Inputs(), plan);
      ASSERT_TRUE(result.status.ok());
      SortKernel expected = kernel;
      EnvForcedKernel(&expected);  // CI matrix overrides the annotation
      for (const RoundProfile& round : result.rounds) {
        EXPECT_EQ(round.kernel, expected);
      }
      if (!have_reference) {
        reference = result;
        have_reference = true;
      } else {
        CheckSameSortedOutput(inst, reference, result);
      }
    }
  }
}

TEST(KernelEndToEndTest, ForcedCountingOnWideRoundDegradesToMerge) {
  // 27-bit stitched round exceeds kCountingMaxWidth: a forced counting
  // plan must degrade to merge, not crash.
  Instance inst = MakeInstance({10, 17}, 4000, 31, uint64_t{1} << 17);
  MultiColumnSorter sorter;
  MassagePlan plan({{27, 32}});
  plan.mutable_round(0)->kernel = SortKernel::kCounting;
  const auto result = sorter.Sort(inst.Inputs(), plan);
  ASSERT_TRUE(result.status.ok());
  ASSERT_EQ(result.rounds.size(), 1u);
  SortKernel expected = SortKernel::kCounting;
  EnvForcedKernel(&expected);
  if (expected == SortKernel::kCounting) expected = SortKernel::kSimdMerge;
  EXPECT_EQ(result.rounds[0].kernel, expected);
}

// --- Snapshot load paths --------------------------------------------------

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/mcsort_kernels_test_XXXXXX";
    path_ = mkdtemp(tmpl);
  }
  ~TempDir() {
    if (!path_.empty()) {
      const std::string cmd = "rm -rf '" + path_ + "'";
      [[maybe_unused]] const int rc = std::system(cmd.c_str());
    }
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(KernelSnapshotTest, KernelsAgreeAcrossBufferedAndMmapLoads) {
  // Sort the same saved table through every kernel under both load paths;
  // all six results must be Lemma-1 identical.
  const size_t rows = 20000;
  Instance inst = MakeInstance({12, 8}, rows, 51, 1 << 8);
  Table table;
  table.AddColumn("a", std::move(inst.columns[0]));
  table.AddColumn("b", std::move(inst.columns[1]));
  TempDir dir;
  const std::string snap = dir.path() + "/t";
  ASSERT_TRUE(table.SaveSnapshot(snap).ok());

  // Values by input row, from the original table (both load paths must
  // reproduce them bit-exactly; io_test covers that separately).
  std::vector<std::vector<Code>> values(2, std::vector<Code>(rows));
  for (size_t r = 0; r < rows; ++r) {
    values[0][r] = table.column("a").Get(r);
    values[1][r] = table.column("b").Get(r);
  }

  MultiColumnSortResult reference;
  bool have_reference = false;
  for (SnapshotLoadMode mode :
       {SnapshotLoadMode::kBuffered, SnapshotLoadMode::kMmap}) {
    Table loaded;
    SnapshotLoadOptions options;
    options.mode = mode;
    ASSERT_TRUE(Table::LoadSnapshot(snap, options, &loaded).ok());
    std::vector<MassageInput> inputs = {
        {&loaded.column("a"), SortOrder::kAscending},
        {&loaded.column("b"), SortOrder::kAscending}};
    for (SortKernel kernel : {SortKernel::kSimdMerge, SortKernel::kCounting,
                              SortKernel::kRadix}) {
      MultiColumnSorter sorter;
      MassagePlan plan = MassagePlan::ColumnAtATime({12, 8});
      for (size_t j = 0; j < plan.num_rounds(); ++j) {
        plan.mutable_round(j)->kernel = kernel;
      }
      const auto result = sorter.Sort(inputs, plan);
      ASSERT_TRUE(result.status.ok());
      if (!have_reference) {
        reference = result;
        have_reference = true;
      } else {
        ASSERT_EQ(result.groups.bounds, reference.groups.bounds);
        for (size_t r = 0; r < rows; ++r) {
          for (const auto& column_values : values) {
            ASSERT_EQ(column_values[result.oids[r]],
                      column_values[reference.oids[r]])
                << "row " << r;
          }
        }
      }
    }
  }
}

// --- Planner integration --------------------------------------------------

TEST(KernelRoutingTest, RogaRoutesLowCardinalityRoundsToCounting) {
  // A narrow low-cardinality instance at large N: counting's O(N + K)
  // round must beat the merge sort's N log N in the model, so the chosen
  // plan routes at least one round to the counting kernel — with no env
  // forcing involved.
  ColumnStats stats_col;
  {
    EncodedColumn column(8, 1 << 14);
    Rng rng(61);
    for (size_t r = 0; r < column.size(); ++r) {
      column.Set(r, rng.Next() & 0xFF);
    }
    stats_col = ColumnStats::Build(column);
  }
  SortInstanceStats stats;
  stats.n = 1 << 24;
  stats.columns = {&stats_col};
  const CostModel model(CostParams::Default());
  SearchOptions options;
  options.kernels = kRoutableKernels;
  const SearchResult result = RogaSearch(model, stats, options);
  ASSERT_TRUE(result.plan.IsValid());
  bool routed_counting = false;
  for (const Round& round : result.plan.rounds()) {
    if (round.kernel == SortKernel::kCounting) routed_counting = true;
  }
  EXPECT_TRUE(routed_counting) << result.plan.ToString();
}

// Statistics of a `width`-bit column of `rows` uniform random codes (the
// instance's row count is set separately).
ColumnStats RandomColumnStats(int width, uint64_t seed,
                              size_t rows = size_t{1} << 14) {
  EncodedColumn column(width, rows);
  Rng rng(seed);
  for (size_t r = 0; r < column.size(); ++r) {
    column.Set(r, rng.Next() & LowBitsMask(width));
  }
  return ColumnStats::Build(column);
}

TEST(KernelRoutingTest, MergeOnlyMaskNeverRoutesElsewhere) {
  // An 8-bit instance (counting's regime) and a 32-bit one (radix's).
  for (int width : {8, 32}) {
    const ColumnStats stats_col = RandomColumnStats(width, 62);
    SortInstanceStats stats;
    stats.n = width == 8 ? 1 << 24 : 1 << 20;
    stats.columns = {&stats_col};
    const CostModel model(CostParams::Default());
    SearchOptions options;
    options.kernels = KernelBit(SortKernel::kSimdMerge);
    const SearchResult result = RogaSearch(model, stats, options);
    for (const Round& round : result.plan.rounds()) {
      EXPECT_EQ(round.kernel, SortKernel::kSimdMerge)
          << result.plan.ToString();
    }
  }
}

TEST(KernelRoutingTest, RogaRoutesWideOneSegmentRoundToRadix) {
  // One 32-bit round over 2^20 rows is one segment past the MSD threshold:
  // four digit passes beat the merge sort's N log N in the model.
  const ColumnStats stats_col = RandomColumnStats(32, 63);
  SortInstanceStats stats;
  stats.n = 1 << 20;
  stats.columns = {&stats_col};
  const CostModel model(CostParams::Default());
  const CostModel::PlanEstimate estimate =
      model.Estimate(MassagePlan({{32, 32}}), stats, kRoutableKernels);
  EXPECT_EQ(estimate.rounds[0].kernel, SortKernel::kRadix);

  SearchOptions options;
  options.kernels = kRoutableKernels;
  const SearchResult result = RogaSearch(model, stats, options);
  ASSERT_TRUE(result.plan.IsValid());
  bool routed_radix = false;
  for (const Round& round : result.plan.rounds()) {
    if (round.kernel == SortKernel::kRadix) routed_radix = true;
  }
  EXPECT_TRUE(routed_radix) << result.plan.ToString();
}

TEST(KernelRoutingTest, RadixNeverPricedForOneDigitOrTinyGroups) {
  const CostModel model(CostParams::Default());
  const SortKernelMask merge_or_radix =
      KernelBit(SortKernel::kSimdMerge) | KernelBit(SortKernel::kRadix);
  // A round of <= 8 bits: counting's regime, never radix, at any size.
  for (int width : {3, 8}) {
    const ColumnStats stats_col = RandomColumnStats(width, 64);
    SortInstanceStats stats;
    stats.n = 1 << 22;
    stats.columns = {&stats_col};
    const MassagePlan plan({{width, 16}});
    EXPECT_EQ(model.Estimate(plan, stats, merge_or_radix).rounds[0].kernel,
              SortKernel::kSimdMerge)
        << width;
    SearchOptions options;
    options.kernels = kRoutableKernels;
    const SearchResult result = RogaSearch(model, stats, options);
    for (const Round& round : result.plan.rounds()) {
      EXPECT_NE(round.kernel, SortKernel::kRadix) << width;
    }
  }
  // Average groups of <= 64 rows entering a wide round: ~2^16 distinct
  // prefixes over 2^20 rows leave groups of about 16 rows.
  const ColumnStats prefix = RandomColumnStats(16, 65, size_t{1} << 18);
  const ColumnStats suffix = RandomColumnStats(32, 66);
  SortInstanceStats stats;
  stats.n = 1 << 20;
  stats.columns = {&prefix, &suffix};
  const CostModel::PlanEstimate estimate = model.Estimate(
      MassagePlan({{16, 16}, {32, 32}}), stats, merge_or_radix);
  ASSERT_LE(estimate.rounds[1].avg_group_size,
            static_cast<double>(kRadixInsertionMax));
  EXPECT_EQ(estimate.rounds[1].kernel, SortKernel::kSimdMerge);
}

// --- Plan-cache staleness on distinct-distribution drift ------------------

TEST(KernelFingerprintTest, DistinctSketchDriftInvalidates) {
  // Two columns with the same row count, total distinct count, width, and
  // code range but different distinct *distributions*: the fingerprints
  // must differ and the drift must reach the cache's staleness threshold,
  // because the distribution is what routes rounds to the counting kernel.
  const size_t rows = 1 << 14;
  EncodedColumn uniform(16, rows);
  EncodedColumn clustered(16, rows);
  Rng rng(71);
  for (size_t r = 0; r < rows; ++r) {
    // 4096 distinct values spread over the full 16-bit domain...
    uniform.Set(r, (rng.Next() % 4096) << 4);
    // ...vs the same count packed into the bottom buckets.
    clustered.Set(r, rng.Next() % 4096);
  }
  // Pin the code range so only the distribution differs.
  uniform.Set(0, 0);
  uniform.Set(1, 0xFFFF);
  clustered.Set(0, 0);
  clustered.Set(1, 0xFFFF);

  const ColumnStats a = ColumnStats::Build(uniform);
  const ColumnStats b = ColumnStats::Build(clustered);
  const StatsFingerprint fa = FingerprintOf(a);
  const StatsFingerprint fb = FingerprintOf(b);
  EXPECT_NE(fa.distinct_sketch, fb.distinct_sketch);
  EXPECT_GE(FingerprintDrift(fa, fb), 0.2);  // >= PlanCache drift threshold
  // Self-drift stays zero: the sketch must not fire spuriously.
  EXPECT_EQ(FingerprintDrift(fa, fa), 0.0);
  EXPECT_EQ(FingerprintOf(ColumnStats::Build(uniform)).distinct_sketch,
            fa.distinct_sketch);
}

}  // namespace
}  // namespace mcsort
