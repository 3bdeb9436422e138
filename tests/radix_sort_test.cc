// Tests for the radix sort kernel (Sec. 7 extension): the serial LSD and
// MSD→LSD paths and the parallel variant against std::stable_sort (same
// keys, tied oids in input order) across banks, widths, sizes on both
// sides of the insertion, MSD and parallel thresholds, and adversarial
// digit patterns; equivalence with the SIMD merge-sort; and the engine
// running whole massage plans on the radix kernel, serial and pooled.
#include "mcsort/sort/radix_sort.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "mcsort/common/bits.h"
#include "mcsort/common/random.h"
#include "mcsort/common/thread_pool.h"
#include "mcsort/engine/multi_column_sorter.h"

namespace mcsort {
namespace {

enum class Pattern {
  kRandom,
  kAllEqual,
  kSharedTopDigit,  // every key has the same top 8 bits of the width
  kLowDigitOnly,    // keys differ only in their lowest 8 bits
};

const Pattern kPatterns[] = {Pattern::kRandom, Pattern::kAllEqual,
                             Pattern::kSharedTopDigit, Pattern::kLowDigitOnly};

template <typename K>
std::vector<K> MakeKeys(Pattern pattern, size_t n, int width, uint64_t seed) {
  const uint64_t mask = LowBitsMask(width);
  const int low_bits = std::max(0, width - kRadixDigitBits);
  Rng rng(seed);
  std::vector<K> keys(n);
  for (auto& k : keys) {
    uint64_t v = rng.Next() & mask;
    switch (pattern) {
      case Pattern::kRandom:
        break;
      case Pattern::kAllEqual:
        v = 0x9E3779B97F4A7C15ull & mask;
        break;
      case Pattern::kSharedTopDigit:
        v = (0xA5ull << low_bits | (v & LowBitsMask(low_bits))) & mask;
        break;
      case Pattern::kLowDigitOnly:
        v = (0x123456789ABCDEF0ull & mask & ~uint64_t{0xFF}) | (v & 0xFF);
        break;
    }
    k = static_cast<K>(v);
  }
  return keys;
}

// The stable reference: keys ascending, tied oids in input order.
template <typename K>
void ExpectStableSorted(const std::vector<K>& original,
                        const std::vector<K>& keys,
                        const std::vector<uint32_t>& oids) {
  std::vector<uint32_t> expected(original.size());
  std::iota(expected.begin(), expected.end(), 0);
  std::stable_sort(expected.begin(), expected.end(),
                   [&](uint32_t a, uint32_t b) {
                     return original[a] < original[b];
                   });
  ASSERT_EQ(oids, expected);
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(keys[i], original[oids[i]]) << "payload mismatch at " << i;
  }
}

struct RadixCase {
  size_t n;
  int key_width;
};

std::string CaseName(const ::testing::TestParamInfo<RadixCase>& info) {
  std::string name = "n";
  name += std::to_string(info.param.n) + "_w" +
          std::to_string(info.param.key_width);
  return name;
}

// Sorts every pattern of `c` on bank sizeof(K) * 8 with `sort` and checks
// it against the stable reference.
template <typename K, typename SortFn>
void CheckBank(const RadixCase& c, SortFn&& sort) {
  if (c.key_width > static_cast<int>(sizeof(K) * 8)) return;
  for (Pattern pattern : kPatterns) {
    SCOPED_TRACE("bank " + std::to_string(sizeof(K) * 8) + " pattern " +
                 std::to_string(static_cast<int>(pattern)));
    const uint64_t seed = c.n * 131 + static_cast<uint64_t>(c.key_width);
    const auto original = MakeKeys<K>(pattern, c.n, c.key_width, seed);
    auto keys = original;
    std::vector<uint32_t> oids(c.n);
    std::iota(oids.begin(), oids.end(), 0);
    sort(static_cast<int>(sizeof(K) * 8), keys.data(), oids.data(), c.n,
         c.key_width);
    ExpectStableSorted(original, keys, oids);
  }
}

class RadixSortTest : public ::testing::TestWithParam<RadixCase> {};

TEST_P(RadixSortTest, SerialMatchesStableSort) {
  SortScratch scratch;
  const auto sort = [&](int bank, void* keys, uint32_t* oids, size_t n,
                        int width) {
    RadixSortPairsBank(bank, keys, oids, n, width, scratch);
  };
  CheckBank<uint16_t>(GetParam(), sort);
  CheckBank<uint32_t>(GetParam(), sort);
  CheckBank<uint64_t>(GetParam(), sort);
}

// 80000 rows stay under kRadixMsdMinBytes on every bank (<= 12 bytes per
// row) and 200000 rows exceed it on every bank (>= 6 bytes per row), so
// those sizes run the LSD and the MSD→LSD paths respectively.
INSTANTIATE_TEST_SUITE_P(
    SizesAndWidths, RadixSortTest,
    ::testing::Values(RadixCase{7, 9}, RadixCase{63, 9}, RadixCase{64, 9},
                      RadixCase{65, 9}, RadixCase{1000, 1},
                      RadixCase{1000, 12}, RadixCase{5000, 17},
                      RadixCase{5000, 31}, RadixCase{5000, 32},
                      RadixCase{65536, 24}, RadixCase{80000, 9},
                      RadixCase{80000, 27}, RadixCase{80000, 64},
                      RadixCase{200000, 9}, RadixCase{200000, 16},
                      RadixCase{200000, 27}, RadixCase{200000, 41},
                      RadixCase{200000, 64}),
    CaseName);

class ParallelRadixSortTest : public ::testing::TestWithParam<RadixCase> {};

TEST_P(ParallelRadixSortTest, MatchesStableSort) {
  ThreadPool pool(4);
  std::vector<SortScratch> scratches(static_cast<size_t>(pool.num_threads()));
  const auto sort = [&](int bank, void* keys, uint32_t* oids, size_t n,
                        int width) {
    ParallelRadixSortPairsBank(bank, keys, oids, n, width, pool, scratches);
  };
  CheckBank<uint16_t>(GetParam(), sort);
  CheckBank<uint32_t>(GetParam(), sort);
  CheckBank<uint64_t>(GetParam(), sort);
}

// 4095 rows take the serial fallback (kParallelSortMinRows), the rest the
// cooperative scatter; 80000 and 200000 straddle kRadixMsdMinBytes for the
// buckets' own sorts as well.
INSTANTIATE_TEST_SUITE_P(
    SizesAndWidths, ParallelRadixSortTest,
    ::testing::Values(RadixCase{4095, 20}, RadixCase{4096, 20},
                      RadixCase{10000, 9}, RadixCase{10000, 33},
                      RadixCase{80000, 16}, RadixCase{80000, 48},
                      RadixCase{200000, 12}, RadixCase{200000, 27},
                      RadixCase{200000, 57}, RadixCase{200000, 64}),
    CaseName);

TEST(RadixSortTest, MatchesMergeSortOutputOrder) {
  // Radix is stable and merge is not; key order must agree exactly.
  Rng rng(7);
  const size_t n = 20000;
  std::vector<uint32_t> original(n);
  for (auto& k : original) k = static_cast<uint32_t>(rng.NextBounded(512));
  SortScratch scratch;

  auto radix_keys = original;
  std::vector<uint32_t> radix_oids(n);
  std::iota(radix_oids.begin(), radix_oids.end(), 0);
  RadixSortPairs32(radix_keys.data(), radix_oids.data(), n, 9, scratch);

  auto merge_keys = original;
  std::vector<uint32_t> merge_oids(n);
  std::iota(merge_oids.begin(), merge_oids.end(), 0);
  SortPairs32(merge_keys.data(), merge_oids.data(), n, scratch);

  EXPECT_EQ(radix_keys, merge_keys);
}

TEST(RadixSortTest, NarrowWidthSkipsHighDigits) {
  // A width-6 sort of values < 64 in a 32-bit bank takes one digit pass.
  Rng rng(13);
  const size_t n = 4096;
  std::vector<uint32_t> original(n);
  for (auto& k : original) k = static_cast<uint32_t>(rng.NextBounded(64));
  auto keys = original;
  std::vector<uint32_t> oids(n);
  std::iota(oids.begin(), oids.end(), 0);
  SortScratch scratch;
  RadixSortPairs32(keys.data(), oids.data(), n, 6, scratch);
  ExpectStableSorted(original, keys, oids);
}

// The engine executes massage plans identically on the radix kernel, with
// and without a pool. Column `a` has `a_distinct` values over `n` rows, so
// the pooled sorter's later rounds see segments of about n / a_distinct
// rows: above the cooperative threshold (max(4096, n / 8) on 4 workers)
// for 3 values, below it for 1000.
void ExpectPlansRunOnRadix(size_t n, uint64_t a_distinct, ThreadPool* pool) {
  Rng rng(5 + a_distinct);
  EncodedColumn a(11, n), b(21, n);
  for (size_t i = 0; i < n; ++i) {
    a.Set(i, rng.NextBounded(a_distinct));
    b.Set(i, rng.NextBounded(100000));
  }
  std::vector<MassageInput> inputs = {{&a, SortOrder::kAscending},
                                      {&b, SortOrder::kDescending}};
  MultiColumnSorter sorter(pool);
  for (const auto& widths :
       std::vector<std::vector<int>>{{11, 21}, {32}, {16, 16}, {20, 12}}) {
    const MassagePlan plan = MassagePlan::WithMinimalBanks(widths);
    MassagePlan radix_plan = plan;
    for (size_t j = 0; j < radix_plan.num_rounds(); ++j) {
      radix_plan.mutable_round(j)->kernel = SortKernel::kRadix;
    }
    const auto merge_result = sorter.Sort(inputs, plan);
    const auto radix_result = sorter.Sort(inputs, radix_plan);
    ASSERT_EQ(merge_result.groups.bounds, radix_result.groups.bounds)
        << plan.ToString();
    for (size_t r = 0; r < n; ++r) {
      ASSERT_EQ(a.Get(merge_result.oids[r]), a.Get(radix_result.oids[r]));
      ASSERT_EQ(b.Get(merge_result.oids[r]), b.Get(radix_result.oids[r]));
    }
    if (pool != nullptr &&
        radix_result.rounds[0].kernel == SortKernel::kRadix) {
      // Round 1 is one segment of all n rows: a cooperative sort.
      EXPECT_EQ(radix_result.rounds[0].cooperative_sorts, 1u)
          << plan.ToString();
    }
  }
}

TEST(RadixKernelEngineTest, WholePlansRunOnRadix) {
  ExpectPlansRunOnRadix(8000, 300, nullptr);
}

TEST(RadixKernelEngineTest, PooledPlansRunOnRadix) {
  ThreadPool pool(4);
  ExpectPlansRunOnRadix(200000, 3, &pool);
  ExpectPlansRunOnRadix(200000, 1000, &pool);
}

}  // namespace
}  // namespace mcsort
