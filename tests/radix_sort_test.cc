// Tests for the LSD radix sort (Sec. 7 extension): correctness across
// widths/radix sizes/patterns, equivalence with the SIMD merge-sort, and
// the engine running whole massage plans on the radix kernel.
#include "mcsort/sort/radix_sort.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "gtest/gtest.h"
#include "mcsort/common/bits.h"
#include "mcsort/common/random.h"
#include "mcsort/engine/multi_column_sorter.h"

namespace mcsort {
namespace {

template <typename K>
void CheckSortedPairs(const std::vector<K>& original,
                      const std::vector<K>& keys,
                      const std::vector<uint32_t>& oids) {
  const size_t n = original.size();
  std::vector<bool> seen(n, false);
  for (size_t i = 0; i < n; ++i) {
    if (i > 0) {
      ASSERT_LE(keys[i - 1], keys[i]);
    }
    ASSERT_LT(oids[i], n);
    ASSERT_FALSE(seen[oids[i]]);
    seen[oids[i]] = true;
    ASSERT_EQ(original[oids[i]], keys[i]);
  }
}

struct RadixCase {
  size_t n;
  int key_width;
  int radix_bits;
};

class RadixSortTest : public ::testing::TestWithParam<RadixCase> {};

TEST_P(RadixSortTest, Bank32SortsCorrectly) {
  const RadixCase c = GetParam();
  if (c.key_width > 32) GTEST_SKIP();
  Rng rng(c.n + static_cast<uint64_t>(c.key_width));
  std::vector<uint32_t> original(c.n);
  for (auto& k : original) {
    k = static_cast<uint32_t>(rng.Next() & LowBitsMask(c.key_width));
  }
  auto keys = original;
  std::vector<uint32_t> oids(c.n);
  std::iota(oids.begin(), oids.end(), 0);
  SortScratch scratch;
  RadixOptions options;
  options.radix_bits = c.radix_bits;
  RadixSortPairs32(keys.data(), oids.data(), c.n, c.key_width, scratch,
                   options);
  CheckSortedPairs(original, keys, oids);
}

TEST_P(RadixSortTest, Bank64SortsCorrectly) {
  const RadixCase c = GetParam();
  Rng rng(31 * c.n + static_cast<uint64_t>(c.key_width));
  std::vector<uint64_t> original(c.n);
  for (auto& k : original) k = rng.Next() & LowBitsMask(c.key_width);
  auto keys = original;
  std::vector<uint32_t> oids(c.n);
  std::iota(oids.begin(), oids.end(), 0);
  SortScratch scratch;
  RadixOptions options;
  options.radix_bits = c.radix_bits;
  RadixSortPairs64(keys.data(), oids.data(), c.n, c.key_width, scratch,
                   options);
  CheckSortedPairs(original, keys, oids);
}

INSTANTIATE_TEST_SUITE_P(
    WidthsAndRadixes, RadixSortTest,
    ::testing::Values(RadixCase{1000, 1, 8}, RadixCase{1000, 12, 8},
                      RadixCase{5000, 17, 8}, RadixCase{5000, 31, 8},
                      RadixCase{5000, 32, 8}, RadixCase{5000, 20, 4},
                      RadixCase{5000, 20, 11}, RadixCase{65536, 24, 8},
                      RadixCase{63, 9, 8}, RadixCase{64, 9, 8},
                      RadixCase{65, 9, 8}, RadixCase{7, 9, 8}),
    [](const ::testing::TestParamInfo<RadixCase>& info) {
      return "n" + std::to_string(info.param.n) + "_w" +
             std::to_string(info.param.key_width) + "_r" +
             std::to_string(info.param.radix_bits);
    });

TEST(RadixSortTest, Bank16SortsCorrectly) {
  Rng rng(99);
  const size_t n = 3000;
  std::vector<uint16_t> original(n);
  for (auto& k : original) k = static_cast<uint16_t>(rng.Next());
  auto keys = original;
  std::vector<uint32_t> oids(n);
  std::iota(oids.begin(), oids.end(), 0);
  SortScratch scratch;
  RadixSortPairs16(keys.data(), oids.data(), n, 16, scratch);
  CheckSortedPairs(original, keys, oids);
}

TEST(RadixSortTest, MatchesMergeSortOutputOrder) {
  // Radix is stable and merge is not; key order must agree exactly, and
  // oid multisets must agree per tied range.
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

TEST(RadixKernelEngineTest, WholePlansRunOnRadix) {
  // The engine executes massage plans identically on the radix kernel.
  Rng rng(5);
  const size_t n = 8000;
  EncodedColumn a(11, n), b(21, n);
  for (size_t i = 0; i < n; ++i) {
    a.Set(i, rng.NextBounded(300));
    b.Set(i, rng.NextBounded(100000));
  }
  std::vector<MassageInput> inputs = {{&a, SortOrder::kAscending},
                                      {&b, SortOrder::kDescending}};
  MultiColumnSorter sorter;
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
    // Same tuple sequence.
    for (size_t r = 0; r < n; ++r) {
      ASSERT_EQ(a.Get(merge_result.oids[r]), a.Get(radix_result.oids[r]));
      ASSERT_EQ(b.Get(merge_result.oids[r]), b.Get(radix_result.oids[r]));
    }
  }
}

TEST(RadixSortTest, NarrowWidthSkipsHighDigits) {
  // Sorting by the low `key_width` bits must ignore junk above them when
  // the caller guarantees codes fit; verify a width-6 sort of values < 64.
  Rng rng(13);
  const size_t n = 4096;
  std::vector<uint32_t> original(n);
  for (auto& k : original) k = static_cast<uint32_t>(rng.NextBounded(64));
  auto keys = original;
  std::vector<uint32_t> oids(n);
  std::iota(oids.begin(), oids.end(), 0);
  SortScratch scratch;
  RadixSortPairs32(keys.data(), oids.data(), n, 6, scratch);
  CheckSortedPairs(original, keys, oids);
}

}  // namespace
}  // namespace mcsort
