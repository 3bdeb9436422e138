// Tests for the cost model: structural properties (Eq. 3 hit-ratio
// behavior, FIP counting in T_massage, Lemma 2's Property 1 dominance),
// agreement in *shape* with the paper's Sec. 3 examples, and the
// calibration file format.
#include "mcsort/cost/cost_model.h"

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "mcsort/common/bits.h"
#include "mcsort/common/random.h"
#include "mcsort/cost/calibration.h"
#include "mcsort/cost/linear_solver.h"
#include "mcsort/plan/enumerate.h"
#include "mcsort/storage/column.h"

namespace mcsort {
namespace {

// Builds stats for a synthetic column: n rows, `distinct` values uniform
// over the w-bit domain (the Sec. 3 experimental setup).
ColumnStats MakeStats(int width, uint64_t n, uint64_t distinct,
                      uint64_t seed) {
  Rng rng(seed);
  EncodedColumn col(width, n);
  const uint64_t domain = LowBitsMask(width) + 1;
  const uint64_t d = std::min(distinct, domain);
  // Random but fixed dictionary spread over the domain.
  std::vector<Code> dict(d);
  for (auto& v : dict) v = rng.NextBounded(domain);
  for (uint64_t i = 0; i < n; ++i) col.Set(i, dict[rng.NextBounded(d)]);
  return ColumnStats::Build(col);
}

class CostModelTest : public ::testing::Test {
 protected:
  CostModelTest() : model_(CostParams::Default()) {}

  CostModel model_;
};

TEST_F(CostModelTest, MassageCostCountsFips) {
  // Ex3-style instance: 17-bit + 33-bit columns.
  ColumnStats c1 = MakeStats(17, 1 << 16, 1 << 13, 1);
  ColumnStats c2 = MakeStats(33, 1 << 16, 1 << 13, 2);
  SortInstanceStats stats{1 << 16, {&c1, &c2}};

  // Identity plan: 2 FIPs; P<<1: 3 FIPs. T_massage must scale 2:3.
  const auto id = model_.Estimate(MassagePlan::WithMinimalBanks({17, 33}),
                                  stats);
  const auto shifted =
      model_.Estimate(MassagePlan::WithMinimalBanks({18, 32}), stats);
  EXPECT_DOUBLE_EQ(shifted.t_massage / id.t_massage, 1.5);
}

TEST_F(CostModelTest, LookupCostGrowsWithFootprint) {
  ColumnStats c1 = MakeStats(17, 1 << 14, 1 << 10, 3);
  ColumnStats c2 = MakeStats(32, 1 << 14, 1 << 10, 4);
  // Two-round plans over different widths: a wider second round has a
  // bigger footprint and must not be cheaper to look up.
  SortInstanceStats small{1 << 14, {&c1, &c2}};
  SortInstanceStats large{1 << 24, {&c1, &c2}};
  const MassagePlan plan = MassagePlan::WithMinimalBanks({17, 32});
  const auto e_small = model_.Estimate(plan, small);
  const auto e_large = model_.Estimate(plan, large);
  // Per-row lookup cost grows once the footprint exceeds the LLC.
  EXPECT_GT(e_large.rounds[1].t_lookup / (1 << 24),
            e_small.rounds[1].t_lookup / (1 << 14));
}

TEST_F(CostModelTest, Ex2StitchAllLosesWhenBankWidens) {
  // Paper Ex2: 15-bit + 31-bit; stitching to 46/[64] degrades vs
  // P0 = {15/[16], 31/[32]} (the paper's N = 2^24 setup).
  const uint64_t n = 1 << 24;
  ColumnStats c1 = MakeStats(15, 1 << 18, 1 << 13, 5);
  ColumnStats c2 = MakeStats(31, 1 << 18, 1 << 13, 6);
  SortInstanceStats stats{n, {&c1, &c2}};
  const double p0 = model_.EstimateCycles(
      MassagePlan::WithMinimalBanks({15, 31}), stats);
  const double stitched = model_.EstimateCycles(
      MassagePlan::WithMinimalBanks({46}), stats);
  EXPECT_LT(p0, stitched);
}

TEST_F(CostModelTest, Ex1StitchAllWins) {
  // Paper Ex1: 10-bit + 17-bit; the 27/[32] stitch saves a whole round
  // (sort + lookup + scan) at the same bank width.
  const uint64_t n = 1 << 22;
  ColumnStats c1 = MakeStats(10, 1 << 18, 1 << 10, 7);
  ColumnStats c2 = MakeStats(17, 1 << 18, 1 << 13, 8);
  SortInstanceStats stats{n, {&c1, &c2}};
  const double p0 = model_.EstimateCycles(
      MassagePlan::WithMinimalBanks({10, 17}), stats);
  const double stitched =
      model_.EstimateCycles(MassagePlan::WithMinimalBanks({27}), stats);
  EXPECT_LT(stitched, p0);
}

TEST_F(CostModelTest, Property1StitchingWithinBankNeverHurts) {
  // Lemma 2 / Property 1: stitching two adjacent rounds that fit within
  // the first round's bank yields a better plan (per the model).
  const uint64_t n = 1 << 20;
  ColumnStats c1 = MakeStats(6, 1 << 14, 40, 9);
  ColumnStats c2 = MakeStats(7, 1 << 14, 90, 10);
  ColumnStats c3 = MakeStats(9, 1 << 14, 300, 11);
  SortInstanceStats stats{n, {&c1, &c2, &c3}};
  // {6/[16], 7/[16], 9/[16]} vs {13/[16], 9/[16]}: 6 + 7 <= 16.
  const double three = model_.EstimateCycles(
      MassagePlan::WithMinimalBanks({6, 7, 9}), stats);
  const double two = model_.EstimateCycles(
      MassagePlan::WithMinimalBanks({13, 9}), stats);
  EXPECT_LT(two, three);
}

TEST_F(CostModelTest, CompositeDistinctCapsAtRowCountEffect) {
  ColumnStats c1 = MakeStats(20, 1 << 16, 1 << 12, 12);
  ColumnStats c2 = MakeStats(20, 1 << 16, 1 << 12, 13);
  SortInstanceStats stats{1 << 16, {&c1, &c2}};
  // Distinct prefixes grow monotonically with the prefix width.
  double prev = 0;
  for (int bits = 0; bits <= 40; bits += 5) {
    const double d = model_.CompositeDistinct(stats, bits);
    EXPECT_GE(d, prev);
    prev = d;
  }
}

TEST_F(CostModelTest, EstimateAccountsEveryRound) {
  ColumnStats c1 = MakeStats(12, 1 << 14, 1 << 10, 14);
  ColumnStats c2 = MakeStats(18, 1 << 14, 1 << 12, 15);
  SortInstanceStats stats{1 << 20, {&c1, &c2}};
  const auto est =
      model_.Estimate(MassagePlan::WithMinimalBanks({10, 10, 10}), stats);
  ASSERT_EQ(est.rounds.size(), 3u);
  EXPECT_EQ(est.rounds[0].t_lookup, 0.0);  // round 1: no lookup
  EXPECT_GT(est.rounds[1].t_lookup, 0.0);
  EXPECT_GT(est.rounds[2].t_lookup, 0.0);
  double total = est.t_massage;
  for (const auto& r : est.rounds) total += r.t_lookup + r.t_sort + r.t_scan;
  EXPECT_DOUBLE_EQ(total, est.total_cycles);
}

TEST_F(CostModelTest, GroupEstimatorTracksMeasuredGroups) {
  // The balls-into-bins group estimator behind N_group/N_sort (Fig. 4b's
  // quantities) must track reality for uniform data: build an instance,
  // predict groups after a prefix, and compare with exact counting.
  const uint64_t n = 1 << 16;
  Rng rng(77);
  EncodedColumn c1(14, n), c2(20, n);
  for (uint64_t i = 0; i < n; ++i) {
    c1.Set(i, rng.NextBounded(1 << 10) << 4);  // 2^10 distinct, spread
    c2.Set(i, rng.NextBounded(1 << 12) << 8);
  }
  ColumnStats s1 = ColumnStats::Build(c1);
  ColumnStats s2 = ColumnStats::Build(c2);
  SortInstanceStats stats{n, {&s1, &s2}};

  // Measured: distinct values of the full first column (prefix = 14).
  std::vector<Code> keys(n);
  for (uint64_t i = 0; i < n; ++i) keys[i] = c1.Get(i);
  std::sort(keys.begin(), keys.end());
  const double measured_groups = static_cast<double>(
      std::unique(keys.begin(), keys.end()) - keys.begin());

  const auto est = model_.Estimate(
      MassagePlan::WithMinimalBanks({14, 20}), stats);
  // rounds[0].n_group is the group count after round 1.
  EXPECT_NEAR(est.rounds[0].n_group, measured_groups,
              measured_groups * 0.05);
}

TEST_F(CostModelTest, SecondRoundSortsOnlyTiedRows) {
  // With a first column whose distinct count matches the row count,
  // nearly every group is a singleton and the estimated second-round sort
  // cost collapses.
  const uint64_t n = 1 << 14;
  ColumnStats wide = MakeStats(30, 1 << 14, 1 << 14, 31);   // ~unique per row
  ColumnStats narrow = MakeStats(8, 1 << 14, 16, 32);       // few values
  SortInstanceStats unique_first{n, {&wide, &narrow}};
  SortInstanceStats grouped_first{n, {&narrow, &wide}};
  const auto est_unique = model_.Estimate(
      MassagePlan::WithMinimalBanks({30, 8}), unique_first);
  const auto est_grouped = model_.Estimate(
      MassagePlan::WithMinimalBanks({8, 30}), grouped_first);
  // Behind a near-unique prefix, singleton groups exempt a large fraction
  // of rows from the second round (the Fig. 4b singleton effect); behind a
  // 16-value prefix every row remains tied and must be sorted.
  EXPECT_LT(est_unique.rounds[1].rows_to_sort, 0.85 * n);
  EXPECT_GT(est_grouped.rounds[1].rows_to_sort, 0.99 * n);
  // And the number of sort invocations explodes in the unique-first case
  // (many tiny groups) while staying at 16 in the grouped-first case.
  EXPECT_GT(est_unique.rounds[1].n_sort, 1000);
  EXPECT_NEAR(est_grouped.rounds[1].n_sort, 16, 3);
}

TEST(LinearSolverTest, RecoversExactSolution) {
  // 3 unknowns, 5 equations, consistent system.
  const std::vector<double> truth = {3.0, 0.5, 7.0};
  std::vector<std::vector<double>> a;
  std::vector<double> b;
  Rng rng(99);
  for (int r = 0; r < 5; ++r) {
    std::vector<double> row = {rng.NextDouble() * 10, rng.NextDouble() * 10,
                               rng.NextDouble() * 10};
    b.push_back(row[0] * truth[0] + row[1] * truth[1] + row[2] * truth[2]);
    a.push_back(row);
  }
  const auto x = SolveLeastSquares(a, b);
  ASSERT_EQ(x.size(), 3u);
  for (size_t i = 0; i < 3; ++i) EXPECT_NEAR(x[i], truth[i], 1e-6);
}

TEST(LinearSolverTest, LeastSquaresFitsNoisyOverdetermined) {
  const std::vector<double> truth = {100.0, 2.0};
  std::vector<std::vector<double>> a;
  std::vector<double> b;
  Rng rng(7);
  for (int r = 0; r < 50; ++r) {
    const double g = 1.0 + static_cast<double>(rng.NextBounded(1000));
    const double n = 1000.0 + static_cast<double>(rng.NextBounded(100000));
    const double noise = (rng.NextDouble() - 0.5) * 10.0;
    a.push_back({g, n});
    b.push_back(g * truth[0] + n * truth[1] + noise);
  }
  const auto x = SolveLeastSquares(a, b);
  EXPECT_NEAR(x[0], truth[0], 1.0);
  EXPECT_NEAR(x[1], truth[1], 0.01);
}

// --- Calibration file format (SaveParams / LoadParams) -------------------

// A file in the test temp directory, removed when the test ends.
class ParamsFile {
 public:
  explicit ParamsFile(const std::string& name)
      : path_(::testing::TempDir() + "mcsort_params_" + name + "_" +
              std::to_string(getpid()) + ".txt") {}
  ~ParamsFile() { std::remove(path_.c_str()); }
  const char* path() const { return path_.c_str(); }
  void Write(const std::string& text) const { std::ofstream(path_) << text; }

 private:
  std::string path_;
};

// Every field SaveParams writes, each different from its default and
// exact in six significant digits.
CostParams NonDefaultParams() {
  CostParams params = CostParams::Default();
  params.cache_cycles = 11.5;
  params.mem_cycles = 17.25;
  params.massage_cycles = 1.625;
  params.scan_cycles = 1.375;
  params.bank16 = {12.0, 21.5, 22.5, 31.5};
  params.bank32 = {13.0, 27.5, 28.5, 14.5};
  params.bank64 = {14.0, 58.5, 59.5, 35.5};
  params.counting = {348.5, 0.25, 19.5, 32.5};
  params.radix = {512.5, 0.75, 5.25, 17.5};
  return params;
}

void ExpectSameSavedFields(const CostParams& a, const CostParams& b) {
  EXPECT_EQ(a.cache_cycles, b.cache_cycles);
  EXPECT_EQ(a.mem_cycles, b.mem_cycles);
  EXPECT_EQ(a.massage_cycles, b.massage_cycles);
  EXPECT_EQ(a.scan_cycles, b.scan_cycles);
  for (int bank : {16, 32, 64}) {
    EXPECT_EQ(a.bank(bank).overhead, b.bank(bank).overhead) << bank;
    EXPECT_EQ(a.bank(bank).sort_network, b.bank(bank).sort_network) << bank;
    EXPECT_EQ(a.bank(bank).in_cache_merge, b.bank(bank).in_cache_merge)
        << bank;
    EXPECT_EQ(a.bank(bank).out_of_cache_merge,
              b.bank(bank).out_of_cache_merge)
        << bank;
  }
  EXPECT_EQ(a.counting.overhead, b.counting.overhead);
  EXPECT_EQ(a.counting.per_bucket, b.counting.per_bucket);
  EXPECT_EQ(a.counting.row_cache, b.counting.row_cache);
  EXPECT_EQ(a.counting.row_mem, b.counting.row_mem);
  EXPECT_EQ(a.radix.overhead, b.radix.overhead);
  EXPECT_EQ(a.radix.per_bucket, b.radix.per_bucket);
  EXPECT_EQ(a.radix.row_pass, b.radix.row_pass);
  EXPECT_EQ(a.radix.msd_row, b.radix.msd_row);
}

// A calibration file written while the in-round OVC kernel existed (the
// end-to-end benchmark's checked-in constants): three ovc<N>= lines
// between the banks and counting.
const char kFileWithOvcLines[] =
    "cache_cycles=11.1021\n"
    "mem_cycles=15.9721\n"
    "massage_cycles=1.61755\n"
    "scan_cycles=1.56053\n"
    "bank16=10,26.5615,26.5615,30.0693\n"
    "bank32=10,27.6161,27.6161,14.2795\n"
    "bank64=10,58.0273,58.0273,35.316\n"
    "ovc16=10,61.3342,10.8379\n"
    "ovc32=1590.41,47.6309,15.7049\n"
    "ovc64=8711.53,106.775,14.4469\n"
    "counting=348.26,0.259894,19.7308,32.1733\n";

TEST(CalibrationFileTest, SaveLoadRoundTripsEveryField) {
  ParamsFile file("round_trip");
  const CostParams saved = NonDefaultParams();
  ASSERT_TRUE(SaveParams(saved, file.path()));
  CostParams loaded = CostParams::Default();
  ASSERT_TRUE(LoadParams(file.path(), &loaded));
  ExpectSameSavedFields(saved, loaded);
}

TEST(CalibrationFileTest, RepeatedKeyDoesNotCompleteAFile) {
  ParamsFile file("repeated_key");
  std::string text;
  for (int i = 0; i < 11; ++i) text += "cache_cycles=1\n";
  file.Write(text);
  CostParams params = CostParams::Default();
  EXPECT_FALSE(LoadParams(file.path(), &params));
  ExpectSameSavedFields(CostParams::Default(), params);
}

TEST(CalibrationFileTest, BankOutsideTheModelIsRejected) {
  // Complete but for one line naming a bank the model does not have; it
  // must not land on bank64.
  ParamsFile file("bank8");
  file.Write(std::string(kFileWithOvcLines) + "bank8=1,2,3,4\n");
  CostParams params = CostParams::Default();
  EXPECT_FALSE(LoadParams(file.path(), &params));
  ExpectSameSavedFields(CostParams::Default(), params);
}

TEST(CalibrationFileTest, FileWithOvcLinesStillLoads) {
  ParamsFile file("ovc_lines");
  file.Write(kFileWithOvcLines);
  CostParams params = CostParams::Default();
  ASSERT_TRUE(LoadParams(file.path(), &params));
  CostParams expected = CostParams::Default();
  expected.cache_cycles = 11.1021;
  expected.mem_cycles = 15.9721;
  expected.massage_cycles = 1.61755;
  expected.scan_cycles = 1.56053;
  expected.bank16 = {10, 26.5615, 26.5615, 30.0693};
  expected.bank32 = {10, 27.6161, 27.6161, 14.2795};
  expected.bank64 = {10, 58.0273, 58.0273, 35.316};
  expected.counting = {348.26, 0.259894, 19.7308, 32.1733};
  ExpectSameSavedFields(expected, params);
}

TEST(CalibrationFileTest, FileWithoutRadixLineKeepsCallerRadix) {
  // The end-to-end benchmark's checked-in constants predate the radix
  // term: the file loads and the caller's radix constants stay.
  ParamsFile file("no_radix");
  file.Write(kFileWithOvcLines);
  CostParams params = CostParams::Default();
  params.radix = {1.0, 2.0, 3.0, 4.0};
  ASSERT_TRUE(LoadParams(file.path(), &params));
  EXPECT_EQ(params.counting.row_cache, 19.7308);
  EXPECT_EQ(params.radix.overhead, 1.0);
  EXPECT_EQ(params.radix.per_bucket, 2.0);
  EXPECT_EQ(params.radix.row_pass, 3.0);
  EXPECT_EQ(params.radix.msd_row, 4.0);
}

TEST(CalibrationFileTest, RadixLineWithoutFourNumbersIsRejected) {
  ParamsFile file("radix_short");
  file.Write(std::string(kFileWithOvcLines) + "radix=1,2\n");
  CostParams params = CostParams::Default();
  EXPECT_FALSE(LoadParams(file.path(), &params));
  ExpectSameSavedFields(CostParams::Default(), params);
}

}  // namespace
}  // namespace mcsort
