// Tests for the Appendix-B-style operator pipelines and the Fast-MCS
// rewrite: pipeline shapes, the MAL rendering, and that a rewritten
// pipeline's massage plan, run by MultiColumnSorter, sorts exactly like the
// column-at-a-time baseline.
#include "mcsort/engine/pipeline.h"

#include <vector>

#include "gtest/gtest.h"
#include "mcsort/common/bits.h"
#include "mcsort/common/random.h"
#include "mcsort/engine/multi_column_sorter.h"

namespace mcsort {
namespace {

struct Fixture {
  std::vector<EncodedColumn> columns;
  std::vector<MassageInput> inputs;
  std::vector<int> widths;
  std::vector<ColumnStats> stats_storage;
  SortInstanceStats stats;
};

Fixture MakeFixture(const std::vector<int>& widths, size_t n, uint64_t seed,
                    uint64_t distinct) {
  Fixture f;
  f.widths = widths;
  Rng rng(seed);
  for (int w : widths) {
    EncodedColumn col(w, n);
    const uint64_t domain = LowBitsMask(w) + 1;
    const uint64_t d = std::min(distinct, domain);
    for (size_t i = 0; i < n; ++i) {
      Code v = rng.NextBounded(d);
      if (d < domain) v *= domain / d;
      col.Set(i, v);
    }
    f.columns.push_back(std::move(col));
  }
  for (const auto& col : f.columns) {
    f.inputs.push_back({&col, SortOrder::kAscending});
    f.stats_storage.push_back(ColumnStats::Build(col));
  }
  f.stats.n = n;
  for (const auto& s : f.stats_storage) f.stats.columns.push_back(&s);
  return f;
}

TEST(PipelineTest, ColumnAtATimeShapeMatchesFig2a) {
  const auto pipeline = ColumnAtATimePipeline({10, 17});
  // Code-Massage + 2 x (Sort, Scan) + 1 Lookup = 6 instructions.
  ASSERT_EQ(pipeline.size(), 6u);
  EXPECT_EQ(pipeline[0].op, OpCode::kCodeMassage);
  EXPECT_EQ(pipeline[1].op, OpCode::kSimdSort);
  EXPECT_EQ(pipeline[1].bank, 16);
  EXPECT_EQ(pipeline[2].op, OpCode::kScanGroups);
  EXPECT_EQ(pipeline[3].op, OpCode::kLookup);
  EXPECT_EQ(pipeline[4].op, OpCode::kSimdSort);
  EXPECT_EQ(pipeline[4].bank, 32);
}

TEST(PipelineTest, FastMcsRewriteStitchesNarrowColumns) {
  // Ex1-like: ROGA stitches 10 + 17 bits; the rewritten pipeline must be
  // shorter (no lookup, one sort), and its plan must sort identically.
  Fixture f = MakeFixture({10, 17}, 6000, 12, 1024);
  f.stats.n = 1 << 22;  // plan for paper-scale N
  const CostModel model(CostParams::Default());
  const auto original = ColumnAtATimePipeline(f.widths);
  // Merge-only: the rewritten shape under kernel routing is covered by
  // sort_kernels_test; this test pins the classic 1-round stitch.
  SearchOptions options;
  options.kernels = KernelBit(SortKernel::kSimdMerge);
  const auto rewritten = RewriteFastMcs(original, model, f.stats, options);
  ASSERT_LT(rewritten.size(), original.size());
  EXPECT_EQ(rewritten.size(), 3u);  // massage + sort + scan
  EXPECT_EQ(rewritten[1].op, OpCode::kSimdSort);
  EXPECT_EQ(rewritten[1].bank, 32);

  MultiColumnSorter sorter;
  const auto a = sorter.SortColumnAtATime(f.inputs);
  const auto b = sorter.Sort(f.inputs, rewritten[0].plan);
  ASSERT_TRUE(b.status.ok());
  EXPECT_EQ(a.groups.bounds, b.groups.bounds);
  for (size_t r = 0; r < a.oids.size(); ++r) {
    for (size_t c = 0; c < f.columns.size(); ++c) {
      ASSERT_EQ(f.columns[c].Get(a.oids[r]), f.columns[c].Get(b.oids[r]));
    }
  }
}

TEST(PipelineTest, SingleColumnSortingIsLeftIntact) {
  Fixture f = MakeFixture({12}, 2000, 13, 512);
  const CostModel model(CostParams::Default());
  const auto original = ColumnAtATimePipeline(f.widths);
  const auto rewritten = RewriteFastMcs(original, model, f.stats);
  EXPECT_EQ(rewritten.size(), original.size());
}

TEST(PipelineTest, RenderingLooksLikeMal) {
  const auto pipeline = ColumnAtATimePipeline({10, 17});
  const std::string text = PipelineToString(pipeline);
  EXPECT_NE(text.find("Code-Massage"), std::string::npos);
  EXPECT_NE(text.find("SIMD-Sort(s0, 16, nil)"), std::string::npos);
  EXPECT_NE(text.find("Lookup(s1, oid)"), std::string::npos);
  EXPECT_NE(text.find("SIMD-Sort(s1, 32, groups)"), std::string::npos);
}

}  // namespace
}  // namespace mcsort
