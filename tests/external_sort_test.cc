// External (spill) sort tests: run-file round-trip and corruption
// rejection, ExternalSorter bit-identity against the in-memory sorter
// across slice sizes, a block that fails its CRC mid-merge, zero-residue
// unwinding on cancellation, and the executor's spill-vs-degrade routing —
// including the exec.spill.* metrics the service records.
//
// Acceptance properties from the design doc exercised here:
//   * spilled output is bit-identical to the in-memory path (exact oid
//     sequence and group bounds, not just Lemma-1 equivalence);
//   * a cancelled or failed spill leaves zero files in the spill dir;
//   * a corrupt run file is a typed kCorrupt/kDataLoss, never wrong rows.
#include "mcsort/sort/external/external_sort.h"

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "mcsort/common/random.h"
#include "mcsort/common/thread_pool.h"
#include "mcsort/cost/cost_model.h"
#include "mcsort/engine/query.h"
#include "mcsort/io/fs_util.h"
#include "mcsort/service/query_service.h"
#include "mcsort/sort/external/run_file.h"

namespace mcsort {
namespace {

using external::ExternalSortResult;
using external::ExternalSorter;
using external::RunBlock;
using external::RunReader;
using external::RunWriter;

// Unique per-test scratch directory; removed (with contents) on scope exit.
struct TempSpillDir {
  std::string path;

  explicit TempSpillDir(const char* tag) {
    path = "/tmp/mcsort-spill-test-" + std::to_string(::getpid()) + "-" + tag;
    MakeDirs(path);
  }
  ~TempSpillDir() {
    CleanupTempFiles(path, "");  // empty suffix matches every regular file
    ::rmdir(path.c_str());
  }

  size_t FileCount() const {
    DIR* d = ::opendir(path.c_str());
    if (d == nullptr) return 0;
    size_t n = 0;
    while (struct dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name != "." && name != "..") ++n;
    }
    ::closedir(d);
    return n;
  }
};

// --------------------------------------------------------------------------
// Run-file format
// --------------------------------------------------------------------------

TEST(RunFileTest, WriteReadRoundTrip) {
  TempSpillDir dir("roundtrip");
  const std::string path = dir.path + "/run.mcr";
  const size_t n = 10'000;
  const size_t block_rows = 1024;

  RunWriter writer(path, block_rows);
  ASSERT_TRUE(writer.Open().ok());
  for (size_t r = 0; r < n; ++r) {
    writer.Add({r * 3, ~r}, static_cast<Oid>(r));
  }
  ASSERT_TRUE(writer.Finish().ok());
  EXPECT_EQ(writer.rows(), n);
  EXPECT_GT(writer.bytes_written(), n * external::kRunRowBytes);

  RunReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  EXPECT_EQ(reader.rows(), n);
  ASSERT_EQ(reader.num_blocks(), (n + block_rows - 1) / block_rows);
  size_t seen = 0;
  for (size_t b = 0; b < reader.num_blocks(); ++b) {
    RunBlock block;
    ASSERT_TRUE(reader.ReadBlock(b, &block).ok());
    for (size_t i = 0; i < block.rows(); ++i, ++seen) {
      ASSERT_EQ(block.hi[i], seen * 3);
      ASSERT_EQ(block.lo[i], ~seen);
      ASSERT_EQ(block.oid[i], seen);
    }
  }
  EXPECT_EQ(seen, n);
}

TEST(RunFileTest, CorruptBlockIsTypedCorrupt) {
  TempSpillDir dir("corrupt");
  const std::string path = dir.path + "/run.mcr";
  RunWriter writer(path, 512);
  ASSERT_TRUE(writer.Open().ok());
  for (size_t r = 0; r < 2048; ++r) writer.Add({r, r}, static_cast<Oid>(r));
  ASSERT_TRUE(writer.Finish().ok());

  // Flip one byte inside block 0's data (the first page is the preamble).
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, external::kRunPageBytes + 8, SEEK_SET), 0);
  const unsigned char bit = 0xFF;
  ASSERT_EQ(std::fwrite(&bit, 1, 1, f), 1u);
  std::fclose(f);

  RunReader reader;
  ASSERT_TRUE(reader.Open(path).ok());  // directory + tail are untouched
  RunBlock block;
  const Status st = reader.ReadBlock(0, &block);
  // CRC damage is data loss.
  EXPECT_EQ(st.code, StatusCode::kDataLoss);
  // The other blocks are unaffected.
  EXPECT_TRUE(reader.ReadBlock(1, &block).ok());
}

TEST(RunFileTest, TruncationAndBadMagicRejected) {
  TempSpillDir dir("trunc");
  const std::string path = dir.path + "/run.mcr";
  RunWriter writer(path, 512);
  ASSERT_TRUE(writer.Open().ok());
  for (size_t r = 0; r < 4096; ++r) writer.Add({r, r}, static_cast<Oid>(r));
  ASSERT_TRUE(writer.Finish().ok());

  // Stomp the tail magic: no longer recognizable as a run file.
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, -4, SEEK_END), 0);
    const uint32_t zero = 0;
    ASSERT_EQ(std::fwrite(&zero, sizeof(zero), 1, f), 1u);
    std::fclose(f);
    RunReader reader;
    const Status st = reader.Open(path);
    EXPECT_EQ(st.code, StatusCode::kInvalidArgument);
    EXPECT_NE(st.detail.find("bad magic"), std::string::npos) << st.detail;
  }
  // Truncate below the minimum preamble+tail size: typed kCorrupt.
  {
    ASSERT_EQ(::truncate(path.c_str(), external::kRunPageBytes / 2), 0);
    RunReader reader;
    EXPECT_EQ(reader.Open(path).code, StatusCode::kDataLoss);
  }
}

// --------------------------------------------------------------------------
// ExternalSorter vs the in-memory sorter
// --------------------------------------------------------------------------

// Value-identity between two sorted orders over the same columns: equal
// group bounds and, per group, the same set of rows. Since every sort
// attribute is constant within a group, this is exactly "the decoded
// result is byte-for-byte identical" — oids may permute only within
// full-key ties (the in-memory sorter's own tie order is unspecified).
void ExpectValueIdentical(const std::vector<Oid>& got_oids,
                          const Segments& got_groups,
                          const std::vector<Oid>& want_oids,
                          const Segments& want_groups) {
  ASSERT_EQ(got_oids.size(), want_oids.size());
  ASSERT_EQ(got_groups.bounds, want_groups.bounds);
  for (size_t g = 0; g < want_groups.count(); ++g) {
    std::vector<Oid> got(got_oids.begin() + want_groups.begin(g),
                         got_oids.begin() + want_groups.end(g));
    std::vector<Oid> want(want_oids.begin() + want_groups.begin(g),
                          want_oids.begin() + want_groups.end(g));
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    ASSERT_EQ(got, want) << "group " << g << " holds different rows";
  }
}

// Low-cardinality columns so group seams and full-key ties are plentiful —
// the cases where merge-tie-break and seam detection could diverge.
std::vector<EncodedColumn> TieHeavyColumns(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<EncodedColumn> cols;
  cols.emplace_back(10, n);
  cols.emplace_back(8, n);
  cols.emplace_back(7, n);
  for (size_t r = 0; r < n; ++r) {
    cols[0].Set(r, rng.NextBounded(40));
    cols[1].Set(r, rng.NextBounded(10));
    cols[2].Set(r, rng.NextBounded(5));
  }
  return cols;
}

TEST(ExternalSorterTest, BitIdenticalAcrossSliceSizes) {
  const size_t n = 150'000;
  std::vector<EncodedColumn> cols = TieHeavyColumns(n, 41);
  // Mixed directions exercise the DESC complement in the merge key.
  const std::vector<MassageInput> inputs = {
      {&cols[0], SortOrder::kAscending},
      {&cols[1], SortOrder::kDescending},
      {&cols[2], SortOrder::kAscending}};
  const MassagePlan plan = MassagePlan::ColumnAtATime({10, 8, 7});

  ThreadPool pool(2);
  MultiColumnSorter sorter(&pool);
  const MultiColumnSortResult baseline =
      sorter.Sort(inputs, plan, ExecContext::Default());
  ASSERT_TRUE(baseline.status.ok());

  TempSpillDir dir("slices");
  // n (single run), n/3, and the acceptance point n/8.
  for (size_t slice_rows : {n, n / 3, n / 8}) {
    SpillConfig config;
    config.dir = dir.path;
    config.block_rows = 4096;
    ExternalSorter external(&sorter, config, slice_rows);
    const ExternalSortResult result =
        external.Sort(inputs, plan, ExecContext::Default());
    ASSERT_TRUE(result.status.ok())
        << "slice_rows=" << slice_rows << ": " << result.status.ToString();
    EXPECT_EQ(result.num_runs, (n + slice_rows - 1) / slice_rows);
    ExpectValueIdentical(result.oids, result.groups, baseline.oids,
                         baseline.groups);
    EXPECT_EQ(result.merge_emitted, n);
    EXPECT_EQ(dir.FileCount(), 0u) << "run files leaked";
  }
}

// A block that fails its CRC while the merge is under way — in the
// cursor's prefetch, past the first block every cursor reads up front — must
// stop the merge with the block's kDataLoss naming the file, never end in a
// short result or a wrong-row-count kInternal.
TEST(ExternalSorterTest, CorruptBlockMidMergeIsDataLoss) {
  TempSpillDir dir("midmerge");
  const size_t kRuns = 3, kRows = 400, kBlockRows = 64;
  std::vector<std::string> paths;
  for (size_t run = 0; run < kRuns; ++run) {
    paths.push_back(dir.path + "/run" + std::to_string(run) + ".mcr");
    RunWriter writer(paths.back(), kBlockRows);
    ASSERT_TRUE(writer.Open().ok());
    for (size_t r = 0; r < kRows; ++r) {
      writer.Add({r, run}, static_cast<Oid>(run * kRows + r));
    }
    ASSERT_TRUE(writer.Finish().ok());
  }
  ExternalSortResult intact;
  ASSERT_TRUE(external::MergeRunFiles(paths, kRuns * kRows, kBlockRows,
                                      ExecContext::Default(), &intact)
                  .ok());
  EXPECT_EQ(intact.oids.size(), kRuns * kRows);

  // Block 1 of run 1 sits on the third page (preamble, block 0, block 1).
  std::FILE* f = std::fopen(paths[1].c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, 2 * external::kRunPageBytes + 8, SEEK_SET), 0);
  const unsigned char bit = 0xFF;
  ASSERT_EQ(std::fwrite(&bit, 1, 1, f), 1u);
  std::fclose(f);

  ExternalSortResult damaged;
  const Status st = external::MergeRunFiles(
      paths, kRuns * kRows, kBlockRows, ExecContext::Default(), &damaged);
  EXPECT_EQ(st.code, StatusCode::kDataLoss) << st.ToString();
  EXPECT_NE(st.detail.find(paths[1]), std::string::npos) << st.detail;
  for (const std::string& path : paths) ::unlink(path.c_str());
}

TEST(ExternalSorterTest, RejectsBadOptionsAndWideKeys) {
  ThreadPool pool(1);
  MultiColumnSorter sorter(&pool);
  const size_t n = 1024;
  std::vector<EncodedColumn> cols = TieHeavyColumns(n, 43);
  const std::vector<MassageInput> inputs = {{&cols[0], SortOrder::kAscending}};
  const MassagePlan plan = MassagePlan::ColumnAtATime({10});
  TempSpillDir dir("reject");

  {
    SpillConfig config;
    config.dir = dir.path;
    ExternalSorter external(&sorter, config, /*slice_rows=*/0);
    const ExternalSortResult result =
        external.Sort(inputs, plan, ExecContext::Default());
    EXPECT_EQ(result.status.code, StatusCode::kInvalidArgument);
  }
  {
    SpillConfig config;
    config.dir = dir.path;
    config.block_rows = 0;
    ExternalSorter external(&sorter, config, 256);
    const ExternalSortResult result =
        external.Sort(inputs, plan, ExecContext::Default());
    EXPECT_EQ(result.status.code, StatusCode::kInvalidArgument);
  }
  {
    // 3 x 48 = 144 bits: over the 128-bit merge-key cap.
    std::vector<EncodedColumn> wide;
    for (int i = 0; i < 3; ++i) {
      wide.emplace_back(48, n);
      for (size_t r = 0; r < n; ++r) wide[i].Set(r, r);
    }
    const std::vector<MassageInput> wide_inputs = {
        {&wide[0], SortOrder::kAscending},
        {&wide[1], SortOrder::kAscending},
        {&wide[2], SortOrder::kAscending}};
    SpillConfig config;
    config.dir = dir.path;
    ExternalSorter external(&sorter, config, 256);
    const ExternalSortResult result = external.Sort(
        wide_inputs, MassagePlan::ColumnAtATime({48, 48, 48}),
        ExecContext::Default());
    EXPECT_EQ(result.status.code, StatusCode::kUnimplemented);
    EXPECT_NE(result.status.detail.find("144 bits"), std::string::npos)
        << result.status.detail;
  }
  {
    // An uncreatable spill dir is a typed kUnavailable, not a crash.
    SpillConfig config;
    config.dir = "/dev/null/spill";
    ExternalSorter external(&sorter, config, 256);
    const ExternalSortResult result =
        external.Sort(inputs, plan, ExecContext::Default());
    EXPECT_EQ(result.status.code, StatusCode::kUnavailable);
  }
  EXPECT_EQ(dir.FileCount(), 0u);
}

TEST(ExternalSorterTest, EmptyInputIsTrivialOk) {
  ThreadPool pool(1);
  MultiColumnSorter sorter(&pool);
  EncodedColumn empty(10, 0);
  const std::vector<MassageInput> inputs = {{&empty, SortOrder::kAscending}};
  TempSpillDir dir("empty");
  SpillConfig config;
  config.dir = dir.path;
  ExternalSorter external(&sorter, config, 16);
  const ExternalSortResult result = external.Sort(
      inputs, MassagePlan::ColumnAtATime({10}), ExecContext::Default());
  EXPECT_TRUE(result.status.ok());
  EXPECT_TRUE(result.oids.empty());
  EXPECT_EQ(dir.FileCount(), 0u);
}

TEST(ExternalSorterTest, InjectedCancelLeavesNoRunFiles) {
  // cancel@4 fires at the 4th round boundary — inside a later slice's
  // in-memory sort, after at least one run file is already on disk. The
  // unwind must unlink every finished run and the in-flight temp file.
  const size_t n = 100'000;
  std::vector<EncodedColumn> cols = TieHeavyColumns(n, 44);
  const std::vector<MassageInput> inputs = {{&cols[0], SortOrder::kAscending},
                                            {&cols[1], SortOrder::kAscending},
                                            {&cols[2], SortOrder::kAscending}};
  const MassagePlan plan = MassagePlan::ColumnAtATime({10, 8, 7});
  ThreadPool pool(2);
  MultiColumnSorter sorter(&pool);

  TempSpillDir dir("cancel");
  SpillConfig config;
  config.dir = dir.path;
  config.block_rows = 4096;
  ExternalSorter external(&sorter, config, n / 8);

  FaultInjector injector(FaultInjector::Kind::kCancel, 4);
  ExecContext ctx;
  ctx.WithFault(&injector);
  const ExternalSortResult result = external.Sort(inputs, plan, ctx);
  EXPECT_EQ(result.status.code, StatusCode::kCancelled);
  EXPECT_EQ(dir.FileCount(), 0u) << "cancelled spill leaked run files";
}

TEST(ExternalSorterTest, ConcurrentCancelLeavesNoRunFiles) {
  // Wall-clock cancellation from a second thread: depending on machine
  // speed it lands during run generation, during the merge, or after
  // completion — all three outcomes must leave the spill dir empty.
  const size_t n = 400'000;
  std::vector<EncodedColumn> cols = TieHeavyColumns(n, 45);
  const std::vector<MassageInput> inputs = {{&cols[0], SortOrder::kAscending},
                                            {&cols[1], SortOrder::kAscending},
                                            {&cols[2], SortOrder::kAscending}};
  const MassagePlan plan = MassagePlan::ColumnAtATime({10, 8, 7});
  ThreadPool pool(2);
  MultiColumnSorter sorter(&pool);

  TempSpillDir dir("race");
  SpillConfig config;
  config.dir = dir.path;
  config.block_rows = 1024;  // frequent stop checks in the merge loop
  ExternalSorter external(&sorter, config, n / 16);

  CancellationSource source;
  ExecContext ctx;
  ctx.WithToken(source.token());
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    source.Cancel();
  });
  const ExternalSortResult result = external.Sort(inputs, plan, ctx);
  canceller.join();

  if (result.status.ok()) {
    EXPECT_EQ(result.oids.size(), n);
  } else {
    EXPECT_EQ(result.status.code, StatusCode::kCancelled);
  }
  EXPECT_EQ(dir.FileCount(), 0u);
}

// --------------------------------------------------------------------------
// Executor integration: the spill-vs-degrade router
// --------------------------------------------------------------------------

Table SpillTable(size_t n, uint64_t seed) {
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

QuerySpec SpillOrderBy() {
  return QuerySpecBuilder().OrderBy("a").OrderBy("b").OrderBy("c").OrderBy(
      "d").Build();
}

TEST(ExecutorSpillTest, SpilledResultBitIdenticalToInMemory) {
  // With massaging off there is no narrower plan to degrade to, so an
  // over-budget query must spill — and produce the exact same answer.
  const size_t n = 150'000;
  const Table table = SpillTable(n, 51);
  TempSpillDir dir("executor");
  ThreadPool pool(2);
  ExecutorOptions options;
  options.pool = &pool;
  options.use_massage = false;
  options.spill.dir = dir.path;
  options.spill.block_rows = 4096;
  QueryExecutor executor(table, options);
  const QuerySpec spec = SpillOrderBy();

  const ExecResult baseline = executor.Execute(spec, ExecContext::Default());
  ASSERT_TRUE(baseline.ok());
  EXPECT_FALSE(baseline.result.spilled);

  const size_t full_bytes =
      QueryExecutor::EstimatePlanScratchBytes(baseline.result.plan, n);
  ExecContext ctx;
  ctx.WithScratchBudget(full_bytes / 8);  // acceptance point: 1/8 budget
  const ExecResult run = executor.Execute(spec, ctx);
  ASSERT_TRUE(run.ok()) << run.ToStatus().ToString();
  EXPECT_TRUE(run.result.spilled);
  EXPECT_FALSE(run.result.degraded);
  EXPECT_GE(run.result.spill_runs, 8u);
  EXPECT_GT(run.result.spill_bytes, n * external::kRunRowBytes);
  ExpectValueIdentical(run.result.result_oids, run.result.sort_profile.groups,
                       baseline.result.result_oids,
                       baseline.result.sort_profile.groups);
  EXPECT_EQ(dir.FileCount(), 0u) << "spill run files leaked";
}

TEST(ExecutorSpillTest, BankFloorPlanSpillsInsteadOfFailing) {
  // A pinned plan already at the 16-bit bank floor cannot be narrowed, so
  // the router must spill without even costing the degrade arm.
  const size_t n = 120'000;
  const Table table = SpillTable(n, 52);
  TempSpillDir dir("floor");
  ThreadPool pool(2);
  ExecutorOptions options;
  options.pool = &pool;
  options.spill.dir = dir.path;
  options.spill.block_rows = 4096;
  QueryExecutor executor(table, options);
  const QuerySpec spec = SpillOrderBy();

  const ExecResult baseline = executor.Execute(spec, ExecContext::Default());
  ASSERT_TRUE(baseline.ok());

  const MassagePlan floor_plan({{16, 16}, {16, 16}, {16, 16}, {15, 16}});
  const std::vector<int> identity = {0, 1, 2, 3};
  PlanHint hint;
  hint.plan = &floor_plan;
  hint.column_order = &identity;
  ExecContext ctx;
  ctx.WithHint(&hint);
  ctx.WithScratchBudget(
      QueryExecutor::EstimatePlanScratchBytes(floor_plan, n) / 4);

  const ExecResult run = executor.Execute(spec, ctx);
  ASSERT_TRUE(run.ok()) << run.ToStatus().ToString();
  EXPECT_TRUE(run.result.spilled);
  EXPECT_FALSE(run.result.degraded);
  ExpectValueIdentical(run.result.result_oids, run.result.sort_profile.groups,
                       baseline.result.result_oids,
                       baseline.result.sort_profile.groups);
  EXPECT_EQ(dir.FileCount(), 0u);
}

TEST(ExecutorSpillTest, RouterPrefersDegradeWhenSpillExpensive) {
  // Astronomical spill IO cost: the router must pick the narrower-plan arm
  // and the query completes degraded, never touching the spill dir.
  const size_t n = 120'000;
  const Table table = SpillTable(n, 53);
  TempSpillDir dir("router");
  ThreadPool pool(2);
  ExecutorOptions options;
  options.pool = &pool;
  options.spill.dir = dir.path;
  options.params.spill.write_per_byte = 1e9;
  options.params.spill.read_per_byte = 1e9;
  QueryExecutor executor(table, options);
  const QuerySpec spec = SpillOrderBy();

  const MassagePlan wide({{63, 64}});
  const std::vector<int> identity = {0, 1, 2, 3};
  PlanHint hint;
  hint.plan = &wide;
  hint.column_order = &identity;
  const size_t wide_bytes = QueryExecutor::EstimatePlanScratchBytes(wide, n);
  const MassagePlan capped({{32, 32}, {31, 32}});
  const size_t capped_bytes =
      QueryExecutor::EstimatePlanScratchBytes(capped, n);
  ASSERT_LT(capped_bytes, wide_bytes);
  ExecContext ctx;
  ctx.WithHint(&hint);
  ctx.WithScratchBudget((capped_bytes + wide_bytes) / 2);

  const ExecResult run = executor.Execute(spec, ctx);
  ASSERT_TRUE(run.ok()) << run.ToStatus().ToString();
  EXPECT_TRUE(run.result.degraded);
  EXPECT_FALSE(run.result.spilled);
  EXPECT_EQ(run.result.spill_runs, 0u);
  EXPECT_EQ(dir.FileCount(), 0u);
}

TEST(ExecutorSpillTest, SpillDisabledFallsBackToResourceExhausted) {
  const size_t n = 60'000;
  const Table table = SpillTable(n, 54);
  ExecutorOptions options;
  options.use_massage = false;  // no degrade arm either
  options.spill.enabled = false;
  QueryExecutor executor(table, options);

  const ExecResult baseline =
      executor.Execute(SpillOrderBy(), ExecContext::Default());
  ASSERT_TRUE(baseline.ok());
  ExecContext ctx;
  ctx.WithScratchBudget(
      QueryExecutor::EstimatePlanScratchBytes(baseline.result.plan, n) / 8);
  const ExecResult run = executor.Execute(SpillOrderBy(), ctx);
  EXPECT_FALSE(run.ok());
  EXPECT_EQ(run.status.code, StatusCode::kResourceExhausted);
  EXPECT_EQ(run.ToStatus().code, StatusCode::kResourceExhausted);
}

TEST(ExecutorSpillTest, SpillIoFailureIsNotAScratchShortage) {
  // An uncreatable spill directory is an IO failure, not a scratch
  // shortage: it must surface as kUnavailable from the attempt that
  // spilled instead of being re-planned down the bank caps.
  const size_t n = 150'000;
  const Table table = SpillTable(n, 56);
  ThreadPool pool(2);
  ExecutorOptions options;
  options.pool = &pool;
  options.spill.dir = "/dev/null/spill";
  // Lookups priced out: every narrower plan needs a lookup round, so the
  // router takes the spill arm on the first attempt.
  options.params.cache_cycles = 1e6;
  options.params.mem_cycles = 1e6;
  QueryExecutor executor(table, options);
  const QuerySpec spec = SpillOrderBy();

  const ExecResult baseline = executor.Execute(spec, ExecContext::Default());
  ASSERT_TRUE(baseline.ok());
  ExecContext ctx;
  ctx.WithScratchBudget(
      QueryExecutor::EstimatePlanScratchBytes(baseline.result.plan, n) / 8);
  const ExecResult run = executor.Execute(spec, ctx);
  const Status status = run.ToStatus();
  EXPECT_EQ(status.code, StatusCode::kUnavailable) << status.ToString();
  EXPECT_NE(status.detail.find("spill directory"), std::string::npos)
      << status.detail;
  EXPECT_FALSE(run.result.degraded);
  EXPECT_EQ(run.result.bank_cap, 0);

  // The service counts it as what it is.
  ServiceOptions service_options;
  service_options.threads = 2;
  service_options.params = options.params;
  service_options.spill.dir = "/dev/null/spill";
  QueryService service(service_options);
  auto session = service.OpenSession(table);
  const ExecResult served = session->Execute(spec, ctx);
  EXPECT_EQ(served.ToStatus().code, StatusCode::kUnavailable)
      << served.ToStatus().ToString();
  EXPECT_EQ(service.metrics().counter("exec.unavailable")->value(), 1u);
  EXPECT_EQ(service.metrics().counter("exec.resource_exhausted")->value(),
            0u);
}

TEST(ExecutorSpillTest, SpillCyclesScalesWithVolumeAndParams) {
  // The router's surcharge term: monotone in row count and IO price, and
  // zero-priced IO still charges the K-way merge.
  CostParams params = CostParams::Default();
  const CostModel model(params);
  EXPECT_EQ(model.SpillCycles(0, 4, 63), 0.0);
  EXPECT_LT(model.SpillCycles(1000, 4, 63), model.SpillCycles(100000, 4, 63));
  CostParams pricey = params;
  pricey.spill.write_per_byte = 100.0;
  EXPECT_LT(model.SpillCycles(100000, 4, 63),
            CostModel(pricey).SpillCycles(100000, 4, 63));
  CostParams free_io = params;
  free_io.spill.overhead = 0;
  free_io.spill.write_per_byte = 0;
  free_io.spill.read_per_byte = 0;
  free_io.spill.key_build_per_row = 0;
  EXPECT_GT(CostModel(free_io).SpillCycles(100000, 4, 63), 0.0);
}

TEST(ServiceSpillTest, SpillRecordedInServiceMetrics) {
  const size_t n = 100'000;
  const Table table = SpillTable(n, 55);
  TempSpillDir dir("service");
  ServiceOptions options;
  options.threads = 2;
  options.use_massage = false;
  options.spill.dir = dir.path;
  options.spill.block_rows = 4096;
  QueryService service(options);
  auto session = service.OpenSession(table);
  const QuerySpec spec = SpillOrderBy();

  const ExecResult baseline = session->Execute(spec, ExecContext::Default());
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(service.metrics().counter("exec.spill.queries")->value(), 0u);

  ExecContext ctx;
  ctx.WithScratchBudget(
      QueryExecutor::EstimatePlanScratchBytes(baseline.result.plan, n) / 8);
  const ExecResult run = session->Execute(spec, ctx);
  ASSERT_TRUE(run.ok()) << run.ToStatus().ToString();
  EXPECT_TRUE(run.result.spilled);
  EXPECT_EQ(service.metrics().counter("exec.spill.queries")->value(), 1u);
  EXPECT_EQ(service.metrics().counter("exec.spill.runs")->value(),
            run.result.spill_runs);
  EXPECT_GE(service.metrics().counter("exec.spill.bytes")->value(),
            n * external::kRunRowBytes);
  EXPECT_EQ(service.admission().GetStats().inflight, 0);
  EXPECT_EQ(dir.FileCount(), 0u);
}

}  // namespace
}  // namespace mcsort
