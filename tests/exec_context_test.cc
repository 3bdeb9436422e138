// ExecContext tests: cooperative cancellation with bounded stop latency,
// deadline expiry mid-sort, fault injection (MCSORT_FAULT semantics), and
// graceful degradation to narrower-bank plans under scratch pressure —
// with Lemma-1 equivalence between degraded and unrestricted results.
//
// Latency bounds here are deliberately generous (seconds, not the
// milliseconds the design targets): the suite runs under TSan/ASan where
// everything is an order of magnitude slower, and the property under test
// is "stops within a bounded number of morsels", not a wall-clock SLO.
#include "mcsort/common/exec_context.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "mcsort/common/random.h"
#include "mcsort/common/thread_pool.h"
#include "mcsort/common/timer.h"
#include "mcsort/cost/cost_model.h"
#include "mcsort/engine/query.h"
#include "mcsort/plan/roga.h"
#include "mcsort/service/query_service.h"
#include "mcsort/storage/statistics.h"

namespace mcsort {
namespace {

// --------------------------------------------------------------------------
// ExecContext / CancellationToken / FaultInjector unit behavior
// --------------------------------------------------------------------------

TEST(ExecContextTest, DefaultContextIsNeverStoppable) {
  const ExecContext& ctx = ExecContext::Default();
  EXPECT_FALSE(ctx.stoppable());
  EXPECT_EQ(ctx.StopCheck(), StatusCode::kOk);
  EXPECT_TRUE(ctx.CheckRound().ok());
}

TEST(ExecContextTest, CancellationTokenPropagatesAcrossCopies) {
  CancellationSource source;
  ExecContext ctx;
  ctx.WithToken(source.token());
  const ExecContext copy = ctx;  // copies share the flag
  EXPECT_TRUE(copy.stoppable());
  EXPECT_FALSE(copy.StopRequested());
  source.Cancel();
  EXPECT_EQ(copy.StopCheck(), StatusCode::kCancelled);
  EXPECT_EQ(ctx.StopCheck(), StatusCode::kCancelled);
}

TEST(ExecContextTest, DeadlineExpires) {
  ExecContext ctx;
  ctx.WithDeadlineAfter(1e-4);
  EXPECT_TRUE(ctx.stoppable());
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_EQ(ctx.StopCheck(), StatusCode::kDeadlineExceeded);
}

TEST(FaultInjectorTest, ParsesSpecStrings) {
  EXPECT_EQ(FaultInjector::FromString("cancel").kind(),
            FaultInjector::Kind::kCancel);
  EXPECT_EQ(FaultInjector::FromString("cancel").trigger(), 1u);
  EXPECT_EQ(FaultInjector::FromString("deadline@3").kind(),
            FaultInjector::Kind::kDeadline);
  EXPECT_EQ(FaultInjector::FromString("deadline@3").trigger(), 3u);
  EXPECT_EQ(FaultInjector::FromString("alloc@2").kind(),
            FaultInjector::Kind::kAlloc);
  EXPECT_FALSE(FaultInjector::FromString("bogus").enabled());
  EXPECT_FALSE(FaultInjector::FromString(nullptr).enabled());
  EXPECT_FALSE(FaultInjector::FromString("").enabled());
}

TEST(FaultInjectorTest, FromEnvReadsMcsortFault) {
  // Save/restore: the CI fault matrix sets MCSORT_FAULT for the whole
  // binary, and EnvDrivenFaultMatrix (below) must still see it.
  const char* prior = getenv("MCSORT_FAULT");
  const std::string saved = prior ? prior : "";
  setenv("MCSORT_FAULT", "alloc@5", 1);
  const FaultInjector injector = FaultInjector::FromEnv();
  EXPECT_EQ(injector.kind(), FaultInjector::Kind::kAlloc);
  EXPECT_EQ(injector.trigger(), 5u);
  unsetenv("MCSORT_FAULT");
  EXPECT_FALSE(FaultInjector::FromEnv().enabled());
  if (prior != nullptr) setenv("MCSORT_FAULT", saved.c_str(), 1);
}

TEST(FaultInjectorTest, FiresExactlyOnceAtTriggerBoundary) {
  FaultInjector injector(FaultInjector::Kind::kCancel, 3);
  EXPECT_EQ(injector.Poll(), FaultInjector::Kind::kNone);  // boundary 1
  EXPECT_EQ(injector.Poll(), FaultInjector::Kind::kNone);  // boundary 2
  EXPECT_EQ(injector.Poll(), FaultInjector::Kind::kCancel);  // boundary 3
  EXPECT_EQ(injector.Poll(), FaultInjector::Kind::kNone);  // never again
}

TEST(ExecContextTest, CheckRoundArmsInjectedFaultForStopCheck) {
  FaultInjector injector(FaultInjector::Kind::kAlloc, 1);
  ExecContext ctx;
  ctx.WithFault(&injector);
  const Status status = ctx.CheckRound();
  EXPECT_EQ(status.code, StatusCode::kResourceExhausted);
  // Once armed, the cheap morsel-boundary check sees it too.
  EXPECT_EQ(ctx.StopCheck(), StatusCode::kResourceExhausted);
  // Degradation consumes it exactly once.
  EXPECT_TRUE(ctx.ClearResourceFault());
  EXPECT_FALSE(ctx.ClearResourceFault());
  EXPECT_EQ(ctx.StopCheck(), StatusCode::kOk);
}

// --------------------------------------------------------------------------
// Cancellation / deadline through the sort and engine stack
// --------------------------------------------------------------------------

Table BigTable(size_t n, uint64_t seed) {
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

QuerySpec FourColumnOrderBy() {
  return QuerySpecBuilder().OrderBy("a").OrderBy("b").OrderBy("c").OrderBy(
      "d").Build();
}

TEST(CancellationTest, CancelFromSecondThreadStopsInFlightSortBounded) {
  // A 4-column ORDER BY over 2M rows; cancel from another thread shortly
  // after the sort starts. The executor must return kCancelled, and the
  // time from Cancel() to return must be bounded by morsel granularity
  // (generous bound: sanitized builds are slow), not by the full sort.
  const size_t n = 2'000'000;
  const Table table = BigTable(n, 131);
  ThreadPool pool(4);
  ExecutorOptions options;
  options.pool = &pool;
  QueryExecutor executor(table, options);

  CancellationSource source;
  ExecContext ctx;
  ctx.WithToken(source.token());

  Timer cancel_timer;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    cancel_timer.Restart();
    source.Cancel();
  });
  const ExecResult run = executor.Execute(FourColumnOrderBy(), ctx);
  const double latency = cancel_timer.Seconds();
  canceller.join();

  if (run.ok()) {
    // The query finished before the canceller fired (tiny machines):
    // nothing to assert about unwinding, but the result must be complete.
    EXPECT_EQ(run.result.result_oids.size(), n);
  } else {
    EXPECT_EQ(run.status.code, StatusCode::kCancelled);
    // TSan on a 1-core container unwinds in ~2.5-3s while the full sort
    // takes ~7.5s, so 5.0 still separates morsel-bounded unwinding from
    // running the sort to completion.
    EXPECT_LT(latency, 5.0) << "unwind not bounded by morsel granularity";
  }
}

TEST(CancellationTest, AlreadyCancelledContextReturnsImmediately) {
  const Table table = BigTable(500'000, 132);
  ThreadPool pool(2);
  ExecutorOptions options;
  options.pool = &pool;
  QueryExecutor executor(table, options);

  CancellationSource source;
  source.Cancel();
  ExecContext ctx;
  ctx.WithToken(source.token());
  Timer timer;
  const ExecResult run = executor.Execute(FourColumnOrderBy(), ctx);
  EXPECT_FALSE(run.ok());
  EXPECT_EQ(run.status.code, StatusCode::kCancelled);
  EXPECT_LT(timer.Seconds(), 1.0);
}

TEST(CancellationTest, DeadlineExpiryDuringSegmentSorting) {
  const Table table = BigTable(1'000'000, 133);
  ThreadPool pool(4);
  ExecutorOptions options;
  options.pool = &pool;
  QueryExecutor executor(table, options);

  ExecContext ctx;
  ctx.WithDeadlineAfter(0.02);  // expires while the sort is in flight
  const ExecResult run = executor.Execute(FourColumnOrderBy(), ctx);
  if (!run.ok()) {
    EXPECT_EQ(run.status.code, StatusCode::kDeadlineExceeded);
  }
  // Either way the executor returned instead of hanging; a second query
  // with a fresh context still works (no poisoned shared state).
  const ExecResult clean =
      executor.Execute(FourColumnOrderBy(), ExecContext::Default());
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean.result.result_oids.size(), table.row_count());
}

TEST(CancellationTest, SortSegmentsStopsBetweenMorsels) {
  // Direct sorter-level check: a cancelled context stops Sort with the
  // typed status and partial output.
  const size_t n = 500'000;
  Rng rng(7);
  EncodedColumn keys(20, n);
  for (size_t r = 0; r < n; ++r) keys.Set(r, rng.NextBounded(1u << 20));
  ThreadPool pool(2);
  MultiColumnSorter sorter(&pool);
  std::vector<MassageInput> inputs = {{&keys, SortOrder::kAscending}};

  CancellationSource source;
  source.Cancel();
  ExecContext ctx;
  ctx.WithToken(source.token());
  const MultiColumnSortResult result =
      sorter.Sort(inputs, MassagePlan::ColumnAtATime({20}), ctx);
  EXPECT_EQ(result.status.code, StatusCode::kCancelled);
}

TEST(CancellationTest, RogaSearchReturnsBestSoFarOnStop) {
  // A stopped context ends the plan search at its next stop point with the
  // P0/seed plan flagged timed_out — the search never spins.
  const size_t n = 4096;
  Rng rng(9);
  std::vector<EncodedColumn> cols;
  for (int width : {19, 19, 18}) {
    EncodedColumn col(width, n);
    for (size_t r = 0; r < n; ++r) col.Set(r, rng.NextBounded(1u << width));
    cols.push_back(std::move(col));
  }
  std::vector<ColumnStats> storage;
  for (const EncodedColumn& col : cols) storage.push_back(ColumnStats::Build(col));
  SortInstanceStats stats;
  stats.n = 1'000'000;
  for (const ColumnStats& s : storage) stats.columns.push_back(&s);
  CostModel model{CostParams::Default()};

  CancellationSource source;
  source.Cancel();
  ExecContext ctx;
  ctx.WithToken(source.token());
  SearchOptions options;
  options.ctx = &ctx;
  options.permute_columns = true;
  const SearchResult result = RogaSearch(model, stats, options);
  EXPECT_TRUE(result.timed_out);
  EXPECT_TRUE(result.plan.IsValid());
}

// --------------------------------------------------------------------------
// Fault injection + graceful degradation
// --------------------------------------------------------------------------

// Lemma-1 equivalence: any two valid executions agree on the group bounds
// and on the sorted key sequence of every sort attribute (oids may permute
// within ties only — which these checks pin down exactly).
void ExpectLemma1Identical(const Table& table, const QueryResult& got,
                           const QueryResult& want,
                           const std::vector<std::string>& attrs) {
  ASSERT_EQ(got.result_oids.size(), want.result_oids.size());
  EXPECT_EQ(got.sort_profile.groups.bounds, want.sort_profile.groups.bounds);
  EXPECT_EQ(got.aggregate_values, want.aggregate_values);
  for (const std::string& name : attrs) {
    const EncodedColumn& col = table.column(name);
    for (size_t r = 0; r < got.result_oids.size(); ++r) {
      ASSERT_EQ(col.Get(got.result_oids[r]), col.Get(want.result_oids[r]))
          << "attr=" << name << " row=" << r;
    }
  }
}

TEST(DegradationTest, InjectedAllocFailureDegradesToNarrowerBanks) {
  const Table table = BigTable(200'000, 134);
  ThreadPool pool(2);
  ExecutorOptions options;
  options.pool = &pool;
  QueryExecutor executor(table, options);
  const QuerySpec spec = FourColumnOrderBy();

  // Baseline: unrestricted execution under the default context.
  const ExecResult baseline = executor.Execute(spec, ExecContext::Default());
  ASSERT_TRUE(baseline.ok());

  // Pin a wide (64-bit bank) plan via hint so the degradation path is
  // deterministic, then inject one allocation failure at the first round
  // boundary. The executor must absorb it: re-plan under a halved bank
  // cap and retry (the injector fires exactly once).
  const MassagePlan wide({{63, 64}});  // a=16+b=17+c=18+d=12 = 63 bits
  const std::vector<int> identity = {0, 1, 2, 3};
  PlanHint hint;
  hint.plan = &wide;
  hint.column_order = &identity;
  FaultInjector injector(FaultInjector::Kind::kAlloc, 1);
  ExecContext ctx;
  ctx.WithFault(&injector);
  ctx.WithHint(&hint);

  const ExecResult run = executor.Execute(spec, ctx);
  ASSERT_TRUE(run.ok()) << run.status.name();
  EXPECT_TRUE(run.result.degraded);
  EXPECT_EQ(run.result.bank_cap, 32);
  for (const Round& round : run.result.plan.rounds()) {
    EXPECT_LE(round.bank, 32);
  }
  ExpectLemma1Identical(table, run.result, baseline.result,
                        {"a", "b", "c", "d"});
}

TEST(DegradationTest, ScratchBudgetForcesNarrowPlanWithIdenticalResults) {
  const Table table = BigTable(200'000, 135);
  ThreadPool pool(2);
  ExecutorOptions options;
  options.pool = &pool;
  QueryExecutor executor(table, options);
  const QuerySpec spec = FourColumnOrderBy();

  const ExecResult baseline = executor.Execute(spec, ExecContext::Default());
  ASSERT_TRUE(baseline.ok());

  // Pin the wide plan via hint; pick a budget that the 64-bank plan's
  // estimate exceeds but a 32-capped plan can satisfy.
  const MassagePlan wide({{63, 64}});
  const std::vector<int> identity = {0, 1, 2, 3};
  PlanHint hint;
  hint.plan = &wide;
  hint.column_order = &identity;
  const size_t n = table.row_count();
  const size_t wide_bytes = QueryExecutor::EstimatePlanScratchBytes(wide, n);
  const MassagePlan capped({{32, 32}, {31, 32}});
  const size_t capped_bytes =
      QueryExecutor::EstimatePlanScratchBytes(capped, n);
  ASSERT_LT(capped_bytes, wide_bytes);
  ExecContext ctx;
  ctx.WithHint(&hint);
  ctx.WithScratchBudget((capped_bytes + wide_bytes) / 2);

  const ExecResult run = executor.Execute(spec, ctx);
  ASSERT_TRUE(run.ok()) << run.status.name();
  EXPECT_TRUE(run.result.degraded);
  // The first halving gives cap 32; a second (if the 32-capped plan still
  // overshoots) gives 16 — either way the cap and estimate must hold.
  EXPECT_GE(run.result.bank_cap, 16);
  EXPECT_LE(run.result.bank_cap, 32);
  for (const Round& round : run.result.plan.rounds()) {
    EXPECT_LE(round.bank, run.result.bank_cap);
  }
  EXPECT_LE(QueryExecutor::EstimatePlanScratchBytes(run.result.plan, n),
            (capped_bytes + wide_bytes) / 2);
  ExpectLemma1Identical(table, run.result, baseline.result,
                        {"a", "b", "c", "d"});
}

TEST(DegradationTest, UnsatisfiableBudgetFailsWithResourceExhausted) {
  const Table table = BigTable(50'000, 136);
  QueryExecutor executor(table, {});
  ExecContext ctx;
  ctx.WithScratchBudget(1);  // nothing fits: even the narrowest plan fails
  const ExecResult run = executor.Execute(FourColumnOrderBy(), ctx);
  EXPECT_FALSE(run.ok());
  EXPECT_EQ(run.status.code, StatusCode::kResourceExhausted);
}

TEST(FaultInjectionTest, InjectedCancelUnwindsWholeServiceStack) {
  // MCSORT_FAULT=cancel@1 semantics, driven programmatically: the fault
  // fires at the first round boundary inside the sort; the service must
  // record the outcome and release the admission slot.
  const Table table = BigTable(100'000, 137);
  ServiceOptions options;
  options.threads = 2;
  QueryService service(options);
  auto session = service.OpenSession(table);

  FaultInjector injector(FaultInjector::Kind::kCancel, 1);
  ExecContext ctx;
  ctx.WithFault(&injector);
  const ExecResult run = session->Execute(FourColumnOrderBy(), ctx);
  EXPECT_FALSE(run.ok());
  EXPECT_EQ(run.status.code, StatusCode::kCancelled);
  EXPECT_EQ(service.admission().GetStats().inflight, 0);
  EXPECT_EQ(service.metrics().counter("exec.cancelled")->value(), 1u);

  // And the very same session still serves clean queries afterwards.
  const ExecResult clean =
      session->Execute(FourColumnOrderBy(), ExecContext::Default());
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(service.metrics().counter("exec.ok")->value(), 1u);
}

TEST(FaultInjectionTest, InjectedDeadlineSurfacesTypedStatus) {
  const Table table = BigTable(100'000, 138);
  QueryExecutor executor(table, {});
  FaultInjector injector(FaultInjector::Kind::kDeadline, 2);
  ExecContext ctx;
  ctx.WithFault(&injector);
  const ExecResult run = executor.Execute(FourColumnOrderBy(), ctx);
  EXPECT_FALSE(run.ok());
  EXPECT_EQ(run.status.code, StatusCode::kDeadlineExceeded);
}

// Driven by the CI fault matrix: when MCSORT_FAULT is set in the
// environment, run one representative query under the injected fault and
// assert the stack unwinds with the matching typed status (or absorbs an
// alloc fault by degrading). Without MCSORT_FAULT this is a no-op pass.
TEST(FaultInjectionTest, EnvDrivenFaultMatrix) {
  FaultInjector injector = FaultInjector::FromEnv();
  if (!injector.enabled()) GTEST_SKIP() << "MCSORT_FAULT not set";
  const Table table = BigTable(200'000, 139);
  ThreadPool pool(2);
  ExecutorOptions options;
  options.pool = &pool;
  QueryExecutor executor(table, options);

  const MassagePlan wide({{63, 64}});
  const std::vector<int> identity = {0, 1, 2, 3};
  PlanHint hint;
  hint.plan = &wide;
  hint.column_order = &identity;
  ExecContext ctx;
  ctx.WithFault(&injector);
  ctx.WithHint(&hint);
  const ExecResult run = executor.Execute(FourColumnOrderBy(), ctx);
  switch (injector.kind()) {
    case FaultInjector::Kind::kCancel:
      EXPECT_EQ(run.status.code, StatusCode::kCancelled);
      break;
    case FaultInjector::Kind::kDeadline:
      EXPECT_EQ(run.status.code, StatusCode::kDeadlineExceeded);
      break;
    case FaultInjector::Kind::kAlloc:
      // Absorbed by degradation when it fires at a round boundary of the
      // main sort; the query must still complete correctly.
      ASSERT_TRUE(run.ok()) << run.status.name();
      EXPECT_TRUE(run.result.degraded);
      EXPECT_EQ(run.result.result_oids.size(), table.row_count());
      break;
    case FaultInjector::Kind::kNone:
      break;
  }
}

}  // namespace
}  // namespace mcsort
