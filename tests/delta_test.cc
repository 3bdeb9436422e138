// Write-path tests: the delta store's row/tombstone/overflow index, the
// DML wire codec, merge-at-scan visibility through the service catalog,
// and the compaction contract — base+delta query results value-identical
// to post-compaction results (sorts, group scans, aggregates, including
// dictionary growth through the overflow route), readers pinned to the
// old epoch unaffected by a concurrent publish, and typed per-row errors
// for rejected DML. A row-by-row oracle checks the merged image itself,
// including the statistics and ByteSlice it derives from its base, and
// the single-flight snapshot and the release of retired bases.
//
// Determinism: rho = 0 (exhaustive search) and threads = 1, so repeated
// executions of one spec against one physical table are bit-identical —
// the pinned-epoch test compares raw oid vectors, not just key sequences.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "gtest/gtest.h"
#include "mcsort/common/random.h"
#include "mcsort/delta/delta_store.h"
#include "mcsort/delta/dml.h"
#include "mcsort/delta/merge_scan.h"
#include "mcsort/delta/table_version.h"
#include "mcsort/common/bits.h"
#include "mcsort/net/protocol.h"
#include "mcsort/service/query_service.h"
#include "mcsort/storage/byteslice.h"
#include "mcsort/storage/dictionary.h"
#include "mcsort/storage/statistics.h"
#include "mcsort/storage/table.h"

namespace mcsort {
namespace {

using delta::DmlCommand;
using delta::DmlCompareOp;
using delta::DmlOp;
using delta::DmlOutcome;
using delta::DmlValue;

ServiceOptions TestOptions() {
  ServiceOptions options;
  options.threads = 1;
  options.rho = 0;  // exhaustive search: same plan every time
  options.use_calibration = false;
  return options;
}

// A small table with one dictionary column "s" and numerics "a" / "m".
Table DictTable(size_t n, uint64_t seed) {
  static const std::vector<std::string> kVocab = {
      "apple", "banana", "cherry", "grape", "kiwi", "lemon"};
  Rng rng(seed);
  std::vector<std::string> values(n);
  for (size_t r = 0; r < n; ++r) {
    values[r] = kVocab[rng.NextBounded(kVocab.size())];
  }
  auto dict = std::make_unique<StringDictionary>(StringDictionary::Build(values));
  EncodedColumn s(dict->code_width(), n);
  for (size_t r = 0; r < n; ++r) s.Set(r, dict->Encode(values[r]));
  EncodedColumn a(6, n), m(10, n);
  for (size_t r = 0; r < n; ++r) {
    a.Set(r, rng.NextBounded(20));
    m.Set(r, rng.NextBounded(1000));
  }
  Table table;
  table.AddColumnParts("s", std::move(s), std::move(dict), 0);
  table.AddColumn("a", std::move(a));
  table.AddColumn("m", std::move(m));
  return table;
}

DmlCommand Insert(const std::string& table,
                  std::vector<std::vector<DmlValue>> rows) {
  DmlCommand cmd;
  cmd.op = DmlOp::kInsert;
  cmd.table = table;
  cmd.columns = {"s", "a", "m"};
  cmd.rows = std::move(rows);
  return cmd;
}

DmlCommand Where(DmlOp op, const std::string& table, const std::string& col,
                 DmlCompareOp cmp, DmlValue value) {
  DmlCommand cmd;
  cmd.op = op;
  cmd.table = table;
  cmd.has_predicate = true;
  cmd.predicate.column = col;
  cmd.predicate.op = cmp;
  cmd.predicate.value = std::move(value);
  return cmd;
}

// Decodes column `name` at every oid of `oids` into strings, so sorted
// sequences compare across physically different (re-encoded) tables.
std::vector<std::string> DecodeAt(const Table& table, const std::string& name,
                                  const std::vector<uint32_t>& oids) {
  std::vector<std::string> out;
  out.reserve(oids.size());
  const EncodedColumn& col = table.column(name);
  for (uint32_t oid : oids) {
    const Code code = col.Get(oid);
    if (table.HasDictionary(name)) {
      out.push_back(table.dictionary(name).Decode(code));
    } else {
      out.push_back(std::to_string(table.domain_base(name) +
                                   static_cast<int64_t>(code)));
    }
  }
  return out;
}

// The value-level equality Lemma 1 fixes: group counts, aggregates, and
// the decoded key sequence of every sort/group column — everything except
// raw oids, which renumber across compaction.
void ExpectValueIdentical(const Table& got_table, const QueryResult& got,
                          const Table& want_table, const QueryResult& want,
                          const std::vector<std::string>& key_columns,
                          const std::string& label) {
  EXPECT_EQ(got.input_rows, want.input_rows) << label;
  EXPECT_EQ(got.filtered_rows, want.filtered_rows) << label;
  EXPECT_EQ(got.num_groups, want.num_groups) << label;
  EXPECT_EQ(got.aggregate_values, want.aggregate_values) << label;
  EXPECT_EQ(got.aggregate_avg, want.aggregate_avg) << label;
  ASSERT_EQ(got.result_oids.size(), want.result_oids.size()) << label;
  for (const std::string& column : key_columns) {
    EXPECT_EQ(DecodeAt(got_table, column, got.result_oids),
              DecodeAt(want_table, column, want.result_oids))
        << label << " column " << column;
  }
}

// ---------------------------------------------------------------------------
// DeltaStore unit
// ---------------------------------------------------------------------------

TEST(DeltaStoreTest, RowsTombstonesAndOverflow) {
  delta::DeltaStore store(2);
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.AppendRow({1, 2}), 0u);
  EXPECT_EQ(store.AppendRow({3, 4}), 1u);
  EXPECT_EQ(store.live_rows(), 2u);

  EXPECT_TRUE(store.TombstoneDelta(0));
  EXPECT_FALSE(store.TombstoneDelta(0));  // idempotent
  EXPECT_TRUE(store.row_dead(0));
  EXPECT_EQ(store.live_rows(), 1u);

  EXPECT_TRUE(store.TombstoneBase(7));
  EXPECT_FALSE(store.TombstoneBase(7));
  EXPECT_TRUE(store.base_dead(7));
  EXPECT_FALSE(store.base_dead(8));
  EXPECT_EQ(store.base_tombstones().size(), 1u);

  // Overflow interning deduplicates and offsets by the dictionary size.
  const int64_t id = store.InternOverflow(0, "zebra", /*dict_size=*/10);
  EXPECT_EQ(id, 10);
  EXPECT_EQ(store.InternOverflow(0, "zebra", 10), 10);
  EXPECT_EQ(store.InternOverflow(0, "yak", 10), 11);
  EXPECT_EQ(store.FindOverflow(0, "zebra", 10), 10);
  EXPECT_EQ(store.FindOverflow(0, "absent", 10), -1);
  EXPECT_EQ(store.overflow_size(0), 2u);
  EXPECT_FALSE(store.empty());
  EXPECT_GT(store.mutation_seq(), 0u);
}

// ---------------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------------

TEST(DmlCodecTest, RoundTrip) {
  DmlCommand cmd;
  cmd.op = DmlOp::kUpdate;
  cmd.table = "inventory";
  cmd.columns = {"s", "m"};
  cmd.rows = {{DmlValue::String("quince"), DmlValue::Int(-17)}};
  cmd.has_predicate = true;
  cmd.predicate.column = "a";
  cmd.predicate.op = DmlCompareOp::kGe;
  cmd.predicate.value = DmlValue::Int(12);

  DmlCommand decoded;
  ASSERT_TRUE(net::DecodeDml(net::EncodeDml(cmd), &decoded));
  EXPECT_EQ(decoded.op, cmd.op);
  EXPECT_EQ(decoded.table, cmd.table);
  EXPECT_EQ(decoded.columns, cmd.columns);
  ASSERT_EQ(decoded.rows.size(), 1u);
  EXPECT_TRUE(decoded.rows[0][0].is_string);
  EXPECT_EQ(decoded.rows[0][0].str, "quince");
  EXPECT_EQ(decoded.rows[0][1].i64, -17);
  ASSERT_TRUE(decoded.has_predicate);
  EXPECT_EQ(decoded.predicate.column, "a");
  EXPECT_EQ(decoded.predicate.op, DmlCompareOp::kGe);
  EXPECT_EQ(decoded.predicate.value.i64, 12);
}

TEST(DmlCodecTest, RejectsMalformedPayloads) {
  DmlCommand cmd = Insert("t", {{DmlValue::Int(1), DmlValue::Int(2),
                                 DmlValue::Int(3)}});
  const std::string good = net::EncodeDml(cmd);
  DmlCommand decoded;
  ASSERT_TRUE(net::DecodeDml(good, &decoded));

  // Truncation anywhere must fail, never read past the end.
  for (size_t cut = 0; cut < good.size(); ++cut) {
    EXPECT_FALSE(net::DecodeDml(good.substr(0, cut), &decoded))
        << "cut at " << cut;
  }
  // Trailing garbage violates the strict AtEnd contract.
  EXPECT_FALSE(net::DecodeDml(good + "x", &decoded));
  // Bad opcode.
  std::string bad = good;
  bad[0] = 77;
  EXPECT_FALSE(net::DecodeDml(bad, &decoded));
  EXPECT_FALSE(net::DecodeDml(std::string(), &decoded));
}

TEST(DmlCodecTest, ReplyRoundTripAndValidation) {
  net::DmlReply reply;
  reply.ok = false;
  reply.status_code = static_cast<uint8_t>(StatusCode::kInvalidArgument);
  reply.detail = "bad column list";
  reply.rows_affected = 3;
  reply.rows_rejected = 1;
  reply.delta_rows = 4;
  reply.epoch = 2;
  delta::DmlRowError row_error;
  row_error.row = 9;
  row_error.code = StatusCode::kInvalidArgument;
  row_error.detail = "arity";
  reply.row_errors.push_back(row_error);

  net::DmlReply decoded;
  ASSERT_TRUE(net::DecodeDmlReply(net::EncodeDmlReply(reply), &decoded));
  EXPECT_EQ(decoded.ok, reply.ok);
  EXPECT_EQ(decoded.status_code, reply.status_code);
  EXPECT_EQ(decoded.detail, reply.detail);
  EXPECT_EQ(decoded.rows_affected, reply.rows_affected);
  EXPECT_EQ(decoded.rows_rejected, reply.rows_rejected);
  ASSERT_EQ(decoded.row_errors.size(), 1u);
  EXPECT_EQ(decoded.row_errors[0].row, 9u);
  EXPECT_EQ(decoded.row_errors[0].detail, "arity");

  // An out-of-range status code must not decode.
  reply.status_code = 200;
  EXPECT_FALSE(net::DecodeDmlReply(net::EncodeDmlReply(reply), &decoded));
}

// ---------------------------------------------------------------------------
// Service integration
// ---------------------------------------------------------------------------

TEST(DeltaServiceTest, InsertsVisibleAtNextScan) {
  QueryService service(TestOptions());
  service.AdoptTable("t", DictTable(256, 11));
  const uint64_t before = service.FindTableShared("t")->row_count();

  DmlOutcome out = service.ApplyDml(Insert(
      "t", {{DmlValue::String("apple"), DmlValue::Int(3), DmlValue::Int(40)},
            {DmlValue::String("zebra"), DmlValue::Int(5), DmlValue::Int(41)}}));
  ASSERT_TRUE(out.ok()) << out.status.ToString();
  EXPECT_EQ(out.rows_affected, 2u);
  EXPECT_EQ(out.delta_rows, 2u);

  const std::shared_ptr<const Table> merged = service.FindTableShared("t");
  EXPECT_EQ(merged->row_count(), before + 2);
  // "zebra" is outside the base dictionary: visible through the merged
  // image's grown dictionary before any compaction ran.
  ASSERT_TRUE(merged->HasDictionary("s"));
  const auto& values = merged->dictionary("s").values();
  EXPECT_NE(std::find(values.begin(), values.end(), "zebra"), values.end());

  const QueryService::DeltaInfo info = service.GetDeltaInfo("t");
  EXPECT_TRUE(info.has_version);
  EXPECT_EQ(info.delta_rows, 2u);
  EXPECT_EQ(info.live_rows, before + 2);
}

TEST(DeltaServiceTest, TypedRowAndOpErrors) {
  QueryService service(TestOptions());
  service.AdoptTable("t", DictTable(64, 5));

  // Unknown table: op-level kNotFound, nothing applied.
  DmlOutcome out = service.ApplyDml(Insert("nope", {}));
  EXPECT_EQ(out.status.code, StatusCode::kNotFound);

  // Partial column list: op-level kInvalidArgument.
  DmlCommand partial;
  partial.op = DmlOp::kInsert;
  partial.table = "t";
  partial.columns = {"s", "a"};
  partial.rows = {{DmlValue::String("apple"), DmlValue::Int(1)}};
  out = service.ApplyDml(partial);
  EXPECT_EQ(out.status.code, StatusCode::kInvalidArgument);
  EXPECT_EQ(service.GetDeltaInfo("t").delta_rows, 0u);

  // Row-level: wrong arity and a string into a numeric column are rejected
  // per row; the good row in the same command still lands.
  DmlCommand mixed = Insert(
      "t", {{DmlValue::String("apple"), DmlValue::Int(1)},  // arity 2 != 3
            {DmlValue::String("apple"), DmlValue::String("NaN"),
             DmlValue::Int(2)},  // type mismatch on "a"
            {DmlValue::String("banana"), DmlValue::Int(2), DmlValue::Int(3)}});
  out = service.ApplyDml(mixed);
  ASSERT_TRUE(out.ok()) << out.status.ToString();
  EXPECT_EQ(out.rows_affected, 1u);
  EXPECT_EQ(out.rows_rejected, 2u);
  ASSERT_EQ(out.row_errors.size(), 2u);
  EXPECT_EQ(out.row_errors[0].row, 0u);
  EXPECT_EQ(out.row_errors[0].code, StatusCode::kInvalidArgument);
  EXPECT_EQ(out.row_errors[1].row, 1u);

  // DELETE requires a predicate.
  DmlCommand bare;
  bare.op = DmlOp::kDelete;
  bare.table = "t";
  out = service.ApplyDml(bare);
  EXPECT_EQ(out.status.code, StatusCode::kInvalidArgument);
}

TEST(DeltaServiceTest, DeleteAndUpdateSemantics) {
  QueryService service(TestOptions());
  Table table = DictTable(128, 21);
  const size_t base_rows = table.row_count();
  service.AdoptTable("t", std::move(table));

  // Insert two rows, then delete every row with a == 3 (base and delta).
  ASSERT_TRUE(service
                  .ApplyDml(Insert("t", {{DmlValue::String("kiwi"),
                                          DmlValue::Int(3), DmlValue::Int(7)},
                                         {DmlValue::String("kiwi"),
                                          DmlValue::Int(4), DmlValue::Int(8)}}))
                  .ok());
  std::shared_ptr<const Table> merged = service.FindTableShared("t");
  size_t expect_a3 = 0;
  const EncodedColumn& a = merged->column("a");
  for (size_t r = 0; r < merged->row_count(); ++r) {
    if (merged->domain_base("a") + static_cast<int64_t>(a.Get(r)) == 3) {
      ++expect_a3;
    }
  }
  ASSERT_GT(expect_a3, 0u);

  DmlOutcome out = service.ApplyDml(
      Where(DmlOp::kDelete, "t", "a", DmlCompareOp::kEq, DmlValue::Int(3)));
  ASSERT_TRUE(out.ok()) << out.status.ToString();
  EXPECT_EQ(out.rows_affected, expect_a3);
  EXPECT_EQ(service.FindTableShared("t")->row_count(),
            base_rows + 2 - expect_a3);

  // Deleting the same rows again matches nothing.
  out = service.ApplyDml(
      Where(DmlOp::kDelete, "t", "a", DmlCompareOp::kEq, DmlValue::Int(3)));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.rows_affected, 0u);

  // UPDATE rewrites every a == 4 row's "s" to an overflow string; the row
  // count is unchanged and the new value is visible.
  DmlCommand update =
      Where(DmlOp::kUpdate, "t", "a", DmlCompareOp::kEq, DmlValue::Int(4));
  update.columns = {"s"};
  update.rows = {{DmlValue::String("zzz-updated")}};
  out = service.ApplyDml(update);
  ASSERT_TRUE(out.ok()) << out.status.ToString();
  ASSERT_GT(out.rows_affected, 0u);
  merged = service.FindTableShared("t");
  EXPECT_EQ(merged->row_count(), base_rows + 2 - expect_a3);
  size_t updated = 0;
  const EncodedColumn& s = merged->column("s");
  const EncodedColumn& a2 = merged->column("a");
  for (size_t r = 0; r < merged->row_count(); ++r) {
    if (merged->dictionary("s").Decode(s.Get(r)) == "zzz-updated") {
      ++updated;
      EXPECT_EQ(merged->domain_base("a") + static_cast<int64_t>(a2.Get(r)), 4);
    }
  }
  EXPECT_EQ(updated, out.rows_affected);
}

// The acceptance contract: query results against base+delta are
// value-identical to results after compaction folded the delta — for
// sorts, group scans, and aggregates, including rows whose strings grew
// the dictionary through the overflow route.
TEST(DeltaServiceTest, MergeScanMatchesPostCompaction) {
  QueryService service(TestOptions());
  service.AdoptTable("t", DictTable(512, 33));

  // A write mix that exercises every delta feature: dictionary hits, two
  // overflow strings (one sorting before "apple", one after "lemon"),
  // below-base numerics are avoided but duplicates and deletes are not.
  Rng rng(77);
  std::vector<std::vector<DmlValue>> rows;
  static const char* kNew[] = {"aardvark", "mulberry", "banana", "grape"};
  for (int r = 0; r < 64; ++r) {
    rows.push_back({DmlValue::String(kNew[rng.NextBounded(4)]),
                    DmlValue::Int(static_cast<int64_t>(rng.NextBounded(20))),
                    DmlValue::Int(static_cast<int64_t>(rng.NextBounded(1000)))});
  }
  ASSERT_TRUE(service.ApplyDml(Insert("t", rows)).ok());
  ASSERT_TRUE(
      service
          .ApplyDml(Where(DmlOp::kDelete, "t", "a", DmlCompareOp::kLt,
                          DmlValue::Int(2)))
          .ok());
  DmlCommand update =
      Where(DmlOp::kUpdate, "t", "a", DmlCompareOp::kEq, DmlValue::Int(9));
  update.columns = {"m"};
  update.rows = {{DmlValue::Int(555)}};
  ASSERT_TRUE(service.ApplyDml(update).ok());

  const std::vector<QuerySpec> specs = {
      QuerySpecBuilder("groups").GroupBy({"s", "a"}).Sum("m").Count().Build(),
      QuerySpecBuilder("sort")
          .OrderBy("s")
          .OrderBy("a", SortOrder::kDescending)
          .OrderBy("m")
          .Build(),
      QuerySpecBuilder("filtered")
          .Filter("a", CompareOp::kLess, 10)
          .GroupBy({"s"})
          .Sum("m")
          .Aggregate(AggOp::kAvg, "m")
          .Build(),
  };
  const std::vector<std::vector<std::string>> keys = {
      {"s", "a"}, {"s", "a", "m"}, {"s"}};

  const std::shared_ptr<const Table> before = service.FindTableShared("t");
  std::vector<QueryResult> results_before;
  for (const QuerySpec& spec : specs) {
    auto session = service.OpenSession(*before);
    const ExecResult run = session->Execute(spec, ExecContext::Default());
    ASSERT_TRUE(run.ok()) << run.status.detail;
    results_before.push_back(run.result);
  }

  ASSERT_TRUE(service.CompactTable("t"));
  EXPECT_EQ(service.GetDeltaInfo("t").delta_rows, 0u);
  EXPECT_GE(service.GetDeltaInfo("t").epoch, 1u);

  const std::shared_ptr<const Table> after = service.FindTableShared("t");
  ASSERT_NE(before.get(), after.get());
  EXPECT_EQ(before->row_count(), after->row_count());
  // The overflow strings are now first-class dictionary members.
  const auto& dict = after->dictionary("s").values();
  EXPECT_NE(std::find(dict.begin(), dict.end(), "aardvark"), dict.end());
  EXPECT_NE(std::find(dict.begin(), dict.end(), "mulberry"), dict.end());

  for (size_t i = 0; i < specs.size(); ++i) {
    auto session = service.OpenSession(*after);
    const ExecResult run = session->Execute(specs[i], ExecContext::Default());
    ASSERT_TRUE(run.ok()) << run.status.detail;
    ExpectValueIdentical(*after, run.result, *before, results_before[i],
                         keys[i], specs[i].id);
  }

  // An empty delta has nothing to compact.
  EXPECT_FALSE(service.CompactTable("t"));
}

// Readers never block on (or observe) a concurrent compaction: a snapshot
// pinned before the publish answers bit-identically after it.
TEST(DeltaServiceTest, PinnedEpochSurvivesCompaction) {
  QueryService service(TestOptions());
  service.AdoptTable("t", DictTable(256, 44));
  ASSERT_TRUE(service
                  .ApplyDml(Insert("t", {{DmlValue::String("quince"),
                                          DmlValue::Int(7), DmlValue::Int(9)}}))
                  .ok());

  const QuerySpec spec =
      QuerySpecBuilder("pinned").GroupBy({"s", "a"}).Sum("m").Count().Build();
  const std::shared_ptr<const Table> pinned = service.FindTableShared("t");
  auto session = service.OpenSession(*pinned);
  const ExecResult before = session->Execute(spec, ExecContext::Default());
  ASSERT_TRUE(before.ok());

  ASSERT_TRUE(service.CompactTable("t"));
  // More writes land in the NEW epoch while the old one stays pinned.
  ASSERT_TRUE(service
                  .ApplyDml(Insert("t", {{DmlValue::String("apple"),
                                          DmlValue::Int(1), DmlValue::Int(2)}}))
                  .ok());

  // threads=1 + rho=0: the rerun on the same physical table must be
  // bit-identical, raw oids included.
  auto session2 = service.OpenSession(*pinned);
  const ExecResult after = session2->Execute(spec, ExecContext::Default());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.result.num_groups, before.result.num_groups);
  EXPECT_EQ(after.result.aggregate_values, before.result.aggregate_values);
  EXPECT_EQ(after.result.result_oids, before.result.result_oids);
  EXPECT_EQ(after.result.result_group_order, before.result.result_group_order);

  // The live binding moved on.
  EXPECT_EQ(service.FindTableShared("t")->row_count(),
            pinned->row_count() + 1);
}

// Compaction must survive writes racing the heavy phase: rows and
// tombstones that arrive between BeginCompaction and Publish land in the
// post-publish delta and stay queryable.
TEST(DeltaServiceTest, WritesDuringCompactionSurvivePublish) {
  Table base = DictTable(128, 55);
  auto shared = std::make_shared<Table>(std::move(base));
  delta::TableVersion version(shared);

  DmlCommand pre = Insert("", {{DmlValue::String("walnut"), DmlValue::Int(3),
                                DmlValue::Int(30)}});
  pre.columns = {"s", "a", "m"};
  ASSERT_TRUE(version.Apply(pre).ok());

  delta::TableVersion::CompactionJob job = version.BeginCompaction();
  ASSERT_FALSE(job.snap.empty());
  delta::MergedTable merged = delta::BuildMergedTable(job.base, job.snap);

  // Tail writes while the "heavy phase" runs.
  DmlCommand tail = Insert("", {{DmlValue::String("xigua"), DmlValue::Int(5),
                                 DmlValue::Int(50)}});
  ASSERT_TRUE(version.Apply(tail).ok());
  ASSERT_TRUE(version
                  .Apply(Where(DmlOp::kDelete, "", "a", DmlCompareOp::kEq,
                               DmlValue::Int(3)))
                  .ok());
  const uint64_t live_before = version.live_rows();

  ASSERT_TRUE(version.Publish(job, std::move(merged)));
  EXPECT_EQ(version.live_rows(), live_before);
  EXPECT_EQ(version.epoch(), 1u);

  // The tail row is still visible and the deleted rows are still gone.
  const std::shared_ptr<const Table> image = version.Snapshot();
  EXPECT_EQ(image->row_count(), live_before);
  bool saw_tail = false;
  const EncodedColumn& s = image->column("s");
  const EncodedColumn& a = image->column("a");
  for (size_t r = 0; r < image->row_count(); ++r) {
    const std::string value = image->dictionary("s").Decode(s.Get(r));
    if (value == "xigua") saw_tail = true;
    EXPECT_NE(image->domain_base("a") + static_cast<int64_t>(a.Get(r)), 3)
        << "deleted row leaked at " << r;
  }
  EXPECT_TRUE(saw_tail);
  const auto& values = image->dictionary("s").values();
  EXPECT_NE(std::find(values.begin(), values.end(), "walnut"), values.end())
      << "pre-snapshot row lost";
}

// ---------------------------------------------------------------------------
// Merged-image oracle
// ---------------------------------------------------------------------------

// A table whose widths are the tightest its values allow, so an image
// keeps them unless the delta changes the live range: "s" (6 strings,
// 3 bits), "a" (0..19, 5 bits), and "m" (domain-encoded natives
// 100..1099, 10 bits).
Table TightTable(size_t n, uint64_t seed) {
  Table table = DictTable(n, seed);
  Rng rng(seed + 1);
  EncodedColumn a(5, n), m(10, n);
  for (size_t r = 0; r < n; ++r) {
    a.Set(r, rng.NextBounded(20));
    m.Set(r, rng.NextBounded(1000));
  }
  a.Set(0, 19);
  m.Set(0, 999);
  const EncodedColumn& s_codes = table.column("s");
  EncodedColumn s(s_codes.width(), n);
  for (size_t r = 0; r < n; ++r) s.Set(r, s_codes.Get(r));
  Table tight;
  tight.AddColumnParts(
      "s", std::move(s),
      std::make_unique<StringDictionary>(
          StringDictionary::FromSorted(table.dictionary("s").values())),
      0);
  tight.AddColumn("a", std::move(a));
  tight.AddColumnParts("m", std::move(m), nullptr, /*domain_base=*/100);
  return tight;
}

DmlCommand InsertRow(const std::string& s, int64_t a, int64_t m) {
  return Insert("", {{DmlValue::String(s), DmlValue::Int(a), DmlValue::Int(m)}});
}

using DecodedRow = std::vector<std::string>;

DecodedRow RowAt(const Table& table, size_t oid) {
  DecodedRow row;
  for (const std::string& name : table.column_names()) {
    const Code code = table.column(name).Get(oid);
    row.push_back(table.HasDictionary(name)
                      ? table.dictionary(name).Decode(code)
                      : std::to_string(table.domain_base(name) +
                                       static_cast<int64_t>(code)));
  }
  return row;
}

// The rows an image of `base` + `snap` holds, worked out row by row from
// the base's codes and the delta's stored values: live base rows in oid
// order, then live delta rows in arrival order.
std::vector<DecodedRow> ReferenceRows(const Table& base,
                                      const delta::DeltaSnapshot& snap) {
  const std::unordered_set<uint32_t> dead(snap.base_tombstones.begin(),
                                          snap.base_tombstones.end());
  std::vector<DecodedRow> rows;
  for (size_t oid = 0; oid < base.row_count(); ++oid) {
    if (dead.count(static_cast<uint32_t>(oid)) == 0) {
      rows.push_back(RowAt(base, oid));
    }
  }
  const std::vector<std::string>& names = base.column_names();
  for (size_t r = 0; r < snap.rows.size(); ++r) {
    if (snap.row_dead[r]) continue;
    DecodedRow row;
    for (size_t c = 0; c < names.size(); ++c) {
      const int64_t stored = snap.rows[r][c];
      if (!base.HasDictionary(names[c])) {
        row.push_back(std::to_string(stored));
        continue;
      }
      const StringDictionary& dict = base.dictionary(names[c]);
      const size_t id = static_cast<size_t>(stored);
      row.push_back(id < dict.size() ? dict.Decode(id)
                                     : snap.overflow[c][id - dict.size()]);
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

void ExpectSameStats(const ColumnStatsImage& got, const ColumnStatsImage& want,
                     const std::string& label) {
  EXPECT_EQ(got.row_count, want.row_count) << label;
  EXPECT_EQ(got.distinct_count, want.distinct_count) << label;
  EXPECT_EQ(got.min_code, want.min_code) << label;
  EXPECT_EQ(got.max_code, want.max_code) << label;
  EXPECT_EQ(got.width, want.width) << label;
  EXPECT_EQ(got.hist_bits, want.hist_bits) << label;
  EXPECT_EQ(got.bucket_rows, want.bucket_rows) << label;
  EXPECT_EQ(got.bucket_distinct, want.bucket_distinct) << label;
}

// Builds the image of `version`'s delta the way Snapshot() does, with the
// base's layouts warm, and checks it against the oracle: every row's
// values; the tightest encoding (sorted-union dictionary, lowest domain
// base, narrowest width); exactly the `derived` columns deriving their
// layouts from the base; and every layout equal, byte for byte, to a
// fresh build from the image's codes.
void CheckMergedImage(delta::TableVersion& version,
                      const std::set<std::string>& derived,
                      const std::string& label) {
  const delta::TableVersion::CompactionJob job = version.BeginCompaction();
  const Table& base = *job.base;
  for (const std::string& name : base.column_names()) {
    base.stats(name);
    base.byteslice(name);
  }
  const delta::MergedTable merged = delta::BuildMergedTable(job.base, job.snap);
  const Table& image = *merged.table;
  const std::vector<DecodedRow> want = ReferenceRows(base, job.snap);
  ASSERT_EQ(image.row_count(), want.size()) << label;
  for (size_t oid = 0; oid < want.size(); ++oid) {
    ASSERT_EQ(RowAt(image, oid), want[oid]) << label << " row " << oid;
  }

  const std::vector<std::string>& names = base.column_names();
  for (size_t c = 0; c < names.size(); ++c) {
    const std::string& name = names[c];
    const std::string where = label + " column " + name;
    const EncodedColumn& codes = image.column(name);
    if (base.HasDictionary(name)) {
      std::set<std::string> values(base.dictionary(name).values().begin(),
                                   base.dictionary(name).values().end());
      values.insert(job.snap.overflow[c].begin(), job.snap.overflow[c].end());
      EXPECT_EQ(image.dictionary(name).values(),
                std::vector<std::string>(values.begin(), values.end()))
          << where;
      EXPECT_EQ(codes.width(), std::max(1, BitsForCount(values.size())))
          << where;
    } else {
      int64_t low = base.domain_base(name), high = low;
      for (const DecodedRow& row : want) {
        high = std::max<int64_t>(high, std::stoll(row[c]));
      }
      for (size_t r = 0; r < job.snap.rows.size(); ++r) {
        if (!job.snap.row_dead[r]) low = std::min(low, job.snap.rows[r][c]);
      }
      EXPECT_EQ(image.domain_base(name), low) << where;
      EXPECT_EQ(codes.width(),
                std::max(1, BitsForValue(static_cast<uint64_t>(high - low))))
          << where;
    }

    EXPECT_EQ(image.derives_layouts(name), derived.count(name) != 0) << where;
    const ByteSliceColumn& bs = image.byteslice(name);
    const ByteSliceColumn fresh = ByteSliceColumn::Build(codes);
    ASSERT_EQ(bs.width(), fresh.width()) << where;
    ASSERT_EQ(bs.size(), fresh.size()) << where;
    ASSERT_EQ(bs.num_slices(), fresh.num_slices()) << where;
    for (int j = 0; j < bs.num_slices(); ++j) {
      EXPECT_EQ(std::memcmp(bs.slice(j), fresh.slice(j),
                            ByteSliceColumn::slice_bytes(codes.size())),
                0)
          << where << " slice " << j;
    }
    ExpectSameStats(image.stats(name).ToImage(),
                    ColumnStats::Build(codes).ToImage(), where);
  }
}

DmlCommand WithSet(DmlCommand cmd, const std::string& column, DmlValue value) {
  cmd.columns = {column};
  cmd.rows = {{std::move(value)}};
  return cmd;
}

TEST(MergedImageTest, InsertsOnly) {
  delta::TableVersion version(std::make_shared<Table>(TightTable(4096, 1)));
  Rng rng(2);
  static const char* kVocab[] = {"apple", "banana", "kiwi", "lemon"};
  for (int r = 0; r < 40; ++r) {
    ASSERT_TRUE(version
                    .Apply(InsertRow(kVocab[rng.NextBounded(4)],
                                     static_cast<int64_t>(rng.NextBounded(20)),
                                     100 + static_cast<int64_t>(
                                               rng.NextBounded(1000))))
                    .ok());
  }
  CheckMergedImage(version, {"s", "a", "m"}, "inserts");
}

TEST(MergedImageTest, BaseAndDeltaDeletesAndUpdate) {
  delta::TableVersion version(std::make_shared<Table>(TightTable(4096, 3)));
  for (int r = 0; r < 30; ++r) {
    ASSERT_TRUE(version.Apply(InsertRow("grape", r % 20, 150 + 30 * r)).ok());
  }
  // Hits base rows and delta rows alike.
  ASSERT_TRUE(version
                  .Apply(Where(DmlOp::kDelete, "", "m", DmlCompareOp::kLt,
                               DmlValue::Int(300)))
                  .ok());
  ASSERT_TRUE(version
                  .Apply(WithSet(Where(DmlOp::kUpdate, "", "m", DmlCompareOp::kGe,
                                   DmlValue::Int(1000)),
                             "a", DmlValue::Int(7)))
                  .ok());
  CheckMergedImage(version, {"s", "a", "m"}, "deletes+update");
}

TEST(MergedImageTest, OverflowStringGrowsDictionary) {
  delta::TableVersion version(std::make_shared<Table>(TightTable(4096, 5)));
  ASSERT_TRUE(version.Apply(InsertRow("aardvark", 3, 400)).ok());
  ASSERT_TRUE(version.Apply(InsertRow("zucchini", 4, 500)).ok());
  ASSERT_TRUE(version
                  .Apply(Where(DmlOp::kDelete, "", "s", DmlCompareOp::kEq,
                               DmlValue::String("kiwi")))
                  .ok());
  // Two new strings: every base code of "s" shifts, so it re-encodes.
  CheckMergedImage(version, {"a", "m"}, "overflow");
}

TEST(MergedImageTest, NativeBelowDomainBase) {
  delta::TableVersion version(std::make_shared<Table>(TightTable(4096, 7)));
  ASSERT_TRUE(version.Apply(InsertRow("apple", 2, 40)).ok());
  ASSERT_TRUE(version
                  .Apply(Where(DmlOp::kDelete, "", "a", DmlCompareOp::kEq,
                               DmlValue::Int(2)))
                  .ok());
  ASSERT_TRUE(version.Apply(InsertRow("lemon", 2, 60)).ok());
  // "m"'s domain base drops from 100 to 60: every base code shifts by 40.
  CheckMergedImage(version, {"s", "a"}, "below base");
}

TEST(MergedImageTest, WidthTightensAfterDeletes) {
  delta::TableVersion version(std::make_shared<Table>(TightTable(4096, 9)));
  ASSERT_TRUE(version.Apply(InsertRow("kiwi", 17, 700)).ok());
  ASSERT_TRUE(version
                  .Apply(Where(DmlOp::kDelete, "", "a", DmlCompareOp::kGe,
                               DmlValue::Int(16)))
                  .ok());
  // "a" keeps its codes but narrows from 5 to 4 bits, so its layouts are
  // built, not derived.
  CheckMergedImage(version, {"s", "m"}, "tightened");
}

TEST(MergedImageTest, MmapBaseWithViewColumns) {
  const std::string dir =
      ::testing::TempDir() + "/delta_test_mmap_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(TightTable(4096, 11).SaveSnapshot(dir).ok());
  SnapshotLoadOptions load;
  load.mode = SnapshotLoadMode::kMmap;
  auto base = std::make_shared<Table>();
  ASSERT_TRUE(Table::LoadSnapshot(dir, load, base.get()).ok());
  ASSERT_TRUE(base->column("a").is_view());
  {
    delta::TableVersion version(base);
    base.reset();
    ASSERT_TRUE(version.Apply(InsertRow("banana", 12, 1099)).ok());
    ASSERT_TRUE(version
                    .Apply(Where(DmlOp::kDelete, "", "m", DmlCompareOp::kGt,
                                 DmlValue::Int(1050)))
                    .ok());
    ASSERT_TRUE(version.Apply(InsertRow("cherry", 19, 1099)).ok());
    CheckMergedImage(version, {"s", "a", "m"}, "mmap");
  }
  std::filesystem::remove_all(dir);
}

TEST(MergedImageTest, EveryBaseRowDeleted) {
  delta::TableVersion version(std::make_shared<Table>(TightTable(4096, 13)));
  ASSERT_TRUE(version
                  .Apply(Where(DmlOp::kDelete, "", "a", DmlCompareOp::kGe,
                               DmlValue::Int(0)))
                  .ok());
  ASSERT_TRUE(version.Apply(InsertRow("apple", 19, 1099)).ok());
  ASSERT_TRUE(version.Apply(InsertRow("lemon", 0, 100)).ok());
  ASSERT_TRUE(version.Apply(InsertRow("grape", 5, 500)).ok());
  CheckMergedImage(version, {"s", "a", "m"}, "all base rows deleted");
}

// DELETE and UPDATE count only the rows they change: a predicate that also
// matches tombstoned base rows and dead delta rows must not count them.
TEST(DeltaServiceTest, DmlCountsOnlyLiveRows) {
  const auto base = std::make_shared<Table>(TightTable(4096, 15));
  std::vector<size_t> base_a(20, 0);
  for (size_t r = 0; r < base->row_count(); ++r) {
    ++base_a[base->column("a").Get(r)];
  }
  delta::TableVersion version(base);
  for (int r = 0; r < 3; ++r) {
    ASSERT_TRUE(version.Apply(InsertRow("kiwi", 5, 200)).ok());
  }
  DmlOutcome out = version.Apply(
      Where(DmlOp::kDelete, "", "a", DmlCompareOp::kEq, DmlValue::Int(5)));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.rows_affected, base_a[5] + 3);

  // a <= 5 also matches the base and delta rows deleted above.
  ASSERT_TRUE(version.Apply(InsertRow("kiwi", 5, 200)).ok());
  out = version.Apply(
      Where(DmlOp::kDelete, "", "a", DmlCompareOp::kLe, DmlValue::Int(5)));
  ASSERT_TRUE(out.ok());
  size_t below5 = 0;
  for (int a = 0; a < 5; ++a) below5 += base_a[static_cast<size_t>(a)];
  EXPECT_EQ(out.rows_affected, below5 + 1);

  // a <= 6 matches only dead rows besides the a == 6 ones; each UPDATE
  // moves the live matches into the delta and tombstones their old copy.
  for (int round = 0; round < 2; ++round) {
    out = version.Apply(WithSet(
        Where(DmlOp::kUpdate, "", "a", DmlCompareOp::kLe, DmlValue::Int(6)),
        "m", DmlValue::Int(300 + round)));
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.rows_affected, base_a[6]) << "round " << round;
  }
  EXPECT_EQ(version.live_rows(),
            base->row_count() - base_a[5] - below5);
}

// The code-side DELETE match agrees with comparing decoded values, for
// every operator, on a dictionary and a domain-encoded column, with
// literals present, absent, and outside the column's range.
TEST(DeltaServiceTest, DeleteMatchesDecodedPredicate) {
  const auto base = std::make_shared<Table>(TightTable(2048, 17));
  const std::vector<DmlCompareOp> ops = {
      DmlCompareOp::kEq, DmlCompareOp::kNe, DmlCompareOp::kLt,
      DmlCompareOp::kLe, DmlCompareOp::kGt, DmlCompareOp::kGe};
  const auto holds = [](DmlCompareOp op, auto x, auto y) {
    switch (op) {
      case DmlCompareOp::kEq: return x == y;
      case DmlCompareOp::kNe: return x != y;
      case DmlCompareOp::kLt: return x < y;
      case DmlCompareOp::kLe: return x <= y;
      case DmlCompareOp::kGt: return x > y;
      case DmlCompareOp::kGe: return x >= y;
    }
    return false;
  };
  for (const DmlCompareOp op : ops) {
    for (const char* literal : {"aaa", "apple", "blueberry", "lemon", "zzz"}) {
      size_t want = 0;
      for (size_t r = 0; r < base->row_count(); ++r) {
        want += holds(op, RowAt(*base, r)[0], std::string(literal)) ? 1 : 0;
      }
      delta::TableVersion version(base);
      const DmlOutcome out = version.Apply(
          Where(DmlOp::kDelete, "", "s", op, DmlValue::String(literal)));
      ASSERT_TRUE(out.ok());
      EXPECT_EQ(out.rows_affected, want)
          << "s op " << static_cast<int>(op) << " " << literal;
    }
    for (const int64_t literal : {-5, 99, 100, 600, 1099, 1100}) {
      size_t want = 0;
      for (size_t r = 0; r < base->row_count(); ++r) {
        want += holds(op, int64_t{std::stoll(RowAt(*base, r)[2])}, literal) ? 1
                                                                         : 0;
      }
      delta::TableVersion version(base);
      const DmlOutcome out = version.Apply(
          Where(DmlOp::kDelete, "", "m", op, DmlValue::Int(literal)));
      ASSERT_TRUE(out.ok());
      EXPECT_EQ(out.rows_affected, want)
          << "m op " << static_cast<int>(op) << " " << literal;
    }
  }
}

// A compacted base records its predecessor only weakly: once no reader
// holds an image, the retired base is freed, not kept alive by the chain.
TEST(DeltaServiceTest, CompactedBaseDoesNotPinPredecessor) {
  QueryService service(TestOptions());
  service.AdoptTable("t", TightTable(4096, 19));
  std::weak_ptr<const Table> old_base;
  {
    const std::shared_ptr<const Table> base = service.FindTableShared("t");
    base->stats("a");
    base->byteslice("a");
    old_base = base;
  }
  DmlCommand insert = InsertRow("kiwi", 4, 400);
  insert.table = "t";
  ASSERT_TRUE(service.ApplyDml(insert).ok());
  std::shared_ptr<const Table> image = service.FindTableShared("t");
  ASSERT_TRUE(image->derives_layouts("a"));
  image->stats("a");
  image->byteslice("a");

  ASSERT_TRUE(service.CompactTable("t"));
  ASSERT_TRUE(service.ApplyDml(insert).ok());
  std::shared_ptr<const Table> next = service.FindTableShared("t");
  next->stats("a");
  EXPECT_EQ(next->row_count(), image->row_count() + 1);
  image.reset();
  EXPECT_TRUE(old_base.expired());
}

// Readers that ask for one mutation_seq at once share one image, built
// once. The table is large enough that the build usually outlasts the
// start barrier, so most readers find it in flight and wait; whether a
// reader waits or finds the landed image depends on scheduling, so the
// test checks the shared result and the build count, not the waiting.
TEST(DeltaServiceTest, ConcurrentSnapshotsShareOneBuild) {
  QueryService service(TestOptions());
  service.AdoptTable("t", TightTable(size_t{1} << 18, 21));
  DmlCommand insert = InsertRow("kiwi", 4, 400);
  insert.table = "t";
  ASSERT_TRUE(service.ApplyDml(insert).ok());

  constexpr int kReaders = 8;
  std::vector<std::shared_ptr<const Table>> got(kReaders);
  std::atomic<int> waiting{kReaders};
  std::vector<std::thread> readers;
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back([&, i] {
      waiting.fetch_sub(1);
      while (waiting.load() > 0) std::this_thread::yield();
      got[static_cast<size_t>(i)] = service.FindTableShared("t");
    });
  }
  for (std::thread& reader : readers) reader.join();
  ASSERT_NE(got[0], nullptr);
  for (int i = 1; i < kReaders; ++i) {
    EXPECT_EQ(got[static_cast<size_t>(i)], got[0]) << "reader " << i;
  }
  EXPECT_EQ(service.GetDeltaInfo("t").snapshot_builds, 1u);
  // A later write makes the next reader build once more.
  ASSERT_TRUE(service.ApplyDml(insert).ok());
  EXPECT_NE(service.FindTableShared("t"), got[0]);
  EXPECT_EQ(service.GetDeltaInfo("t").snapshot_builds, 2u);
}

// ---------------------------------------------------------------------------
// Spill key-width satellite
// ---------------------------------------------------------------------------

// A composite key wider than the external merge's 128-bit cap must fail
// over to degrade-by-narrowing with a TYPED kUnimplemented detail and the
// exec.spill.key_too_wide counter — never a silent degrade.
TEST(SpillKeyWidthTest, OverWideKeyIsTypedNotSilent) {
  const size_t n = 4096;
  Rng rng(66);
  Table table;
  for (const char* name : {"k1", "k2", "k3"}) {
    EncodedColumn col(45, n);
    for (size_t r = 0; r < n; ++r) {
      col.Set(r, rng.NextBounded(uint64_t{1} << 45));
    }
    table.AddColumn(name, std::move(col));
  }

  QueryService service(TestOptions());
  auto session = service.OpenSession(table);
  const QuerySpec spec = QuerySpecBuilder("wide")
                             .OrderBy("k1")
                             .OrderBy("k2")
                             .OrderBy("k3")
                             .Build();
  ExecContext ctx;
  ctx.WithScratchBudget(1024);  // force the over-budget router
  const ExecResult run = session->Execute(spec, ctx);
  EXPECT_TRUE(run.result.spill_key_too_wide);
  EXPECT_EQ(
      service.metrics().counter("exec.spill.key_too_wide")->value(), 1u);
}

}  // namespace
}  // namespace mcsort
