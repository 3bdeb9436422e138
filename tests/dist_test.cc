// Distributed-tier tests: the partitioner's invariants (row conservation,
// __goid round trips, hash determinism, range disjointness), the 128-bit
// OVC loser-tree merge against a reference merge (with the code==0 seam
// property the coordinator's aggregate stitching rides on), merge-key
// serialization consistency with engine sort order, and end-to-end
// scatter-gather over live loopback servers: GROUP BY and ORDER BY answers
// bit-identical to single-node execution under hash and range sharding
// (including shards reloaded from snapshot directories), bounded Cancel
// latency mid-fan-out, replica failover when a shard's primary endpoint is
// dead, per-call deadlines, and the protocol-version handshake reject.
//
// Latency bounds are generous (seconds): the suite must also pass under
// TSan/ASan, where everything runs an order of magnitude slower.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "gtest/gtest.h"
#include "mcsort/common/random.h"
#include "mcsort/dist/coordinator.h"
#include "mcsort/dist/merge.h"
#include "mcsort/dist/merge_keys.h"
#include "mcsort/dist/partition.h"
#include "mcsort/engine/query.h"
#include "mcsort/io/snapshot.h"
#include "mcsort/net/client.h"
#include "mcsort/net/frame_io.h"
#include "mcsort/net/protocol.h"
#include "mcsort/net/server.h"
#include "mcsort/net/wire.h"
#include "mcsort/service/query_service.h"
#include "mcsort/storage/table.h"

namespace mcsort {
namespace dist {
namespace {

Table TestTable(size_t n, uint64_t seed = 7) {
  Rng rng(seed);
  Table table;
  EncodedColumn a(6, n), b(11, n), c(19, n), m(10, n);
  for (size_t r = 0; r < n; ++r) {
    a.Set(r, rng.NextBounded(20));
    b.Set(r, rng.NextBounded(500));
    c.Set(r, rng.NextBounded(100000));
    m.Set(r, rng.NextBounded(1000));
  }
  table.AddColumn("a", std::move(a));
  table.AddColumn("b", std::move(b));
  table.AddColumn("c", std::move(c));
  table.AddColumn("m", std::move(m));
  return table;
}

QuerySpec GroupSpec() {
  return QuerySpecBuilder("dist-group")
      .GroupBy({"a", "b"})
      .Sum("m")
      .Count()
      .Aggregate(AggOp::kAvg, "m")
      .Aggregate(AggOp::kMin, "c")
      .Aggregate(AggOp::kMax, "c")
      .ResultOrder("agg:0", SortOrder::kDescending)
      .Build();
}

QuerySpec OrderSpec() {
  // Near-unique composite key (all four columns) so the merged row order
  // is fully determined.
  return QuerySpecBuilder("dist-order")
      .OrderBy("c")
      .OrderBy("b", SortOrder::kDescending)
      .OrderBy("a")
      .OrderBy("m")
      .Build();
}

// --------------------------------------------------------------------------
// Partitioner
// --------------------------------------------------------------------------

TEST(PartitionTest, HashShardsConserveRowsAndGoids) {
  const size_t kRows = 20'000;
  const Table table = TestTable(kRows);
  PartitionOptions options;
  options.num_shards = 3;
  options.mode = PartitionMode::kHash;
  options.key_column = "b";
  const PartitionResult result = PartitionTable(table, options);
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.shards.size(), 3u);

  size_t total = 0;
  std::vector<int> goid_seen(kRows, 0);
  std::vector<int> shard_of_b(1 << 11, -1);
  for (size_t s = 0; s < result.shards.size(); ++s) {
    const Table& shard = result.shards[s];
    EXPECT_EQ(shard.row_count(), result.shard_rows[s]);
    total += shard.row_count();
    const EncodedColumn& goid = shard.column(kGlobalOidColumn);
    for (size_t r = 0; r < shard.row_count(); ++r) {
      const uint64_t g = goid.Get(r);
      ASSERT_LT(g, kRows);
      ++goid_seen[g];
      // Every column round-trips through the goid back to the source row.
      for (const char* name : {"a", "b", "c", "m"}) {
        EXPECT_EQ(shard.column(name).Get(r), table.column(name).Get(g));
      }
      // Hash sharding on b is deterministic: one b value, one shard.
      const uint64_t bv = shard.column("b").Get(r);
      if (shard_of_b[bv] < 0) {
        shard_of_b[bv] = static_cast<int>(s);
      } else {
        EXPECT_EQ(shard_of_b[bv], static_cast<int>(s));
      }
    }
  }
  EXPECT_EQ(total, kRows);
  for (size_t g = 0; g < kRows; ++g) {
    EXPECT_EQ(goid_seen[g], 1) << "goid " << g;
  }
}

TEST(PartitionTest, RangeShardsAreDisjointAndOrdered) {
  const Table table = TestTable(20'000);
  PartitionOptions options;
  options.num_shards = 4;
  options.mode = PartitionMode::kRange;
  options.key_column = "c";
  const PartitionResult result = PartitionTable(table, options);
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.shards.size(), 4u);

  size_t total = 0;
  uint64_t prev_max = 0;
  bool have_prev = false;
  for (const Table& shard : result.shards) {
    total += shard.row_count();
    if (shard.row_count() == 0) continue;
    const EncodedColumn& c = shard.column("c");
    uint64_t lo = c.Get(0), hi = c.Get(0);
    for (size_t r = 1; r < shard.row_count(); ++r) {
      lo = std::min(lo, c.Get(r));
      hi = std::max(hi, c.Get(r));
    }
    if (have_prev) EXPECT_GT(lo, prev_max);  // disjoint, ascending ranges
    prev_max = hi;
    have_prev = true;
  }
  EXPECT_EQ(total, 20'000u);
}

TEST(PartitionTest, RejectsBadOptions) {
  const Table table = TestTable(100);
  PartitionOptions options;
  options.num_shards = 0;
  EXPECT_FALSE(PartitionTable(table, options).ok);
  options.num_shards = 300;  // > uint8 shard ids
  EXPECT_FALSE(PartitionTable(table, options).ok);
  options.num_shards = 2;
  options.key_column = "nope";
  EXPECT_FALSE(PartitionTable(table, options).ok);

  // A table that already carries __goid cannot be re-sharded (the global
  // ids would be ambiguous).
  options.key_column.clear();
  const PartitionResult once = PartitionTable(table, options);
  ASSERT_TRUE(once.ok) << once.error;
  EXPECT_FALSE(PartitionTable(once.shards[0], options).ok);
}

// --------------------------------------------------------------------------
// 128-bit offset-value codes and the loser-tree merge
// --------------------------------------------------------------------------

TEST(MergeCodeTest, CodesOrderLikeKeysUnderSharedReference) {
  Rng rng(11);
  for (int i = 0; i < 2000; ++i) {
    Key128 p{rng.Next(), rng.Next()};
    Key128 x{rng.Next(), rng.Next()};
    Key128 y{rng.Next(), rng.Next()};
    // Make p <= x and p <= y (the reference precedes both in a merge).
    if (x < p) std::swap(x.hi, p.hi), std::swap(x.lo, p.lo);
    if (y < p) std::swap(y.hi, p.hi), std::swap(y.lo, p.lo);
    if (x < p) std::swap(x.hi, p.hi), std::swap(x.lo, p.lo);
    const MergeCode cx = MergeCodeRelative(x, p);
    const MergeCode cy = MergeCodeRelative(y, p);
    EXPECT_EQ(cx == 0, x == p);
    EXPECT_EQ(cy == 0, y == p);
    // Different codes (same reference) order exactly like the keys.
    if (cx != cy) {
      EXPECT_EQ(cx < cy, x < y) << "iteration " << i;
    }
  }
}

// Reference merge: stable sort of (key, run, index) — run index breaks key
// ties, within-run order is preserved (runs are sorted).
struct RefElem {
  Key128 key;
  uint32_t run;
  uint32_t index;
};

TEST(LoserTreeTest, MatchesReferenceMergeAndMarksSeams) {
  Rng rng(23);
  const int kRuns = 5;
  // Duplicate-heavy domain: many cross-run key collisions, so seams and
  // the equal-code full-compare path are both exercised hard.
  std::vector<std::vector<Key128>> keys(kRuns);
  for (int r = 0; r < kRuns; ++r) {
    const size_t n = 500 + rng.NextBounded(500);
    for (size_t i = 0; i < n; ++i) {
      keys[r].push_back({rng.NextBounded(64), rng.NextBounded(4)});
    }
    std::sort(keys[r].begin(), keys[r].end());
  }

  std::vector<RefElem> expected;
  std::vector<MergeRun> runs;
  std::vector<std::vector<uint64_t>> hi(kRuns), lo(kRuns);
  for (int r = 0; r < kRuns; ++r) {
    for (size_t i = 0; i < keys[r].size(); ++i) {
      expected.push_back({keys[r][i], static_cast<uint32_t>(r),
                          static_cast<uint32_t>(i)});
      hi[r].push_back(keys[r][i].hi);
      lo[r].push_back(keys[r][i].lo);
    }
    runs.push_back({hi[r].data(), lo[r].data(), hi[r].size()});
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const RefElem& a, const RefElem& b) {
                     if (a.key != b.key) return a.key < b.key;
                     return a.run < b.run;  // stable keeps index order
                   });

  OvcLoserTree tree(std::move(runs));
  EXPECT_EQ(tree.remaining(), expected.size());
  MergeElem elem;
  Key128 prev{};
  bool have_prev = false;
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_TRUE(tree.Next(&elem)) << "element " << i;
    EXPECT_EQ(elem.run, expected[i].run) << "element " << i;
    EXPECT_EQ(elem.index, expected[i].index) << "element " << i;
    // The emitted code is the element's OVC relative to the previous
    // output: zero exactly on a key repeat (the group-seam signal).
    const Key128 key = expected[i].key;
    if (have_prev) {
      EXPECT_EQ(elem.code == 0, key == prev) << "element " << i;
    } else {
      EXPECT_NE(elem.code, 0u);
    }
    prev = key;
    have_prev = true;
  }
  EXPECT_FALSE(tree.Next(&elem));
  EXPECT_EQ(tree.counters().emitted, expected.size());
}

TEST(LoserTreeTest, DistinctKeysNeedFewFullCompares) {
  Rng rng(29);
  const int kRuns = 8;
  std::vector<std::vector<uint64_t>> hi(kRuns), lo(kRuns);
  std::vector<MergeRun> runs;
  size_t total = 0;
  for (int r = 0; r < kRuns; ++r) {
    std::vector<Key128> keys;
    for (int i = 0; i < 1000; ++i) {
      keys.push_back({rng.Next(), rng.Next()});  // collisions ~ never
    }
    std::sort(keys.begin(), keys.end());
    for (const Key128& k : keys) {
      hi[r].push_back(k.hi);
      lo[r].push_back(k.lo);
    }
    runs.push_back({hi[r].data(), lo[r].data(), hi[r].size()});
    total += keys.size();
  }
  OvcLoserTree tree(std::move(runs));
  MergeElem elem;
  Key128 prev{};
  size_t emitted = 0;
  while (tree.Next(&elem)) {
    const Key128 key{hi[elem.run][elem.index], lo[elem.run][elem.index]};
    ASSERT_TRUE(emitted == 0 || prev < key);  // strictly sorted output
    prev = key;
    ++emitted;
  }
  EXPECT_EQ(emitted, total);
  // The point of offset-value coding: random distinct keys differ in the
  // first 16-bit digit almost always, so code comparisons settle nearly
  // every challenge without touching key bytes.
  EXPECT_LT(tree.counters().full_compares, tree.counters().emitted / 4);
}

TEST(LoserTreeTest, HandlesEmptyAndSingleRuns) {
  std::vector<uint64_t> hi = {1, 2, 3}, lo = {0, 0, 0};
  OvcLoserTree tree({{nullptr, nullptr, 0},
                     {hi.data(), lo.data(), 3},
                     {nullptr, nullptr, 0}});
  MergeElem elem;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(tree.Next(&elem));
    EXPECT_EQ(elem.run, 1u);
    EXPECT_EQ(elem.index, static_cast<uint32_t>(i));
  }
  EXPECT_FALSE(tree.Next(&elem));

  OvcLoserTree empty(std::vector<MergeRun>{});
  EXPECT_FALSE(empty.Next(&elem));
}

// --------------------------------------------------------------------------
// Merge-key serialization
// --------------------------------------------------------------------------

TEST(MergeKeysTest, PerRowKeysReproduceEngineSortOrder) {
  const Table table = TestTable(30'000);
  QuerySpec spec = OrderSpec();
  spec.fixed_column_order = true;

  ServiceOptions service_options;
  service_options.threads = 2;
  QueryService service(service_options);
  auto session = service.OpenSession(table);
  const ExecResult local = session->Execute(spec, ExecContext::Default());
  ASSERT_TRUE(local.ok());

  const MergeKeys keys = ComputeMergeKeys(table, spec, local.result);
  ASSERT_TRUE(keys.ok) << keys.error;
  EXPECT_FALSE(keys.per_group);
  ASSERT_EQ(keys.hi.size(), local.result.result_oids.size());
  // The serialized keys must be non-decreasing in result order, and a key
  // repeat must mean the rows tie on every sort column — 128-bit unsigned
  // comparison IS the multi-column comparison.
  const EncodedColumn& c = table.column("c");
  const EncodedColumn& b = table.column("b");
  for (size_t i = 1; i < keys.hi.size(); ++i) {
    const Key128 prev{keys.hi[i - 1], keys.lo[i - 1]};
    const Key128 cur{keys.hi[i], keys.lo[i]};
    ASSERT_LE(prev, cur) << "row " << i;
    const Oid po = local.result.result_oids[i - 1];
    const Oid co = local.result.result_oids[i];
    ASSERT_LE(c.Get(po), c.Get(co));
    if (c.Get(po) == c.Get(co)) {
      ASSERT_GE(b.Get(po), b.Get(co));  // descending attribute complemented
    }
  }
}

TEST(MergeKeysTest, RejectsWindowAndOverwideSpecs) {
  const Table table = TestTable(1000);
  ServiceOptions service_options;
  service_options.threads = 1;
  QueryService service(service_options);

  QuerySpec window = QuerySpecBuilder()
                         .PartitionBy({"a"})
                         .WindowOrder("m")
                         .Build();
  auto session = service.OpenSession(table);
  const ExecResult wr = session->Execute(window, ExecContext::Default());
  ASSERT_TRUE(wr.ok());
  EXPECT_FALSE(ComputeMergeKeys(table, window, wr.result).ok);

  // Three 50-bit columns = 150 key bits: over the 128-bit composite cap.
  const size_t n = 100;
  Table wide;
  Rng rng(3);
  for (const char* name : {"w0", "w1", "w2"}) {
    EncodedColumn col(50, n);
    for (size_t r = 0; r < n; ++r) col.Set(r, rng.Next() & ((1ull << 50) - 1));
    wide.AddColumn(name, std::move(col));
  }
  QuerySpec over = QuerySpecBuilder()
                       .OrderBy("w0")
                       .OrderBy("w1")
                       .OrderBy("w2")
                       .Build();
  over.fixed_column_order = true;
  auto wide_session = service.OpenSession(wide);
  const ExecResult or_ = wide_session->Execute(over, ExecContext::Default());
  ASSERT_TRUE(or_.ok());
  const MergeKeys mk = ComputeMergeKeys(wide, over, or_.result);
  EXPECT_FALSE(mk.ok);
  EXPECT_NE(mk.error.find("128"), std::string::npos) << mk.error;
}

// --------------------------------------------------------------------------
// End-to-end scatter-gather over live loopback servers
// --------------------------------------------------------------------------

// One shard server: its own QueryService (owning nothing; tables are
// registered per test) and McsortServer on an ephemeral loopback port.
struct ShardServer {
  std::unique_ptr<QueryService> service;
  std::unique_ptr<net::McsortServer> server;

  static std::unique_ptr<ShardServer> Start(const Table& table,
                                            const std::string& name) {
    auto shard = std::make_unique<ShardServer>();
    ServiceOptions service_options;
    service_options.threads = 2;
    shard->service = std::make_unique<QueryService>(service_options);
    shard->service->RegisterTable(name, table);
    net::ServerOptions options;
    options.port = 0;  // ephemeral
    options.exec_threads = 2;
    shard->server =
        std::make_unique<net::McsortServer>(shard->service.get(), options);
    std::string error;
    if (!shard->server->Start(&error)) {
      ADD_FAILURE() << "server start: " << error;
      return nullptr;
    }
    return shard;
  }

  uint16_t port() const { return server->port(); }
  void Stop() { server->Shutdown(); }
  ~ShardServer() {
    if (server != nullptr) server->Shutdown();
  }
};

// A TCP port with nothing listening (bound+closed ephemeral port): connect
// attempts fail fast with ECONNREFUSED, the "dead primary" in failover
// tests.
uint16_t DeadPort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  ::close(fd);
  return ntohs(addr.sin_port);
}

class DistEndToEndTest : public ::testing::Test {
 protected:
  static constexpr size_t kRows = 60'000;
  static constexpr char kTable[] = "part";

  void SetUp() override { table_ = TestTable(kRows); }

  // Shards `table_`, starts one server per shard, and registers them all
  // with a fresh coordinator.
  void StartCluster(const PartitionOptions& options,
                    CoordinatorOptions coord_options = {}) {
    PartitionResult parts = PartitionTable(table_, options);
    ASSERT_TRUE(parts.ok) << parts.error;
    shard_tables_ = std::move(parts.shards);
    for (const Table& shard : shard_tables_) {
      servers_.push_back(ShardServer::Start(shard, kTable));
      ASSERT_NE(servers_.back(), nullptr);
    }
    coord_options.metrics = &metrics_;
    coordinator_ =
        std::make_unique<McsortCoordinator>(std::move(coord_options));
    for (const auto& server : servers_) {
      ShardSpec spec;
      spec.endpoints.push_back({"127.0.0.1", server->port()});
      spec.table = kTable;
      coordinator_->AddShard(std::move(spec));
    }
  }

  // Single-node reference: the same spec, column order pinned, on the
  // unsharded table.
  QueryResult Reference(QuerySpec spec) {
    spec.fixed_column_order = true;
    ServiceOptions service_options;
    service_options.threads = 2;
    QueryService service(service_options);
    auto session = service.OpenSession(table_);
    const ExecResult local = session->Execute(spec, ExecContext::Default());
    EXPECT_TRUE(local.ok());
    return local.result;
  }

  void ExpectGroupsBitIdentical(const DistResult& dist,
                                const QueryResult& want) {
    ASSERT_TRUE(dist.ok()) << dist.status.ToString();
    ASSERT_EQ(dist.num_groups, want.num_groups);
    const Segments& groups = want.sort_profile.groups;
    ASSERT_EQ(groups.count(), want.num_groups);
    for (size_t g = 0; g < groups.count(); ++g) {
      ASSERT_EQ(dist.group_sizes[g], groups.length(g)) << "group " << g;
    }
    ASSERT_EQ(dist.aggregate_values.size(), want.aggregate_values.size());
    for (size_t i = 0; i < want.aggregate_values.size(); ++i) {
      EXPECT_EQ(dist.aggregate_values[i], want.aggregate_values[i])
          << "aggregate " << i;
    }
    // Sums and sizes merged bit-identically => identical quotients.
    ASSERT_EQ(dist.aggregate_avg.size(), want.aggregate_avg.size());
    for (size_t i = 0; i < want.aggregate_avg.size(); ++i) {
      EXPECT_EQ(dist.aggregate_avg[i], want.aggregate_avg[i]);
    }
    // Result order: ties between equal ordering keys may legally permute,
    // so compare the ordering-key value sequence.
    ASSERT_EQ(dist.result_group_order.size(),
              want.result_group_order.size());
    for (size_t i = 0; i < dist.result_group_order.size(); ++i) {
      EXPECT_EQ(dist.aggregate_values[0][dist.result_group_order[i]],
                want.aggregate_values[0][want.result_group_order[i]])
          << "result position " << i;
    }
  }

  Table table_;
  std::vector<Table> shard_tables_;
  std::vector<std::unique_ptr<ShardServer>> servers_;
  std::unique_ptr<McsortCoordinator> coordinator_;
  MetricsRegistry metrics_;
};

constexpr char DistEndToEndTest::kTable[];

TEST_F(DistEndToEndTest, GroupByRowHashBitIdenticalWithSplitGroups) {
  // Unkeyed hash scatters each group's rows across all shards — every
  // group is a seam, the stitching path's worst case.
  PartitionOptions options;
  options.num_shards = 3;
  StartCluster(options);

  const DistResult dist = coordinator_->Execute(GroupSpec());
  const QueryResult want = Reference(GroupSpec());
  ExpectGroupsBitIdentical(dist, want);
  // Nearly every group exists on every shard, so far more elements were
  // merged than groups remain after stitching.
  EXPECT_GT(dist.merge_emitted, 2 * dist.num_groups);
}

TEST_F(DistEndToEndTest, GroupByKeyHashAndRangeBitIdentical) {
  for (const PartitionMode mode :
       {PartitionMode::kHash, PartitionMode::kRange}) {
    SCOPED_TRACE(mode == PartitionMode::kHash ? "hash" : "range");
    servers_.clear();
    coordinator_.reset();
    PartitionOptions options;
    options.num_shards = 3;
    options.mode = mode;
    options.key_column = "b";
    StartCluster(options);
    const DistResult dist = coordinator_->Execute(GroupSpec());
    const QueryResult want = Reference(GroupSpec());
    ExpectGroupsBitIdentical(dist, want);
  }
}

TEST_F(DistEndToEndTest, OrderByBitIdenticalToSingleNode) {
  PartitionOptions options;
  options.num_shards = 3;  // row hash: maximal interleave at the merge
  StartCluster(options);

  const DistResult dist = coordinator_->Execute(OrderSpec());
  ASSERT_TRUE(dist.ok()) << dist.status.ToString();
  const QueryResult want = Reference(OrderSpec());
  // Shards carry the partitioner's __goid, so the merged oids are global
  // pre-shard row ids — directly comparable to the unsharded run.
  ASSERT_EQ(dist.result_oids.size(), want.result_oids.size());
  EXPECT_EQ(dist.result_oids, want.result_oids);
}

TEST_F(DistEndToEndTest, SnapshotReloadedShardsStayBitIdentical) {
  char dir_template[] = "/tmp/mcsort_dist_test_XXXXXX";
  char* root = ::mkdtemp(dir_template);
  ASSERT_NE(root, nullptr);

  PartitionOptions options;
  options.num_shards = 3;
  const PartitionToDiskResult disk =
      PartitionToSnapshots(table_, kTable, root, options);
  ASSERT_TRUE(disk.ok) << disk.error;
  ASSERT_EQ(disk.shard_dirs.size(), 3u);

  // Reload every shard from its snapshot directory — the cluster a real
  // deployment boots from — and verify the distributed answer end to end.
  shard_tables_.clear();
  for (const std::string& dir : disk.shard_dirs) {
    Table loaded;
    const Status st = LoadTableSnapshot(dir, SnapshotLoadOptions{}, &loaded);
    ASSERT_TRUE(st.ok()) << st.ToString();
    shard_tables_.push_back(std::move(loaded));
  }
  CoordinatorOptions coord_options;
  coord_options.metrics = &metrics_;
  coordinator_ = std::make_unique<McsortCoordinator>(coord_options);
  for (const Table& shard : shard_tables_) {
    servers_.push_back(ShardServer::Start(shard, kTable));
    ASSERT_NE(servers_.back(), nullptr);
    ShardSpec spec;
    spec.endpoints.push_back({"127.0.0.1", servers_.back()->port()});
    spec.table = kTable;
    coordinator_->AddShard(std::move(spec));
  }

  ExpectGroupsBitIdentical(coordinator_->Execute(GroupSpec()),
                           Reference(GroupSpec()));
  const DistResult order = coordinator_->Execute(OrderSpec());
  ASSERT_TRUE(order.ok()) << order.status.ToString();
  EXPECT_EQ(order.result_oids, Reference(OrderSpec()).result_oids);

  std::string cmd = std::string("rm -rf ") + root;
  ASSERT_EQ(std::system(cmd.c_str()), 0);
}

TEST_F(DistEndToEndTest, FailoverToReplicaWhenPrimaryIsDead) {
  PartitionOptions options;
  options.num_shards = 2;
  PartitionResult parts = PartitionTable(table_, options);
  ASSERT_TRUE(parts.ok) << parts.error;
  shard_tables_ = std::move(parts.shards);
  for (const Table& shard : shard_tables_) {
    servers_.push_back(ShardServer::Start(shard, kTable));
    ASSERT_NE(servers_.back(), nullptr);
  }
  CoordinatorOptions coord_options;
  coord_options.metrics = &metrics_;
  coord_options.retry_backoff_seconds = 0.01;
  coordinator_ = std::make_unique<McsortCoordinator>(coord_options);
  // Shard 0's primary endpoint refuses connections; the replica (the real
  // server) must answer after the typed retry.
  {
    ShardSpec spec;
    spec.endpoints.push_back({"127.0.0.1", DeadPort()});
    spec.endpoints.push_back({"127.0.0.1", servers_[0]->port()});
    spec.table = kTable;
    coordinator_->AddShard(std::move(spec));
  }
  {
    ShardSpec spec;
    spec.endpoints.push_back({"127.0.0.1", servers_[1]->port()});
    spec.table = kTable;
    coordinator_->AddShard(std::move(spec));
  }

  const DistResult dist = coordinator_->Execute(GroupSpec());
  ExpectGroupsBitIdentical(dist, Reference(GroupSpec()));
  EXPECT_EQ(dist.shards[0].endpoint_used, 1);  // the replica answered
  EXPECT_GE(dist.shards[0].attempts, 2);
  EXPECT_GE(metrics_.counter("dist.shard_failovers")->value(), 1u);
}

TEST_F(DistEndToEndTest, ShardFailsWhenEveryEndpointIsDead) {
  PartitionOptions options;
  options.num_shards = 2;
  StartCluster(options);
  servers_[1]->Stop();  // both real server sockets down for shard 1

  CoordinatorOptions coord_options;
  coord_options.retry_backoff_seconds = 0.005;
  coord_options.max_attempts_per_shard = 2;
  auto coordinator = std::make_unique<McsortCoordinator>(coord_options);
  ShardSpec s0;
  s0.endpoints.push_back({"127.0.0.1", servers_[0]->port()});
  s0.table = kTable;
  coordinator->AddShard(std::move(s0));
  ShardSpec s1;
  s1.endpoints.push_back({"127.0.0.1", servers_[1]->port()});
  s1.table = kTable;
  coordinator->AddShard(std::move(s1));

  const DistResult dist = coordinator->Execute(GroupSpec());
  EXPECT_EQ(dist.status.code, StatusCode::kUnavailable);
  EXPECT_EQ(dist.shards[1].endpoint_used, -1);
  EXPECT_EQ(dist.shards[1].attempts, 2);
}

TEST_F(DistEndToEndTest, ValidationRejectsWindowAndEmptyCluster) {
  McsortCoordinator empty;
  EXPECT_EQ(empty.Execute(GroupSpec()).status.code,
            StatusCode::kFailedPrecondition);

  PartitionOptions options;
  options.num_shards = 2;
  StartCluster(options);
  const QuerySpec window = QuerySpecBuilder()
                               .PartitionBy({"a"})
                               .WindowOrder("m")
                               .Build();
  EXPECT_EQ(coordinator_->Execute(window).status.code,
            StatusCode::kUnimplemented);
}

// Cancellation and deadlines against a deliberately large table so shard
// calls are still in flight when the stop lands. Fast machines may finish
// first — the property under test is bounded unwinding, not an SLO.
class DistRobustnessTest : public ::testing::Test {
 protected:
  static constexpr char kTable[] = "part";

  void StartBigCluster(size_t rows) {
    table_ = TestTable(rows, 13);
    PartitionOptions options;
    options.num_shards = 3;
    PartitionResult parts = PartitionTable(table_, options);
    ASSERT_TRUE(parts.ok) << parts.error;
    shard_tables_ = std::move(parts.shards);
    for (const Table& shard : shard_tables_) {
      servers_.push_back(ShardServer::Start(shard, kTable));
      ASSERT_NE(servers_.back(), nullptr);
    }
    coordinator_ = std::make_unique<McsortCoordinator>();
    for (const auto& server : servers_) {
      ShardSpec spec;
      spec.endpoints.push_back({"127.0.0.1", server->port()});
      spec.table = kTable;
      coordinator_->AddShard(std::move(spec));
    }
  }

  Table table_;
  std::vector<Table> shard_tables_;
  std::vector<std::unique_ptr<ShardServer>> servers_;
  std::unique_ptr<McsortCoordinator> coordinator_;
};

constexpr char DistRobustnessTest::kTable[];

TEST_F(DistRobustnessTest, CancelMidFanOutUnwindsBounded) {
  StartBigCluster(2'000'000);
  std::thread canceller([this] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    coordinator_->Cancel();
  });
  const auto start = std::chrono::steady_clock::now();
  const DistResult dist = coordinator_->Execute(GroupSpec());
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  canceller.join();
  // Either the cancel landed mid-flight (typed kCancelled) or the cluster
  // outran the 20 ms fuse; both must return promptly.
  if (!dist.ok()) {
    EXPECT_EQ(dist.status.code, StatusCode::kCancelled) << dist.status.detail;
  }
  EXPECT_LT(seconds, 30.0);  // sanitizer headroom; plain builds ~100x faster
}

TEST_F(DistRobustnessTest, DeadlineExpiresAcrossTheFanOut) {
  StartBigCluster(2'000'000);
  DistCallOptions call;
  call.deadline_seconds = 0.02;
  const auto start = std::chrono::steady_clock::now();
  const DistResult dist = coordinator_->Execute(GroupSpec(), call);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (!dist.ok()) {
    EXPECT_EQ(dist.status.code, StatusCode::kDeadlineExceeded)
        << dist.status.detail;
  }
  EXPECT_LT(seconds, 30.0);
}

// --------------------------------------------------------------------------
// Protocol version handshake
// --------------------------------------------------------------------------

TEST(WireVersionTest, StaleProtocolVersionGetsTypedReject) {
  const Table table = TestTable(1000);
  auto server = ShardServer::Start(table, "part");
  ASSERT_NE(server, nullptr);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server->port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  struct timeval tv{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));

  // A well-formed HELLO stamped with a protocol version below the server's
  // minimum: the server must answer a typed kUnsupportedVersion ERROR (not
  // hang, not drop the connection silently).
  net::HelloRequest hello;
  hello.client_name = "dist_test_stale";
  const std::string payload = net::EncodeHello(hello);
  net::FrameHeader header;
  header.version = net::kMinProtocolVersion - 1;
  header.type = static_cast<uint8_t>(net::FrameType::kHello);
  header.payload_len = static_cast<uint32_t>(payload.size());
  header.payload_crc = net::Crc32c(payload.data(), payload.size());
  header.request_id = 1;
  std::string frame;
  frame.resize(net::kHeaderSize);
  net::EncodeHeader(header, reinterpret_cast<uint8_t*>(&frame[0]));
  frame += payload;
  ASSERT_TRUE(net::SendAll(fd, frame));

  net::FrameAssembler assembler;
  net::Frame reply;
  net::ErrorCode error;
  bool fatal;
  ASSERT_EQ(net::RecvFrame(fd, &assembler, &reply, &error, &fatal),
            net::FrameAssembler::Next::kFrame);
  ASSERT_EQ(reply.type(), net::FrameType::kError);
  net::ErrorInfo decoded;
  ASSERT_TRUE(net::DecodeError(reply.payload, &decoded));
  EXPECT_EQ(decoded.code, net::ErrorCode::kUnsupportedVersion);
  ::close(fd);
}

}  // namespace
}  // namespace dist
}  // namespace mcsort
