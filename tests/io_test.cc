// Tests of the on-disk snapshot format and the CSV ingest pipeline
// (io/snapshot.h, io/csv_ingest.h).
//
// The load-bearing invariant: a table saved and loaded back — through the
// buffered path AND the mmap zero-copy path — must be bit-identical to the
// original as far as the engine can observe, i.e. a multi-column sort over
// columns of all three banks (16/32/64-bit) yields the same oid
// permutation and the same group boundaries. Corruption anywhere (manifest
// or any section) must surface as a typed Status, never a crash.
#include "mcsort/io/snapshot.h"

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "mcsort/common/random.h"
#include "mcsort/engine/multi_column_sorter.h"
#include "mcsort/io/csv_ingest.h"
#include "mcsort/io/fs_util.h"
#include "mcsort/net/wire.h"
#include "mcsort/service/query_service.h"
#include "mcsort/storage/table.h"

namespace mcsort {
namespace {

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
}

// A per-test scratch directory under the system temp root, removed on
// destruction.
class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/mcsort_io_test_XXXXXX";
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

// The segment files in snapshot directory `dir`, sorted by name.
std::vector<std::string> ColumnFiles(const std::string& dir) {
  std::vector<std::string> files;
  if (DIR* d = ::opendir(dir.c_str())) {
    while (struct dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name.size() > 4 && name.compare(name.size() - 4, 4, ".col") == 0) {
        files.push_back(name);
      }
    }
    ::closedir(d);
  }
  std::sort(files.begin(), files.end());
  return files;
}

// Path of column `index`'s segment file: a save names it
// `<index>.<token>.col`, so it is found by listing, not by name.
std::string ColumnFile(const std::string& dir, size_t index) {
  const std::string prefix = std::to_string(index) + ".";
  for (const std::string& name : ColumnFiles(dir)) {
    if (name.compare(0, prefix.size(), prefix) == 0) return dir + "/" + name;
  }
  return dir + "/(no segment file for column " + prefix + ")";
}

// A table whose sort columns span all three banks: 12-bit (u16), 24-bit
// (u32), 40-bit (u64), plus a dictionary string column and a domain
// column, so every section type lands in the snapshot.
Table MakeBankSpanningTable(size_t rows, uint64_t seed) {
  Rng rng(seed);
  EncodedColumn w12(12, rows);
  EncodedColumn w24(24, rows);
  EncodedColumn w40(40, rows);
  std::vector<std::string> strings(rows);
  std::vector<int64_t> ints(rows);
  const char* tokens[] = {"alpha", "beta", "gamma", "delta", "épsilon",
                          "zeta", "η-eta", "θ"};
  for (size_t r = 0; r < rows; ++r) {
    w12.Set(r, rng.Next() & 0xFFF);
    w24.Set(r, rng.Next() & 0xFFFFFF);
    w40.Set(r, rng.Next() & 0xFFFFFFFFFFull);
    strings[r] = tokens[rng.Next() % 8];
    ints[r] = static_cast<int64_t>(rng.Next() % 1000) - 500;
  }
  Table table;
  table.AddColumn("w12", std::move(w12));
  table.AddColumn("w24", std::move(w24));
  table.AddColumn("w40", std::move(w40));
  table.AddStringColumn("s", EncodeStrings(strings));
  table.AddDomainColumn("d", EncodeDomain(ints));
  return table;
}

// Sorts the three bank-spanning columns lexicographically and returns the
// (deterministic) oid permutation + group boundaries.
MultiColumnSortResult SortAllBanks(const Table& table) {
  std::vector<MassageInput> inputs = {
      {&table.column("w12"), SortOrder::kAscending},
      {&table.column("w24"), SortOrder::kAscending},
      {&table.column("w40"), SortOrder::kAscending},
  };
  MultiColumnSorter sorter;
  return sorter.SortColumnAtATime(inputs);
}

void ExpectTablesEquivalent(const Table& want, const Table& got) {
  ASSERT_EQ(want.row_count(), got.row_count());
  ASSERT_EQ(want.column_names(), got.column_names());
  for (const std::string& name : want.column_names()) {
    const EncodedColumn& a = want.column(name);
    const EncodedColumn& b = got.column(name);
    ASSERT_EQ(a.width(), b.width()) << name;
    ASSERT_EQ(a.type(), b.type()) << name;
    ASSERT_EQ(a.size(), b.size()) << name;
    ASSERT_EQ(std::memcmp(a.raw_data(), b.raw_data(), a.byte_size()), 0)
        << "codes differ: " << name;
    ASSERT_EQ(want.domain_base(name), got.domain_base(name)) << name;
    ASSERT_EQ(want.HasDictionary(name), got.HasDictionary(name)) << name;
    if (want.HasDictionary(name)) {
      ASSERT_EQ(want.dictionary(name).values(), got.dictionary(name).values())
          << name;
    }
  }
}

TEST(SnapshotTest, RoundTripAllBanksBothLoadPaths) {
  TempDir tmp;
  Table original = MakeBankSpanningTable(20000, 17);
  const MultiColumnSortResult want = SortAllBanks(original);
  const std::string dir = tmp.path() + "/t";
  ASSERT_TRUE(original.SaveSnapshot(dir).ok());

  for (const SnapshotLoadMode mode :
       {SnapshotLoadMode::kBuffered, SnapshotLoadMode::kMmap}) {
    SCOPED_TRACE(mode == SnapshotLoadMode::kMmap ? "mmap" : "buffered");
    SnapshotLoadOptions load;
    load.mode = mode;
    Table loaded;
    const Status st = Table::LoadSnapshot(dir, load, &loaded);
    ASSERT_TRUE(st.ok()) << st.ToString();
    ExpectTablesEquivalent(original, loaded);
    EXPECT_EQ(loaded.column("w12").is_view(),
              mode == SnapshotLoadMode::kMmap);

    // The engine-observable invariant: identical sorted oid permutation
    // and identical group boundaries across all three banks.
    const MultiColumnSortResult got = SortAllBanks(loaded);
    EXPECT_EQ(want.oids, got.oids);
    EXPECT_EQ(want.groups.bounds, got.groups.bounds);
  }
}

TEST(SnapshotTest, PreservesCachedStatsAndAuxLayouts) {
  TempDir tmp;
  Table original = MakeBankSpanningTable(5000, 23);
  // Force the lazy caches so the snapshot carries them.
  const ColumnStats& want_stats = original.stats("w24");
  (void)original.byteslice("w24");
  const std::string dir = tmp.path() + "/t";
  ASSERT_TRUE(original.SaveSnapshot(dir).ok());

  for (const SnapshotLoadMode mode :
       {SnapshotLoadMode::kBuffered, SnapshotLoadMode::kMmap}) {
    SCOPED_TRACE(mode == SnapshotLoadMode::kMmap ? "mmap" : "buffered");
    SnapshotLoadOptions load;
    load.mode = mode;
    Table loaded;
    ASSERT_TRUE(Table::LoadSnapshot(dir, load, &loaded).ok());
    const ColumnStats& got_stats = loaded.stats("w24");
    EXPECT_EQ(want_stats.row_count(), got_stats.row_count());
    EXPECT_EQ(want_stats.distinct_count(), got_stats.distinct_count());
    EXPECT_EQ(want_stats.min_code(), got_stats.min_code());
    EXPECT_EQ(want_stats.max_code(), got_stats.max_code());
    EXPECT_DOUBLE_EQ(want_stats.EstimateDistinctPrefixes(8),
                     got_stats.EstimateDistinctPrefixes(8));
    // The ByteSlice section round-trips byte for byte: every slice of every
    // column equals a fresh build over the saved codes.
    for (const std::string& name : loaded.column_names()) {
      const ByteSliceColumn& bs = loaded.byteslice(name);
      const ByteSliceColumn fresh =
          ByteSliceColumn::Build(original.column(name));
      ASSERT_EQ(bs.width(), fresh.width()) << name;
      ASSERT_EQ(bs.size(), fresh.size()) << name;
      ASSERT_EQ(bs.num_slices(), fresh.num_slices()) << name;
      for (int j = 0; j < bs.num_slices(); ++j) {
        EXPECT_EQ(std::memcmp(bs.slice(j), fresh.slice(j),
                              ByteSliceColumn::slice_bytes(bs.size())),
                  0)
            << name << " slice " << j;
      }
    }
  }
}

TEST(SnapshotTest, DictionaryRoundTripsNonAscii) {
  TempDir tmp;
  std::vector<std::string> values = {"żółć", "中文", "", "ascii", "中文",
                                     "żółć", "émoji 🎈", ""};
  Table table;
  table.AddStringColumn("s", EncodeStrings(values));
  const std::string dir = tmp.path() + "/t";
  ASSERT_TRUE(table.SaveSnapshot(dir).ok());

  Table loaded;
  ASSERT_TRUE(Table::LoadSnapshot(dir, {}, &loaded).ok());
  const StringDictionary& dict = loaded.dictionary("s");
  for (size_t r = 0; r < values.size(); ++r) {
    EXPECT_EQ(dict.Decode(loaded.column("s").Get(r)), values[r]);
  }
}

TEST(SnapshotTest, CorruptedSectionIsTypedError) {
  TempDir tmp;
  Table table = MakeBankSpanningTable(2000, 5);
  const std::string dir = tmp.path() + "/t";
  ASSERT_TRUE(table.SaveSnapshot(dir).ok());

  // Flip one byte inside the first column's codes section (past the
  // 16-byte segment header, within the first page-aligned section).
  const std::string victim = ColumnFile(dir, 0);
  {
    std::fstream f(victim, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(kSnapshotPageBytes + 100);
    char byte = 0;
    f.seekg(kSnapshotPageBytes + 100);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5A);
    f.seekp(kSnapshotPageBytes + 100);
    f.write(&byte, 1);
  }
  for (const SnapshotLoadMode mode :
       {SnapshotLoadMode::kBuffered, SnapshotLoadMode::kMmap}) {
    SCOPED_TRACE(mode == SnapshotLoadMode::kMmap ? "mmap" : "buffered");
    SnapshotLoadOptions load;
    load.mode = mode;
    Table loaded;
    const Status st = Table::LoadSnapshot(dir, load, &loaded);
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(st.code, StatusCode::kDataLoss) << st.ToString();
  }
}

TEST(SnapshotTest, CorruptedManifestIsTypedError) {
  TempDir tmp;
  Table table = MakeBankSpanningTable(500, 9);
  const std::string dir = tmp.path() + "/t";
  ASSERT_TRUE(table.SaveSnapshot(dir).ok());

  const std::string manifest = dir + "/" + kSnapshotManifestFile;
  {
    std::fstream f(manifest, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(32);
    const char junk = 0x7F;
    f.write(&junk, 1);
  }
  Table loaded;
  const Status st = Table::LoadSnapshot(dir, {}, &loaded);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code, StatusCode::kDataLoss) << st.ToString();
}

TEST(SnapshotTest, BadMagicAndMissingDirAreTypedErrors) {
  TempDir tmp;
  Table loaded;
  Status st = Table::LoadSnapshot(tmp.path() + "/nope", {}, &loaded);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code, StatusCode::kUnavailable);

  // A checksum-valid manifest whose magic is wrong: the CRC gate passes,
  // the magic gate must answer kInvalidArgument and say so.
  const std::string dir = tmp.path() + "/junk";
  ASSERT_EQ(std::system(("mkdir -p '" + dir + "'").c_str()), 0);
  std::string body(40, '\x7E');  // != "MCSS"
  const uint32_t crc = net::Crc32c(body.data(), body.size());
  body.append(reinterpret_cast<const char*>(&crc), 4);
  WriteFile(dir + "/" + kSnapshotManifestFile, body);
  st = Table::LoadSnapshot(dir, {}, &loaded);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code, StatusCode::kInvalidArgument);
  EXPECT_NE(st.detail.find("bad magic"), std::string::npos) << st.detail;
}

// Rewrites the saved manifest of `dir` through `edit` and re-seals it with
// a fresh trailing CRC, so the checksum gate passes and only the gate under
// test can reject it. Offsets are the manifest's: magic at 0, version at 4,
// row count at 8.
void EditManifest(const std::string& dir,
                  const std::function<void(std::string*)>& edit) {
  const std::string path = dir + "/" + kSnapshotManifestFile;
  std::string bytes;
  ASSERT_TRUE(ReadFileToString(path, &bytes).ok());
  std::string body = bytes.substr(0, bytes.size() - 4);
  edit(&body);
  const uint32_t crc = net::Crc32c(body.data(), body.size());
  body.append(reinterpret_cast<const char*>(&crc), 4);
  WriteFile(path, body);
}

TEST(SnapshotTest, ManifestWithRepeatedColumnNameIsTypedError) {
  // "w24" and "w12" are the same length, so renaming one to the other
  // leaves every other manifest offset in place.
  TempDir tmp;
  const std::string dir = tmp.path() + "/t";
  ASSERT_TRUE(MakeBankSpanningTable(500, 9).SaveSnapshot(dir).ok());
  EditManifest(dir, [](std::string* body) {
    const size_t at = body->find("w24");
    ASSERT_NE(at, std::string::npos);
    ASSERT_EQ(body->find("w24", at + 1), std::string::npos);
    body->replace(at, 3, "w12");
  });
  Table loaded;
  const Status st = Table::LoadSnapshot(dir, {}, &loaded);
  EXPECT_EQ(st.code, StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_NE(st.detail.find("duplicate column name 'w12'"), std::string::npos)
      << st.detail;
}

TEST(SnapshotTest, ManifestRowCountBeyondOidRangeIsTypedError) {
  TempDir tmp;
  const std::string dir = tmp.path() + "/t";
  ASSERT_TRUE(MakeBankSpanningTable(500, 9).SaveSnapshot(dir).ok());
  EditManifest(dir, [](std::string* body) {
    const uint64_t rows = uint64_t{1} << 32;
    std::memcpy(body->data() + 8, &rows, sizeof(rows));
  });
  for (const SnapshotLoadMode mode :
       {SnapshotLoadMode::kBuffered, SnapshotLoadMode::kMmap}) {
    SCOPED_TRACE(mode == SnapshotLoadMode::kMmap ? "mmap" : "buffered");
    SnapshotLoadOptions load;
    load.mode = mode;
    Table loaded;
    const Status st = Table::LoadSnapshot(dir, load, &loaded);
    EXPECT_EQ(st.code, StatusCode::kInvalidArgument) << st.ToString();
    EXPECT_NE(st.detail.find("row count 4294967296"), std::string::npos)
        << st.detail;
  }
}

TEST(SnapshotTest, ManifestVersionGateIsTypedError) {
  TempDir tmp;
  const std::string dir = tmp.path() + "/t";
  ASSERT_TRUE(MakeBankSpanningTable(500, 9).SaveSnapshot(dir).ok());
  EditManifest(dir, [](std::string* body) {
    const uint32_t version = 1;
    std::memcpy(body->data() + 4, &version, sizeof(version));
  });
  Table loaded;
  const Status st = Table::LoadSnapshot(dir, {}, &loaded);
  EXPECT_EQ(st.code, StatusCode::kFailedPrecondition) << st.ToString();
  EXPECT_NE(st.detail.find("snapshot version 1 (want " +
                           std::to_string(kSnapshotVersion) + ")"),
            std::string::npos)
      << st.detail;
}

TEST(SnapshotTest, SegmentVersionGateIsTypedError) {
  // The manifest stays at the current version; only one segment header
  // (magic at 0, version at 4, outside every CRC-checked section) is
  // re-stamped.
  TempDir tmp;
  const std::string dir = tmp.path() + "/t";
  ASSERT_TRUE(MakeBankSpanningTable(500, 9).SaveSnapshot(dir).ok());
  {
    std::fstream f(ColumnFile(dir, 1),
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    const uint32_t version = 1;
    f.seekp(4);
    f.write(reinterpret_cast<const char*>(&version), sizeof(version));
  }
  for (const SnapshotLoadMode mode :
       {SnapshotLoadMode::kBuffered, SnapshotLoadMode::kMmap}) {
    SCOPED_TRACE(mode == SnapshotLoadMode::kMmap ? "mmap" : "buffered");
    SnapshotLoadOptions load;
    load.mode = mode;
    Table loaded;
    const Status st = Table::LoadSnapshot(dir, load, &loaded);
    EXPECT_EQ(st.code, StatusCode::kFailedPrecondition) << st.ToString();
    EXPECT_NE(st.detail.find("segment version mismatch"), std::string::npos)
        << st.detail;
    EXPECT_NE(st.detail.find("version 1 (want " +
                             std::to_string(kSnapshotVersion) + ")"),
              std::string::npos)
        << st.detail;
  }
}

// A save that fails before its commit point must leave the snapshot it
// would have replaced loadable: here a directory squats on the manifest's
// temp name, so table B's save fails after writing all its column files.
TEST(SnapshotTest, FailedSaveLeavesPreviousSnapshotLoadable) {
  TempDir tmp;
  const std::string dir = tmp.path() + "/t";
  const Table a = MakeBankSpanningTable(3000, 21);
  const Table b = MakeBankSpanningTable(3000, 22);
  ASSERT_TRUE(a.SaveSnapshot(dir).ok());
  const std::vector<std::string> files_a = ColumnFiles(dir);
  ASSERT_EQ(files_a.size(), a.column_names().size());

  const std::string blocker = dir + "/" + kSnapshotManifestFile + ".tmp";
  ASSERT_TRUE(MakeDirs(blocker));
  const Status failed = b.SaveSnapshot(dir);
  EXPECT_EQ(failed.code, StatusCode::kUnavailable) << failed.ToString();
  EXPECT_EQ(ColumnFiles(dir), files_a) << "the failed save left its files";
  for (const SnapshotLoadMode mode :
       {SnapshotLoadMode::kBuffered, SnapshotLoadMode::kMmap}) {
    SCOPED_TRACE(mode == SnapshotLoadMode::kMmap ? "mmap" : "buffered");
    SnapshotLoadOptions load;
    load.mode = mode;
    Table loaded;
    const Status st = Table::LoadSnapshot(dir, load, &loaded);
    ASSERT_TRUE(st.ok()) << st.ToString();
    ExpectTablesEquivalent(a, loaded);
  }

  // Unblocked, the next save commits B and deletes A's files.
  ASSERT_EQ(::rmdir(blocker.c_str()), 0);
  ASSERT_TRUE(b.SaveSnapshot(dir).ok());
  const std::vector<std::string> files_b = ColumnFiles(dir);
  EXPECT_EQ(files_b.size(), b.column_names().size());
  for (const std::string& file : files_a) {
    EXPECT_EQ(std::count(files_b.begin(), files_b.end(), file), 0) << file;
  }
  Table loaded;
  ASSERT_TRUE(Table::LoadSnapshot(dir, SnapshotLoadOptions{}, &loaded).ok());
  ExpectTablesEquivalent(b, loaded);
}

TEST(SnapshotTest, ListSnapshotTablesSortedAndExists) {
  TempDir tmp;
  Table table = MakeBankSpanningTable(100, 3);
  ASSERT_TRUE(SaveTableSnapshot(table, tmp.path() + "/zeta").ok());
  ASSERT_TRUE(SaveTableSnapshot(table, tmp.path() + "/alpha").ok());
  ASSERT_EQ(std::system(("mkdir -p '" + tmp.path() + "/not_a_table'").c_str()),
            0);
  const std::vector<std::string> names = ListSnapshotTables(tmp.path());
  EXPECT_EQ(names, (std::vector<std::string>{"alpha", "zeta"}));
  EXPECT_TRUE(SnapshotExists(tmp.path() + "/alpha"));
  EXPECT_FALSE(SnapshotExists(tmp.path() + "/not_a_table"));
  EXPECT_TRUE(ListSnapshotTables(tmp.path() + "/absent").empty());
}

// ---------------------------------------------------------------------------
// CSV ingest
// ---------------------------------------------------------------------------

TEST(CsvIngestTest, InfersTypesAndEncodes) {
  TempDir tmp;
  const std::string csv = tmp.path() + "/t.csv";
  WriteFile(csv,
            "id,price,city\n"
            "7,1.50,berlin\n"
            "3,2.25,amsterdam\n"
            "9,0.75,berlin\n"
            "3,10.00,chicago\n");
  Table table;
  CsvIngestStats stats;
  const Status st = IngestCsv(csv, {}, &table, &stats);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(stats.rows, 4u);
  EXPECT_EQ(stats.columns, 3);
  ASSERT_EQ(table.row_count(), 4u);

  // id: domain-encoded integers, base = min = 3.
  EXPECT_EQ(table.domain_base("id"), 3);
  EXPECT_EQ(table.column("id").Get(0), 4u);
  EXPECT_EQ(table.column("id").Get(3), 0u);
  // price: scaled decimal (2 digits), base = min scaled = 75.
  EXPECT_EQ(table.domain_base("price"), 75);
  EXPECT_EQ(table.column("price").Get(0), 75u);   // 150 - 75
  EXPECT_EQ(table.column("price").Get(3), 925u);  // 1000 - 75
  // city: order-preserving dictionary ranks.
  ASSERT_TRUE(table.HasDictionary("city"));
  const StringDictionary& dict = table.dictionary("city");
  EXPECT_EQ(dict.size(), 3u);
  EXPECT_EQ(dict.Decode(table.column("city").Get(1)), "amsterdam");
  EXPECT_LT(table.column("city").Get(1), table.column("city").Get(0));
}

TEST(CsvIngestTest, RaggedRowIsTypedError) {
  TempDir tmp;
  const std::string csv = tmp.path() + "/bad.csv";
  WriteFile(csv, "a,b\n1,2\n3\n");
  Table table;
  const Status st = IngestCsv(csv, {}, &table);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code, StatusCode::kInvalidArgument);
}

TEST(CsvIngestTest, ExplicitSchemaOverridesInference) {
  TempDir tmp;
  const std::string csv = tmp.path() + "/t.csv";
  WriteFile(csv, "k,v\n1,10\n2,20\n");
  CsvIngestOptions options;
  options.schema = {{"key", CsvType::kString}, {"val", CsvType::kInt}};
  Table table;
  const Status st = IngestCsv(csv, options, &table);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(table.HasColumn("key"));
  EXPECT_TRUE(table.HasDictionary("key"));  // forced string
  EXPECT_EQ(table.domain_base("val"), 10);
}

TEST(CsvIngestTest, IngestedTableSurvivesSnapshotRoundTrip) {
  TempDir tmp;
  const std::string csv = tmp.path() + "/t.csv";
  std::string text = "a,b,c,m\n";
  Rng rng(11);
  for (int i = 0; i < 3000; ++i) {
    char line[128];
    std::snprintf(line, sizeof(line), "%llu,s%llu,%llu,%lld\n",
                  static_cast<unsigned long long>(rng.Next() % 50),
                  static_cast<unsigned long long>(rng.Next() % 200),
                  static_cast<unsigned long long>(rng.Next() % 100000),
                  static_cast<long long>(rng.Next() % 2000) - 1000);
    text += line;
  }
  WriteFile(csv, text);
  Table table;
  ASSERT_TRUE(IngestCsv(csv, {}, &table).ok());
  const std::string dir = tmp.path() + "/snap";
  ASSERT_TRUE(table.SaveSnapshot(dir).ok());
  for (const SnapshotLoadMode mode :
       {SnapshotLoadMode::kBuffered, SnapshotLoadMode::kMmap}) {
    SnapshotLoadOptions load;
    load.mode = mode;
    Table loaded;
    ASSERT_TRUE(Table::LoadSnapshot(dir, load, &loaded).ok());
    ExpectTablesEquivalent(table, loaded);
  }
}

// --------------------------------------------------------------------------
// Temp-file hygiene (io/fs_util.h + the catalog's attach-time sweep)
// --------------------------------------------------------------------------

TEST(FsUtilTest, RemoveFileIsIdempotent) {
  TempDir tmp;
  const std::string path = tmp.path() + "/x";
  WriteFile(path, "data");
  EXPECT_TRUE(RemoveFile(path));
  EXPECT_TRUE(RemoveFile(path));  // already gone counts as success
}

TEST(FsUtilTest, CleanupTempFilesRemovesOnlySuffixMatches) {
  TempDir tmp;
  WriteFile(tmp.path() + "/a.tmp", "orphan");
  WriteFile(tmp.path() + "/b.col.tmp", "orphan");
  WriteFile(tmp.path() + "/keep.col", "finished artifact");
  WriteFile(tmp.path() + "/tmp", "name is exactly the suffix: keep");
  ASSERT_TRUE(MakeDirs(tmp.path() + "/sub.tmp"));  // directories untouched

  EXPECT_EQ(CleanupTempFiles(tmp.path()), 2u);
  EXPECT_EQ(CleanupTempFiles(tmp.path()), 0u);  // idempotent
  std::string bytes;
  EXPECT_TRUE(ReadFileToString(tmp.path() + "/keep.col", &bytes).ok());
  EXPECT_TRUE(ReadFileToString(tmp.path() + "/tmp", &bytes).ok());
  EXPECT_FALSE(ReadFileToString(tmp.path() + "/a.tmp", &bytes).ok());
  // Missing directory is a quiet zero, not an error.
  EXPECT_EQ(CleanupTempFiles(tmp.path() + "/nonexistent"), 0u);
}

TEST(FsUtilTest, CatalogAttachSweepsOrphanedTempFiles) {
  // A crash between "write MANIFEST.mcs.tmp" and the rename leaves *.tmp
  // orphans in the catalog root and inside table directories, and column
  // files no manifest names. Attaching the catalog must delete them and
  // still register the intact snapshot.
  TempDir tmp;
  const Table table = MakeBankSpanningTable(512, 77);
  ASSERT_TRUE(SaveTableSnapshot(table, tmp.path() + "/t").ok());
  const std::vector<std::string> files = ColumnFiles(tmp.path() + "/t");
  WriteFile(tmp.path() + "/stray.tmp", "crash leftover at the root");
  WriteFile(tmp.path() + "/t/MANIFEST.mcs.tmp", "interrupted re-save");
  WriteFile(tmp.path() + "/t/0.col.tmp", "interrupted segment");
  WriteFile(tmp.path() + "/t/0.interrupted-save.col", "unreferenced segment");

  QueryService service(ServiceOptions{});
  CatalogOptions catalog;
  catalog.dir = tmp.path();
  service.SetCatalog(catalog);

  EXPECT_EQ(
      service.metrics().counter("catalog.tmp_orphans_removed")->value(), 4u);
  std::string bytes;
  EXPECT_FALSE(ReadFileToString(tmp.path() + "/stray.tmp", &bytes).ok());
  EXPECT_FALSE(
      ReadFileToString(tmp.path() + "/t/MANIFEST.mcs.tmp", &bytes).ok());
  EXPECT_EQ(ColumnFiles(tmp.path() + "/t"), files);
  // The real snapshot still loads through the swept catalog.
  const std::shared_ptr<const Table> loaded = service.FindTableShared("t");
  ASSERT_NE(loaded, nullptr);
  ExpectTablesEquivalent(table, *loaded);
}

}  // namespace
}  // namespace mcsort
