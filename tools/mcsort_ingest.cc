// mcsort_ingest — CSV/TSV → encoded snapshot, the offline half of the
// persistence tier: parses a delimited file into an encoded Table
// (io/csv_ingest.h) and writes it as a snapshot directory a server with
// MCSORT_DATA_DIR set can serve by name.
//
//   mcsort_ingest [options] <file.csv> <table-name>
//
//   --out DIR        snapshot root (default: $MCSORT_DATA_DIR, read with
//                    the rest of net::ProcessOptions, or ".")
//   --delim C        field delimiter (default ','; use --tsv for tabs)
//   --tsv            shorthand for --delim TAB
//   --no-header      first line is data; columns are named c0..cN
//   --threads N      ingest worker threads (default: hardware concurrency)
//   --types T1,T2..  explicit column types (int|decimal|string|auto),
//                    one per column, overriding inference
//   --verify         after saving, load the snapshot back through BOTH
//                    read paths (buffered + mmap) and compare every code
//                    word and dictionary entry against the in-memory
//                    table; exits nonzero on any mismatch
//
// scripts/ingest_smoke.sh drives this binary in CI.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "mcsort/io/csv_ingest.h"
#include "mcsort/io/snapshot.h"
#include "mcsort/net/process_options.h"
#include "mcsort/storage/table.h"

namespace {

using namespace mcsort;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--out DIR] [--delim C] [--tsv] [--no-header]\n"
               "          [--threads N] [--types t1,t2,...] [--verify]\n"
               "          <file.csv> <table-name>\n",
               argv0);
  return 2;
}

bool ParseTypes(const std::string& arg, std::vector<CsvColumnSpec>* schema) {
  size_t start = 0;
  while (start <= arg.size()) {
    size_t comma = arg.find(',', start);
    if (comma == std::string::npos) comma = arg.size();
    const std::string token = arg.substr(start, comma - start);
    CsvColumnSpec spec;
    if (token == "int") {
      spec.type = CsvType::kInt;
    } else if (token == "decimal") {
      spec.type = CsvType::kDecimal;
    } else if (token == "string") {
      spec.type = CsvType::kString;
    } else if (token == "auto") {
      spec.type = CsvType::kAuto;
    } else {
      return false;
    }
    schema->push_back(spec);
    start = comma + 1;
  }
  return true;
}

// Bit-identical comparison of a loaded snapshot against the source table:
// every code word, dictionary entry, and domain base must match.
bool TablesIdentical(const Table& want, const Table& got, const char* mode) {
  const auto fail = [&](const std::string& what) {
    std::fprintf(stderr, "verify(%s): %s\n", mode, what.c_str());
    return false;
  };
  if (want.row_count() != got.row_count()) return fail("row count differs");
  if (want.column_names() != got.column_names()) return fail("columns differ");
  for (const std::string& name : want.column_names()) {
    const EncodedColumn& a = want.column(name);
    const EncodedColumn& b = got.column(name);
    if (a.width() != b.width() || a.size() != b.size() ||
        a.type() != b.type()) {
      return fail("column '" + name + "': shape differs");
    }
    if (std::memcmp(a.raw_data(), b.raw_data(), a.byte_size()) != 0) {
      return fail("column '" + name + "': codes differ");
    }
    if (want.domain_base(name) != got.domain_base(name)) {
      return fail("column '" + name + "': domain base differs");
    }
    if (want.HasDictionary(name) != got.HasDictionary(name)) {
      return fail("column '" + name + "': dictionary presence differs");
    }
    if (want.HasDictionary(name) &&
        want.dictionary(name).values() != got.dictionary(name).values()) {
      return fail("column '" + name + "': dictionary differs");
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  net::ProcessOptions env;
  if (const Status parsed = net::ProcessOptions::FromEnv(&env); !parsed.ok()) {
    std::fprintf(stderr, "mcsort_ingest: %s\n", parsed.ToString().c_str());
    return 2;
  }
  std::string out_dir = env.catalog.dir;
  if (out_dir.empty()) out_dir = ".";
  CsvIngestOptions options;
  bool verify = false;
  std::string types_arg;
  std::vector<std::string> positional;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_dir = argv[++i];
    } else if (arg == "--delim" && i + 1 < argc) {
      options.delimiter = argv[++i][0];
    } else if (arg == "--tsv") {
      options.delimiter = '\t';
    } else if (arg == "--no-header") {
      options.has_header = false;
    } else if (arg == "--threads" && i + 1 < argc) {
      options.threads = std::atoi(argv[++i]);
    } else if (arg == "--types" && i + 1 < argc) {
      types_arg = argv[++i];
    } else if (arg == "--verify") {
      verify = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return Usage(argv[0]);
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() != 2) return Usage(argv[0]);
  const std::string& csv_path = positional[0];
  const std::string& table_name = positional[1];
  if (!types_arg.empty() && !ParseTypes(types_arg, &options.schema)) {
    std::fprintf(stderr, "mcsort_ingest: bad --types (want int|decimal|"
                         "string|auto, comma separated)\n");
    return 2;
  }

  Table table;
  CsvIngestStats stats;
  Status st = IngestCsv(csv_path, options, &table, &stats);
  if (!st.ok()) {
    std::fprintf(stderr, "mcsort_ingest: ingest failed: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  std::printf("ingested %llu rows x %d columns in %.3f s (%.2f M rows/s)\n",
              static_cast<unsigned long long>(stats.rows), stats.columns,
              stats.seconds,
              stats.seconds > 0 ? stats.rows / stats.seconds / 1e6 : 0.0);

  const std::string snapshot_dir = out_dir + "/" + table_name;
  st = SaveTableSnapshot(table, snapshot_dir);
  if (!st.ok()) {
    std::fprintf(stderr, "mcsort_ingest: save failed: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  std::printf("snapshot written to %s\n", snapshot_dir.c_str());

  if (verify) {
    for (const SnapshotLoadMode mode :
         {SnapshotLoadMode::kBuffered, SnapshotLoadMode::kMmap}) {
      const char* mode_name =
          mode == SnapshotLoadMode::kBuffered ? "buffered" : "mmap";
      SnapshotLoadOptions load;
      load.mode = mode;
      Table loaded;
      st = LoadTableSnapshot(snapshot_dir, load, &loaded);
      if (!st.ok()) {
        std::fprintf(stderr, "mcsort_ingest: verify(%s) load failed: %s\n",
                     mode_name, st.ToString().c_str());
        return 1;
      }
      if (!TablesIdentical(table, loaded, mode_name)) return 1;
      std::printf("verify(%s): %llu rows round-tripped bit-identically\n",
                  mode_name,
                  static_cast<unsigned long long>(loaded.row_count()));
    }
  }
  return 0;
}
