// mcsort_shard — offline partitioner for the distributed tier: splits a
// table into N shard snapshot directories that N mcsort_server instances
// (each with MCSORT_DATA_DIR pointed at its own shard<i>/ directory) can
// serve, plus (optionally) the unsharded table for single-node
// verification.
//
//   mcsort_shard [options] <out-root>
//
//   --demo N        shard the built-in demo table with N rows (default
//                   source, N defaults to 1<<17)
//   --seed S        demo table RNG seed (default 4242)
//   --snapshot DIR  shard an existing snapshot directory instead
//   --table NAME    table name for the shard snapshots (default "demo")
//   --shards K      number of shards (default 2)
//   --mode M        hash | range (default hash)
//   --key COLUMN    sharding key column (default: hash of the row id /
//                   contiguous row ranges)
//   --no-goid       do not add the __goid global-row-id column
//   --full          also write the unsharded table to <out-root>/full/<name>
//
// Output layout: <out-root>/shard<i>/<name>/ — one snapshot per shard.
// scripts/cluster_smoke.sh drives this binary in CI.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "demo_table.h"
#include "mcsort/dist/partition.h"
#include "mcsort/io/snapshot.h"
#include "mcsort/storage/table.h"

namespace {

using namespace mcsort;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--demo N] [--seed S] [--snapshot DIR]\n"
               "          [--table NAME] [--shards K] [--mode hash|range]\n"
               "          [--key COLUMN] [--no-goid] [--full] <out-root>\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t demo_rows = uint64_t{1} << 17;
  uint64_t seed = 4242;
  std::string snapshot_dir;
  std::string table_name = "demo";
  std::string out_root;
  bool write_full = false;
  dist::PartitionOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--demo" && i + 1 < argc) {
      demo_rows = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--snapshot" && i + 1 < argc) {
      snapshot_dir = argv[++i];
    } else if (arg == "--table" && i + 1 < argc) {
      table_name = argv[++i];
    } else if (arg == "--shards" && i + 1 < argc) {
      options.num_shards = std::atoi(argv[++i]);
    } else if (arg == "--mode" && i + 1 < argc) {
      const std::string mode = argv[++i];
      if (mode == "hash") {
        options.mode = dist::PartitionMode::kHash;
      } else if (mode == "range") {
        options.mode = dist::PartitionMode::kRange;
      } else {
        return Usage(argv[0]);
      }
    } else if (arg == "--key" && i + 1 < argc) {
      options.key_column = argv[++i];
    } else if (arg == "--no-goid") {
      options.add_global_oids = false;
    } else if (arg == "--full") {
      write_full = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return Usage(argv[0]);
    } else if (out_root.empty()) {
      out_root = arg;
    } else {
      return Usage(argv[0]);
    }
  }
  if (out_root.empty()) return Usage(argv[0]);

  Table table;
  if (!snapshot_dir.empty()) {
    const Status st =
        LoadTableSnapshot(snapshot_dir, SnapshotLoadOptions{}, &table);
    if (!st.ok()) {
      std::fprintf(stderr, "mcsort_shard: load %s: %s\n",
                   snapshot_dir.c_str(), st.ToString().c_str());
      return 1;
    }
  } else {
    table = MakeDemoTable(demo_rows, seed);
  }
  std::printf("sharding %llu rows x %zu columns into %d %s shards%s%s\n",
              static_cast<unsigned long long>(table.row_count()),
              table.column_names().size(), options.num_shards,
              options.mode == dist::PartitionMode::kHash ? "hash" : "range",
              options.key_column.empty() ? "" : " on ",
              options.key_column.c_str());

  if (write_full) {
    const std::string full_dir = out_root + "/full/" + table_name;
    const Status st = SaveTableSnapshot(table, full_dir);
    if (!st.ok()) {
      std::fprintf(stderr, "mcsort_shard: save %s: %s\n", full_dir.c_str(),
                   st.ToString().c_str());
      return 1;
    }
    std::printf("full table written to %s\n", full_dir.c_str());
  }

  const dist::PartitionToDiskResult result =
      dist::PartitionToSnapshots(table, table_name, out_root, options);
  if (!result.ok) {
    std::fprintf(stderr, "mcsort_shard: %s\n", result.error.c_str());
    return 1;
  }
  for (size_t s = 0; s < result.shard_dirs.size(); ++s) {
    std::printf("shard %zu: %llu rows -> %s\n", s,
                static_cast<unsigned long long>(result.shard_rows[s]),
                result.shard_dirs[s].c_str());
  }
  return 0;
}
