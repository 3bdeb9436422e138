#include "mcsort/dist/partition.h"

#include <cstdio>
#include <memory>
#include <utility>

#include "mcsort/common/bits.h"
#include "mcsort/dist/merge_keys.h"
#include "mcsort/storage/column.h"
#include "mcsort/storage/dictionary.h"

namespace mcsort {
namespace dist {
namespace {

// splitmix64 finalizer — cheap, well-mixed shard assignment from a code
// or row id (the low bits of raw codes are anything but uniform).
inline uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

PartitionResult PartitionTable(const Table& table,
                               const PartitionOptions& options) {
  PartitionResult out;
  const size_t n = table.row_count();
  const int num_shards = options.num_shards;
  if (num_shards < 1) {
    out.error = "num_shards must be >= 1";
    return out;
  }
  const bool keyed = !options.key_column.empty();
  if (keyed && !table.HasColumn(options.key_column)) {
    out.error = "unknown key column: " + options.key_column;
    return out;
  }
  if (table.HasColumn(kGlobalOidColumn)) {
    out.error = "table already carries a __goid column (already sharded?)";
    return out;
  }

  // Pass 1: shard id per row.
  std::vector<uint8_t> shard_of(n);
  if (num_shards > 255) {
    out.error = "num_shards must be <= 255";
    return out;
  }
  const uint64_t shards = static_cast<uint64_t>(num_shards);
  if (options.mode == PartitionMode::kHash) {
    if (keyed) {
      const EncodedColumn& key = table.column(options.key_column);
      for (size_t r = 0; r < n; ++r) {
        shard_of[r] = static_cast<uint8_t>(Mix64(key.Get(r)) % shards);
      }
    } else {
      for (size_t r = 0; r < n; ++r) {
        shard_of[r] = static_cast<uint8_t>(Mix64(r) % shards);
      }
    }
  } else if (keyed) {
    // Equal-width code ranges over [min, max]; every distinct key value
    // maps to exactly one shard.
    const EncodedColumn& key = table.column(options.key_column);
    Code lo = ~Code{0}, hi = 0;
    for (size_t r = 0; r < n; ++r) {
      const Code c = key.Get(r);
      if (c < lo) lo = c;
      if (c > hi) hi = c;
    }
    if (n == 0) lo = hi = 0;
    const uint64_t span = hi - lo + 1;  // >= 1
    for (size_t r = 0; r < n; ++r) {
      uint64_t s = (key.Get(r) - lo) * shards / span;
      if (s >= shards) s = shards - 1;
      shard_of[r] = static_cast<uint8_t>(s);
    }
  } else {
    // Contiguous row ranges (ceil-split so the remainder spreads evenly).
    const size_t per = (n + shards - 1) / shards;
    for (size_t r = 0; r < n; ++r) {
      shard_of[r] = static_cast<uint8_t>(per == 0 ? 0 : r / per);
    }
  }

  // Pass 2: per-shard row lists (original order preserved within a shard).
  std::vector<std::vector<uint32_t>> rows(num_shards);
  for (size_t r = 0; r < n; ++r) {
    rows[shard_of[r]].push_back(static_cast<uint32_t>(r));
  }

  // Pass 3: gather every column per shard; copy dictionaries/domain bases
  // so shards decode identically to the source.
  out.shards.reserve(num_shards);
  for (int s = 0; s < num_shards; ++s) {
    const std::vector<uint32_t>& oids = rows[s];
    Table shard(oids.size());
    for (const std::string& name : table.column_names()) {
      const EncodedColumn& src = table.column(name);
      EncodedColumn dst;
      dst.ResetTyped(src.width(), src.type(), oids.size(),
                     /*zero_fill=*/false);
      for (size_t i = 0; i < oids.size(); ++i) {
        dst.Set(i, src.Get(oids[i]));
      }
      std::unique_ptr<StringDictionary> dict;
      if (table.HasDictionary(name)) {
        dict = std::make_unique<StringDictionary>(table.dictionary(name));
      }
      shard.AddColumnParts(name, std::move(dst), std::move(dict),
                           table.domain_base(name));
    }
    if (options.add_global_oids) {
      EncodedColumn goid;
      goid.Reset(BitsForCount(n > 0 ? n : 1), oids.size());
      for (size_t i = 0; i < oids.size(); ++i) {
        goid.Set(i, oids[i]);
      }
      shard.AddColumn(kGlobalOidColumn, std::move(goid));
    }
    out.shard_rows.push_back(oids.size());
    out.shards.push_back(std::move(shard));
  }
  out.ok = true;
  return out;
}

PartitionToDiskResult PartitionToSnapshots(const Table& table,
                                           const std::string& name,
                                           const std::string& out_root,
                                           const PartitionOptions& options) {
  PartitionToDiskResult out;
  PartitionResult parts = PartitionTable(table, options);
  if (!parts.ok) {
    out.error = std::move(parts.error);
    return out;
  }
  for (size_t s = 0; s < parts.shards.size(); ++s) {
    char sub[32];
    std::snprintf(sub, sizeof(sub), "/shard%zu/", s);
    const std::string dir = out_root + sub + name;
    const Status io = parts.shards[s].SaveSnapshot(dir);
    if (!io.ok()) {
      out.error = "snapshot " + dir + ": " + io.detail;
      return out;
    }
    out.shard_dirs.push_back(dir);
    out.shard_rows.push_back(parts.shard_rows[s]);
  }
  out.ok = true;
  return out;
}

}  // namespace dist
}  // namespace mcsort
