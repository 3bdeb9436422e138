// A table of named encoded columns — the minimal column-store catalog the
// query engine operates on. In the WideTable execution model ([31], used by
// the paper's prototype) every query runs against one denormalized table,
// so there is no join machinery: scans filter, lookups fetch, sorts group.
#ifndef MCSORT_STORAGE_TABLE_H_
#define MCSORT_STORAGE_TABLE_H_

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "mcsort/io/io_status.h"
#include "mcsort/storage/bitweaving.h"
#include "mcsort/storage/byteslice.h"
#include "mcsort/storage/column.h"
#include "mcsort/storage/dictionary.h"
#include "mcsort/storage/statistics.h"

namespace mcsort {

class Table;

// Where a merged image's rows come from (delta/merge_scan.h): its first
// base->row_count() - dead.size() rows are the base's rows in oid order
// with the sorted, unique `dead` oids left out (storage/live_runs.h); the
// rest were appended. The base is held weakly, so no image, nor a
// compacted base built the same way, keeps a retired base alive; once the
// base is gone, layouts are built from the codes as for any table.
struct TableLineage {
  std::weak_ptr<const Table> base;
  std::vector<uint32_t> dead;
};

class Table {
 public:
  Table() = default;
  explicit Table(size_t row_count) : row_count_(row_count) {}

  size_t row_count() const { return row_count_; }

  // Adds a column; its size must match the table's row count (the first
  // added column fixes the row count of an empty table). Returns *this for
  // chaining during dataset construction.
  Table& AddColumn(const std::string& name, EncodedColumn column);
  // Adds a dictionary-encoded string column, keeping the dictionary for
  // decoding results.
  Table& AddStringColumn(const std::string& name, EncodedStringColumn column);
  // Adds a domain-encoded numeric column (native = base + code); the base
  // is kept so aggregates can be computed over native values.
  Table& AddDomainColumn(const std::string& name, DomainEncoding column);

  bool HasColumn(const std::string& name) const;
  const EncodedColumn& column(const std::string& name) const;
  // Names in insertion order.
  const std::vector<std::string>& column_names() const { return names_; }

  // Dictionary of a string column (CHECK-fails for non-string columns).
  const StringDictionary& dictionary(const std::string& name) const;
  bool HasDictionary(const std::string& name) const;

  // Base of a domain-encoded column (0 for all other columns), such that
  // native value = base + code.
  int64_t domain_base(const std::string& name) const;

  // Statistics / ByteSlice / BitWeaving layouts, built lazily on first use
  // and cached. Safe to call from concurrent query sessions: the first
  // builder wins under a table-wide mutex and everyone reads the immutable
  // result. A column marked by SetLineage derives its statistics and
  // ByteSlice from its lineage base's, when the base is alive and has them
  // built (ColumnStats::Derive, ByteSliceColumn::Derive); the result is the
  // same as a build from the codes.
  const ColumnStats& stats(const std::string& name) const;
  const ByteSliceColumn& byteslice(const std::string& name) const;
  const BitWeavingColumn& bitweaving(const std::string& name) const;

  // --- Snapshot persistence (implemented in io/snapshot.cc) -------------
  // Writes the table as a versioned on-disk snapshot directory; loads one
  // back, either copying into fresh buffers (kBuffered) or mapping the
  // code arrays zero-copy (kMmap; the mapping stays pinned to the table).
  Status SaveSnapshot(const std::string& dir) const;
  static Status LoadSnapshot(const std::string& dir,
                             const SnapshotLoadOptions& options, Table* out);

  // Loader plumbing: adds a column together with its dictionary / domain
  // base in one call, and installs pre-built caches so a loaded table never
  // re-derives what the snapshot already carries.
  Table& AddColumnParts(const std::string& name, EncodedColumn column,
                        std::unique_ptr<StringDictionary> dict,
                        int64_t domain_base);
  void SetStats(const std::string& name, ColumnStats stats);
  void SetByteSlice(const std::string& name, ByteSliceColumn byteslice);
  void SetBitWeaving(const std::string& name, BitWeavingColumn bitweaving);

  // Merge-at-scan plumbing: records where this table's rows come from and
  // marks the `columns` whose leading rows hold the lineage base's codes
  // unchanged at the base's width — the columns whose layouts may be
  // derived from the base's.
  void SetLineage(std::shared_ptr<const TableLineage> lineage,
                  const std::vector<std::string>& columns);
  // Whether column `name` derives its layouts from a lineage base.
  bool derives_layouts(const std::string& name) const;

  // Keeps `resource` (e.g. the MmapFile backing zero-copy column views)
  // alive for the table's lifetime.
  void PinResource(std::shared_ptr<void> resource);

  // Approximate resident footprint — codes, dictionaries, and cached
  // auxiliary layouts — used by the catalog's eviction budget. Counts
  // mmap-viewed codes too (they occupy page cache once touched).
  size_t MemoryBytes() const;

 private:
  struct Entry {
    EncodedColumn column;
    std::unique_ptr<StringDictionary> dict;
    int64_t domain_base = 0;
    mutable std::unique_ptr<ColumnStats> stats;
    mutable std::unique_ptr<ByteSliceColumn> byteslice;
    mutable std::unique_ptr<BitWeavingColumn> bitweaving;
    bool derives_layouts = false;  // see SetLineage
  };

  const Entry& Find(const std::string& name) const;
  // The lineage base when `entry` may derive its layouts from it and the
  // base is still alive; null otherwise.
  std::shared_ptr<const Table> LineageBase(const Entry& entry) const;

  size_t row_count_ = 0;
  std::vector<std::string> names_;
  std::unordered_map<std::string, Entry> columns_;
  std::vector<std::shared_ptr<void>> pinned_;
  std::shared_ptr<const TableLineage> lineage_;
  // Guards the lazy stats/byteslice construction only; column data is
  // immutable after loading. Behind a pointer so Table stays movable.
  mutable std::unique_ptr<std::mutex> lazy_mu_ = std::make_unique<std::mutex>();
};

}  // namespace mcsort

#endif  // MCSORT_STORAGE_TABLE_H_
