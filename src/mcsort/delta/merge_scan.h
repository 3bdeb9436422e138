// Merge-at-scan: materializing one consistent, fully encoded Table out of
// an immutable base and a delta snapshot — the read path of the write
// tier, and (by deliberate reuse) the compactor's re-encode step.
//
// The merged image appends live delta rows after the live base rows and
// keeps the order-preserving invariant across both sources:
//
//   * string columns grow their dictionary: the merged dictionary is the
//     sorted union of the base dictionary and the column's overflow
//     values; base codes are remapped monotonically (new code = old code
//     + #new values sorting below it) — growth without touching native
//     values, the paper's encode-ahead premise preserved;
//   * numeric columns keep their domain base unless a delta native sits
//     below it (then the base drops and existing codes shift up
//     uniformly), and the width is the one the live merged range needs;
//   * tombstoned rows (base or delta) are simply not emitted.
//
// A column whose codes stay (no overflow value, no lowered domain base, the
// same physical type) is copied from the base as a memcpy per live run
// (storage/live_runs.h) — the common case, which makes an image cost a copy
// of the base plus O(delta). Only columns that really re-encode take the
// per-row remap. The image records its lineage (storage/table.h), so a
// column that also kept its width derives its statistics and ByteSlice
// from the base's on first use instead of rebuilding them from the codes.
//
// Because compaction publishes exactly BuildMergedTable's output, a query
// over base+delta and the same query after compaction see value-identical
// tables by construction.
#ifndef MCSORT_DELTA_MERGE_SCAN_H_
#define MCSORT_DELTA_MERGE_SCAN_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "mcsort/storage/table.h"

namespace mcsort {
namespace delta {

// A consistent copy of a DeltaStore prefix, taken under the owning
// TableVersion's mutex. The consumed_* counts let the compactor's publish
// step translate mutations that arrived after the snapshot.
struct DeltaSnapshot {
  std::vector<std::vector<int64_t>> rows;   // prefix copy, dead included
  std::vector<uint8_t> row_dead;            // parallel to rows
  std::vector<uint32_t> base_tombstones;    // prefix copy, arrival order
  std::vector<std::vector<std::string>> overflow;  // per column, id order
  size_t consumed_rows = 0;
  size_t consumed_base_tombstones = 0;
  size_t consumed_delta_tombstones = 0;
  uint64_t seq = 0;

  bool empty() const { return rows.empty() && base_tombstones.empty(); }
};

constexpr uint32_t kNoOid = std::numeric_limits<uint32_t>::max();

// The merged image plus the oid translation the compactor needs to carry
// post-snapshot tombstones across the publish.
struct MergedTable {
  std::shared_ptr<Table> table;
  size_t base_rows = 0;
  // Tombstoned base oids, sorted and unique: a live base oid moves down by
  // the number of dead oids below it.
  std::vector<uint32_t> dead_base;
  // delta row index (< consumed_rows) -> merged oid (kNoOid when dead).
  std::vector<uint32_t> new_oid_of_delta;

  // base oid -> merged oid (kNoOid when the base row was tombstoned).
  uint32_t NewOidOfBase(uint32_t oid) const;
};

// Builds the merged table. `snap` must describe rows of `base`'s schema
// (same column count/order); stored string ids must be valid against the
// base dictionary + snapshot overflow, which Apply guarantees. The image
// holds `base` only weakly (TableLineage).
MergedTable BuildMergedTable(const std::shared_ptr<const Table>& base,
                             const DeltaSnapshot& snap);

}  // namespace delta
}  // namespace mcsort

#endif  // MCSORT_DELTA_MERGE_SCAN_H_
