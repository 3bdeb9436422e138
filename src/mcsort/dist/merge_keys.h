// Composite merge keys for the distributed scatter-gather tier.
//
// A shard answers a pinned-order query with rows (or groups) already in
// global sort order *within the shard*. To interleave K such streams into
// one globally sorted stream the coordinator needs, per element, the full
// multi-column sort key — but shipping the sort columns themselves would
// re-send data the shard already reduced. Instead the shard serializes
// each element's key as one 128-bit big-endian-comparable composite,
// built by dist/merge.h's KeyEncoder (the spill sort's run files use the
// same one).
//
// Unsigned comparison of (hi, lo) pairs is then exactly the multi-column
// comparison the single-node sort performed, so the coordinator's
// loser-tree merge (dist/merge.h) reproduces single-node output
// bit-identically. Total key width above 128 bits is a typed error (the
// engine itself caps massaged keys at 64 bits per bank; two banks of
// headroom covers every spec the executor accepts today).
#ifndef MCSORT_DIST_MERGE_KEYS_H_
#define MCSORT_DIST_MERGE_KEYS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "mcsort/engine/query.h"
#include "mcsort/storage/table.h"

namespace mcsort {
namespace dist {

// Name of the reserved global-row-id column the partitioner adds to every
// shard (see dist/partition.h). When present, ORDER BY merge keys are
// accompanied by the pre-shard oids so distributed row results are
// comparable across shardings.
inline constexpr char kGlobalOidColumn[] = "__goid";

struct MergeKeys {
  bool ok = false;
  std::string error;

  // True for GROUP BY specs: one key per group (the representative row's
  // codes — every row of a group shares them by definition), sizes in
  // `group_sizes`. False for ORDER BY specs: one key per output row.
  bool per_group = false;

  // keys[i] = (hi[i] << 64) | lo[i], left-aligned to bit 127.
  std::vector<uint64_t> hi;
  std::vector<uint64_t> lo;
  // Per-group row counts (per_group only) — the coordinator needs them to
  // stitch kCount/kAvg aggregates across shard seams.
  std::vector<uint32_t> group_sizes;
  // Pre-shard oids in output row order (ORDER BY only, and only when the
  // table carries kGlobalOidColumn); empty otherwise.
  std::vector<uint32_t> global_oids;
};

// Computes the merge-key sections for one executed query. `result` must be
// the successful QueryResult of running `spec` against `table`. Fails
// (ok=false, error set) for window specs (partition_by), specs with no
// sort attributes, and composite keys wider than 128 bits.
MergeKeys ComputeMergeKeys(const Table& table, const QuerySpec& spec,
                           const QueryResult& result);

}  // namespace dist
}  // namespace mcsort

#endif  // MCSORT_DIST_MERGE_KEYS_H_
