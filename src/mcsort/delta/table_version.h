// TableVersion — one table's mutable identity: an immutable encoded base,
// the DeltaStore absorbing writes, and a monotonically increasing epoch.
//
// Visibility is epoch-based and wait-free for readers in the steady state:
// Snapshot() hands out a shared_ptr to a fully encoded Table (the base
// itself when the delta is empty, else a cached merged image built by
// merge_scan), so a query pins its snapshot for its whole run and never
// observes a concurrent write or compaction. Writers serialize on the
// version mutex; the merge build runs OUTSIDE the mutex so readers and
// writers only ever wait for O(delta) copies. The build is single-flight:
// readers that ask for the same base and mutation_seq while one is in
// progress wait for it and share its image.
//
// Compaction protocol (three phases, driven by the service):
//   1. BeginCompaction()  — under the mutex, capture a delta prefix
//      snapshot plus the base it applies to.
//   2. (caller, no lock)  — BuildMergedTable + persist it through the
//      existing tmp+rename snapshot commit point.
//   3. Publish()          — under the mutex, translate the post-snapshot
//      tail (rows, tombstones) onto the merged image via the oid maps,
//      swap the base pointer, bump the epoch. Readers pinned to the old
//      epoch keep their shared_ptr; the old base retires when the last
//      one drops.
#ifndef MCSORT_DELTA_TABLE_VERSION_H_
#define MCSORT_DELTA_TABLE_VERSION_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "mcsort/delta/delta_store.h"
#include "mcsort/delta/dml.h"
#include "mcsort/delta/merge_scan.h"
#include "mcsort/storage/table.h"

namespace mcsort {
namespace delta {

class TableVersion {
 public:
  explicit TableVersion(std::shared_ptr<const Table> base);

  // Applies one DML command. Row-level INSERT failures are reported in the
  // outcome and do not abort the command; op-level failures (unknown /
  // duplicate / missing column, predicate type mismatch) apply nothing.
  DmlOutcome Apply(const DmlCommand& cmd);

  // The table image a query should run against: the base when the delta is
  // empty, else a merged image (cached per mutation_seq, built once however
  // many readers ask at once). Never blocks on an in-flight compaction's
  // heavy phase.
  std::shared_ptr<const Table> Snapshot();

  // --- compaction ---------------------------------------------------------
  struct CompactionJob {
    std::shared_ptr<const Table> base;  // the base the snapshot applies to
    DeltaSnapshot snap;
    uint64_t epoch = 0;
  };
  CompactionJob BeginCompaction();
  // Installs `merged` (built from job.snap against job.base) as the new
  // base, translating everything that arrived after the snapshot onto it.
  // Returns false (and installs nothing) if the base changed since
  // BeginCompaction — e.g. a LoadTable raced the build.
  bool Publish(const CompactionJob& job, MergedTable merged);

  // Swaps in a freshly loaded base (LoadTable); optionally drops the delta
  // (the loaded snapshot supersedes it).
  void ReplaceBase(std::shared_ptr<const Table> base, bool clear_delta);

  // --- introspection ------------------------------------------------------
  uint64_t epoch() const;
  uint64_t delta_rows() const;      // live delta rows
  uint64_t live_rows() const;       // base live + delta live
  // Rows + tombstones accumulated since the last compaction — what the
  // compactor's min_delta_rows threshold is measured against (a pure
  // DELETE workload must still trigger compaction).
  uint64_t pending_mutations() const;
  size_t delta_memory_bytes() const;
  std::shared_ptr<const Table> base() const;
  // Merged images Snapshot() has built.
  uint64_t snapshot_builds() const;

 private:
  // All Locked helpers require mu_.
  DeltaSnapshot CopySnapshotLocked() const;
  DmlOutcome ApplyInsertLocked(const DmlCommand& cmd);
  DmlOutcome ApplyDeleteLocked(const DmlCommand& cmd);
  DmlOutcome ApplyUpdateLocked(const DmlCommand& cmd);
  // Collects live row matches of `pred`: base oids (code-side, exact via
  // order-preserving encoding: one pass over the typed code array, with
  // the tombstone index consulted only for matches) and delta row indices
  // (native-side).
  Status MatchLocked(const DmlPredicate& pred, std::vector<uint32_t>* base_oids,
                     std::vector<uint32_t>* delta_rows) const;
  // Type/range check of one DmlValue against column `col` (index into
  // column_names()); side-effect free, so a row can be fully validated
  // before any of it is interned.
  Status CheckValueLocked(size_t col, const DmlValue& value) const;
  // Encodes a checked value into its stored int64 form (may intern an
  // overflow string).
  int64_t EncodeValueLocked(size_t col, const DmlValue& value);

  mutable std::mutex mu_;
  std::shared_ptr<const Table> base_;
  DeltaStore delta_;
  uint64_t epoch_ = 0;
  // The newest Snapshot() build, and the merged-image cache: readers of the
  // same base and sequence number wait on flight_done_ while it runs, then
  // share its image. A null image after `done` means the build threw, and
  // the next reader builds again. Reset when the base is swapped.
  struct Flight {
    std::shared_ptr<const Table> base;
    uint64_t seq = 0;
    std::shared_ptr<const Table> image;
    bool done = false;
  };
  std::shared_ptr<Flight> flight_;
  std::condition_variable flight_done_;
  uint64_t snapshot_builds_ = 0;
};

}  // namespace delta
}  // namespace mcsort

#endif  // MCSORT_DELTA_TABLE_VERSION_H_
