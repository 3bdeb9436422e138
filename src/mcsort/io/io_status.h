// The load-mode options shared by Table::LoadSnapshot and the catalog.
// Lives in its own leaf header so storage/table.h can name these types
// without pulling in the snapshot machinery. io/ reports failures as
// mcsort::Status: kUnavailable for a failed syscall (the message has
// errno), kDataLoss for a CRC mismatch or truncated section,
// kInvalidArgument for a wrong magic or a structurally invalid file, and
// kFailedPrecondition for an incompatible format version.
#ifndef MCSORT_IO_IO_STATUS_H_
#define MCSORT_IO_IO_STATUS_H_

#include "mcsort/common/status.h"

namespace mcsort {

// How LoadSnapshot materializes column codes.
enum class SnapshotLoadMode {
  kBuffered,  // read(2) into fresh AlignedBuffers; file independent after
  kMmap,      // zero-copy: codes are views over a pinned PROT_READ mapping
};

struct SnapshotLoadOptions {
  SnapshotLoadMode mode = SnapshotLoadMode::kBuffered;
  // Verify every section's CRC32C at load. With kMmap this costs one
  // sequential pass over the mapping (memory stays file-backed); turn it
  // off to get the query-ready-in-milliseconds path and trust the medium.
  bool verify_checksums = true;
};

}  // namespace mcsort

#endif  // MCSORT_IO_IO_STATUS_H_
