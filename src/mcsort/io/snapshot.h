// Versioned on-disk columnar snapshot format (DESIGN.md §10).
//
// A snapshot is a directory per table:
//
//   <dir>/MANIFEST.mcs   binary manifest: schema + section directory
//   <dir>/<i>.col        one segment file per column (i = schema position)
//
// The manifest is a fixed little-endian layout (no JSON, no parser deps)
// written with the net/wire codec and protected by a trailing CRC32C. Each
// column file starts with a small header and then carries page-aligned
// sections — encoded codes, order-preserving dictionary, cached statistics,
// and the ByteSlice / BitWeaving auxiliary layouts — each individually
// CRC32C-checked via {offset, length, crc} records in the manifest.
//
// Page alignment of the codes section (and 64-byte alignment of every
// slice/plane inside the auxiliary sections) is what makes the zero-copy
// load path possible: LoadSnapshot(kMmap) maps each segment file PROT_READ
// and hands the engine Column views straight into the mapping, so a
// multi-GB table is query-ready in milliseconds and pages in lazily.
#ifndef MCSORT_IO_SNAPSHOT_H_
#define MCSORT_IO_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "mcsort/io/io_status.h"

namespace mcsort {

class Table;

// Format constants, exposed for tests and tooling.
inline constexpr uint32_t kSnapshotManifestMagic = 0x5353434D;  // "MCSS"
inline constexpr uint32_t kSnapshotSegmentMagic = 0x4353434D;   // "MCSC"
inline constexpr uint32_t kSnapshotVersion = 1;
inline constexpr size_t kSnapshotPageBytes = 4096;
inline constexpr char kSnapshotManifestFile[] = "MANIFEST.mcs";

enum class SnapshotSection : uint8_t {
  kCodes = 1,       // raw fixed-width code array (u16/u32/u64, page-aligned)
  kDictionary = 2,  // sorted string dictionary, u32-length-prefixed entries
  kStats = 3,       // ColumnStatsImage
  kByteSlice = 4,   // B slices, each 64-byte aligned within the section
  kBitWeaving = 5,  // w bit planes, each 64-byte aligned within the section
};

// Free-function form of Table::SaveSnapshot / Table::LoadSnapshot (the
// methods forward here; both are implemented in snapshot.cc).
Status SaveTableSnapshot(const Table& table, const std::string& dir);
Status LoadTableSnapshot(const std::string& dir,
                         const SnapshotLoadOptions& options, Table* out);

// Names of the snapshot subdirectories of `root` (directories containing a
// MANIFEST.mcs), sorted — the catalog's view of a data directory. Missing
// or unreadable `root` yields an empty list.
std::vector<std::string> ListSnapshotTables(const std::string& root);

// True if `dir` looks like a snapshot directory (has a manifest file).
bool SnapshotExists(const std::string& dir);

}  // namespace mcsort

#endif  // MCSORT_IO_SNAPSHOT_H_
