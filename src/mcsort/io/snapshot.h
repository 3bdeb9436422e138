// Versioned on-disk columnar snapshot format (DESIGN.md §10).
//
// A snapshot is a directory per table:
//
//   <dir>/MANIFEST.mcs        binary manifest: schema + section directory
//   <dir>/<i>.<token>.col     one segment file per column (i = schema
//                             position, token unique to the save)
//
// The manifest records each column's file name, so the loader takes names
// from it (snapshots written as `<i>.col` load the same way). A save writes
// new files, renames the manifest over the old one — the commit point —
// and then deletes the files of the manifest it replaced; until that
// rename the previous snapshot is untouched.
//
// The manifest is a fixed little-endian layout (no JSON, no parser deps)
// written with the net/wire codec and protected by a trailing CRC32C. Each
// column file starts with a small header and then carries page-aligned
// sections — encoded codes, order-preserving dictionary, cached statistics,
// and the ByteSlice scan layout — each individually CRC32C-checked via
// {offset, length, crc} records in the manifest.
//
// Page alignment of the codes section (and 64-byte alignment of every
// slice inside the ByteSlice section) is what makes the zero-copy
// load path possible: LoadSnapshot(kMmap) maps each segment file PROT_READ
// and hands the engine Column views straight into the mapping, so a
// multi-GB table is query-ready in milliseconds and pages in lazily.
#ifndef MCSORT_IO_SNAPSHOT_H_
#define MCSORT_IO_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "mcsort/io/io_status.h"

namespace mcsort {

class Table;

// Format constants, exposed for tests and tooling.
inline constexpr uint32_t kSnapshotManifestMagic = 0x5353434D;  // "MCSS"
inline constexpr uint32_t kSnapshotSegmentMagic = 0x4353434D;   // "MCSC"
inline constexpr uint32_t kSnapshotVersion = 2;
inline constexpr size_t kSnapshotPageBytes = 4096;
inline constexpr char kSnapshotManifestFile[] = "MANIFEST.mcs";

enum class SnapshotSection : uint8_t {
  kCodes = 1,       // raw fixed-width code array (u16/u32/u64, page-aligned)
  kDictionary = 2,  // sorted string dictionary, u32-length-prefixed entries
  kStats = 3,       // ColumnStatsImage
  kByteSlice = 4,   // B slices, each 64-byte aligned within the section
};

// Free-function form of Table::SaveSnapshot / Table::LoadSnapshot (the
// methods forward here; both are implemented in snapshot.cc).
Status SaveTableSnapshot(const Table& table, const std::string& dir);
Status LoadTableSnapshot(const std::string& dir,
                         const SnapshotLoadOptions& options, Table* out);

// Deletes every `*.col` file in snapshot directory `dir` that its manifest
// does not name — the files of a save that was killed before its commit or
// before retiring the snapshot it replaced. Returns how many it removed;
// removes nothing when the manifest is missing or unreadable. Safe while
// this process saves, but a save by another process could lose its files:
// call it when the directory is attached.
size_t RemoveUnreferencedColumnFiles(const std::string& dir);

// Names of the snapshot subdirectories of `root` (directories containing a
// MANIFEST.mcs), sorted — the catalog's view of a data directory. Missing
// or unreadable `root` yields an empty list.
std::vector<std::string> ListSnapshotTables(const std::string& root);

// True if `dir` looks like a snapshot directory (has a manifest file).
bool SnapshotExists(const std::string& dir);

}  // namespace mcsort

#endif  // MCSORT_IO_SNAPSHOT_H_
