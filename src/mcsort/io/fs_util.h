// Small filesystem helpers shared by the snapshot reader/writer and the
// CSV ingest pipeline. POSIX-only, like the rest of io/.
#ifndef MCSORT_IO_FS_UTIL_H_
#define MCSORT_IO_FS_UTIL_H_

#include <string>

#include "mcsort/common/status.h"

namespace mcsort {

// mkdir -p: creates `dir` and any missing parents (mode 0755).
bool MakeDirs(const std::string& dir);

// Reads the whole file into `out` (replacing its contents).
Status ReadFileToString(const std::string& path, std::string* out);

// Writes `bytes` to `path`.tmp and renames over `path`, so readers never
// observe a half-written file.
Status WriteFileAtomic(const std::string& path, const std::string& bytes);

// Deletes one file. True when the file was removed or was already absent.
bool RemoveFile(const std::string& path);

// Deletes every regular file directly under `dir` whose name ends with
// `suffix` — the crash-leftover sweep for the temp-file discipline shared
// by the snapshot codec, WriteFileAtomic, and the spill run writer: a
// finished artifact is never named `*.tmp`, so any such file is an orphan
// from an interrupted writer. Returns the number of files removed
// (missing/unreadable `dir` counts as 0). Only safe when no writer is
// concurrently using `dir` (call at startup/attach time).
size_t CleanupTempFiles(const std::string& dir,
                        const std::string& suffix = ".tmp");

}  // namespace mcsort

#endif  // MCSORT_IO_FS_UTIL_H_
