// Snapshot format reader/writer — see snapshot.h for the layout and
// DESIGN.md §10 for the rationale. Everything here is deliberately plain:
// stdio for the write path (sequential, buffered), mmap or stdio for the
// read path, the net/wire little-endian codec for metadata, and CRC32C
// (chained via its seed parameter) for integrity.
#include "mcsort/io/snapshot.h"

#include <dirent.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_set>
#include <utility>
#include <vector>

#include "mcsort/common/bits.h"
#include "mcsort/common/mmap_file.h"
#include "mcsort/io/fs_util.h"
#include "mcsort/net/wire.h"
#include "mcsort/storage/table.h"

namespace mcsort {

using net::Crc32c;
using net::WireReader;
using net::WireWriter;

namespace {

constexpr size_t kSegmentHeaderBytes = 16;

struct SectionRecord {
  uint8_t id = 0;
  uint64_t offset = 0;
  uint64_t length = 0;
  uint32_t crc = 0;
};

struct ColumnMeta {
  std::string name;
  uint8_t width = 0;
  uint8_t type = 0;  // PhysicalType as u8
  uint8_t has_dict = 0;
  int64_t domain_base = 0;
  std::string file;
  std::vector<SectionRecord> sections;

  const SectionRecord* FindSection(SnapshotSection id) const {
    for (const auto& s : sections) {
      if (s.id == static_cast<uint8_t>(id)) return &s;
    }
    return nullptr;
  }
};

struct Manifest {
  uint64_t row_count = 0;
  std::vector<ColumnMeta> columns;
};

Status ErrnoStatus(const std::string& what, const std::string& path) {
  return Status::Unavailable(what + " " + path + ": " + std::strerror(errno));
}

// RAII stdio handle.
struct File {
  std::FILE* f = nullptr;
  ~File() {
    if (f != nullptr) std::fclose(f);
  }
};

// --- metadata codecs -----------------------------------------------------

std::string EncodeDictionarySection(const StringDictionary& dict) {
  std::string out;
  WireWriter w(&out);
  w.U64(dict.size());
  for (const auto& value : dict.values()) {
    w.U32(static_cast<uint32_t>(value.size()));
    w.Bytes(value.data(), value.size());
  }
  return out;
}

bool DecodeDictionarySection(const uint8_t* data, size_t n,
                             std::vector<std::string>* values) {
  WireReader r(data, n);
  const uint64_t count = r.U64();
  // Each entry costs at least its 4-byte length prefix; reject counts the
  // payload cannot possibly hold before reserving memory for them.
  if (count > n / 4 + 1) return false;
  values->clear();
  values->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    const uint32_t len = r.U32();
    if (len > r.remaining()) return false;
    std::string value(len, '\0');
    if (len > 0 && !r.Array(value.data(), len, 1)) return false;
    values->push_back(std::move(value));
  }
  return r.AtEnd();
}

std::string EncodeStatsSection(const ColumnStatsImage& image) {
  std::string out;
  WireWriter w(&out);
  w.U64(image.row_count);
  w.U64(image.distinct_count);
  w.U64(image.min_code);
  w.U64(image.max_code);
  w.U32(static_cast<uint32_t>(image.width));
  w.U32(static_cast<uint32_t>(image.hist_bits));
  w.U64(image.bucket_rows.size());
  w.Bytes(image.bucket_rows.data(),
          image.bucket_rows.size() * sizeof(uint64_t));
  w.Bytes(image.bucket_distinct.data(),
          image.bucket_distinct.size() * sizeof(uint64_t));
  return out;
}

bool DecodeStatsSection(const uint8_t* data, size_t n,
                        ColumnStatsImage* image) {
  WireReader r(data, n);
  image->row_count = r.U64();
  image->distinct_count = r.U64();
  image->min_code = r.U64();
  image->max_code = r.U64();
  image->width = static_cast<int32_t>(r.U32());
  image->hist_bits = static_cast<int32_t>(r.U32());
  const uint64_t buckets = r.U64();
  if (image->width < 1 || image->width > 64 || image->hist_bits < 0 ||
      image->hist_bits > image->width || image->hist_bits > 30 ||
      buckets != uint64_t{1} << image->hist_bits ||
      buckets * 2 * sizeof(uint64_t) > r.remaining()) {
    return false;
  }
  image->bucket_rows.resize(buckets);
  image->bucket_distinct.resize(buckets);
  if (buckets > 0) {
    if (!r.Array(image->bucket_rows.data(), buckets, sizeof(uint64_t))) {
      return false;
    }
    if (!r.Array(image->bucket_distinct.data(), buckets, sizeof(uint64_t))) {
      return false;
    }
  }
  return r.AtEnd();
}

std::string EncodeManifest(const Manifest& manifest) {
  std::string out;
  WireWriter w(&out);
  w.U32(kSnapshotManifestMagic);
  w.U32(kSnapshotVersion);
  w.U64(manifest.row_count);
  w.U32(static_cast<uint32_t>(manifest.columns.size()));
  for (const auto& col : manifest.columns) {
    w.Str(col.name);
    w.U8(col.width);
    w.U8(col.type);
    w.U8(col.has_dict);
    w.I64(col.domain_base);
    w.Str(col.file);
    w.U32(static_cast<uint32_t>(col.sections.size()));
    for (const auto& s : col.sections) {
      w.U8(s.id);
      w.U64(s.offset);
      w.U64(s.length);
      w.U32(s.crc);
    }
  }
  const uint32_t crc = Crc32c(out.data(), out.size());
  w.U32(crc);
  return out;
}

Status DecodeManifest(const std::string& bytes, const std::string& path,
                      Manifest* manifest) {
  if (bytes.size() < 24) {
    return Status::InvalidArgument("manifest too short: " + path);
  }
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, bytes.data() + bytes.size() - 4, 4);
  if (Crc32c(bytes.data(), bytes.size() - 4) != stored_crc) {
    return Status::DataLoss("manifest checksum mismatch: " + path);
  }
  WireReader r(bytes.data(), bytes.size() - 4);
  if (r.U32() != kSnapshotManifestMagic) {
    return Status::InvalidArgument("bad magic, not a snapshot manifest: " +
                                   path);
  }
  const uint32_t version = r.U32();
  if (version != kSnapshotVersion) {
    return Status::FailedPrecondition(
        "snapshot version " + std::to_string(version) + " (want " +
            std::to_string(kSnapshotVersion) + "): " + path);
  }
  manifest->row_count = r.U64();
  const uint32_t ncols = r.U32();
  const auto bad = [&path](const std::string& why) {
    return Status::InvalidArgument(why + ": " + path);
  };
  // Oids are 32-bit; a larger count would also overflow the section-size
  // products the loader checks against.
  if (manifest->row_count > UINT32_MAX) {
    return bad("implausible row count " +
               std::to_string(manifest->row_count));
  }
  if (ncols > 4096) return bad("implausible column count");
  manifest->columns.resize(ncols);
  std::unordered_set<std::string> names;
  for (auto& col : manifest->columns) {
    col.name = r.Str();
    col.width = r.U8();
    col.type = r.U8();
    col.has_dict = r.U8();
    col.domain_base = r.I64();
    col.file = r.Str();
    const uint32_t nsections = r.U32();
    if (!r.ok() || nsections > 16) return bad("bad column record");
    col.sections.resize(nsections);
    for (auto& s : col.sections) {
      s.id = r.U8();
      s.offset = r.U64();
      s.length = r.U64();
      s.crc = r.U32();
    }
    if (col.name.empty() || col.width < 1 || col.width > 64 ||
        col.type > 2 ||
        col.width > 8 * BytesOfPhysicalType(
                             static_cast<PhysicalType>(col.type)) ||
        col.file.empty() || col.file.find('/') != std::string::npos) {
      return bad("bad column metadata for '" + col.name + "'");
    }
    if (!names.insert(col.name).second) {
      return bad("duplicate column name '" + col.name + "'");
    }
  }
  if (!r.AtEnd()) return bad("trailing bytes in manifest");
  return Status::Ok();
}

// --- write path ----------------------------------------------------------

class SegmentFileWriter {
 public:
  SegmentFileWriter(std::FILE* f, const std::string& path)
      : f_(f), path_(path) {}

  Status WriteHeader(uint32_t column_index) {
    std::string header;
    WireWriter w(&header);
    w.U32(kSnapshotSegmentMagic);
    w.U32(kSnapshotVersion);
    w.U32(column_index);
    w.U32(0);  // reserved
    return Write(header.data(), header.size());
  }

  // Pads to the next page boundary and appends one CRC-recorded section.
  Status Append(SnapshotSection id, const void* data, uint64_t length,
                ColumnMeta* meta) {
    Status st = PadTo(kSnapshotPageBytes);
    if (!st.ok()) return st;
    SectionRecord rec;
    rec.id = static_cast<uint8_t>(id);
    rec.offset = pos_;
    rec.length = length;
    rec.crc = Crc32c(data, length);
    st = Write(data, length);
    if (!st.ok()) return st;
    meta->sections.push_back(rec);
    return Status::Ok();
  }

 private:
  Status Write(const void* data, size_t n) {
    if (n > 0 && std::fwrite(data, 1, n, f_) != n) {
      return ErrnoStatus("write", path_);
    }
    pos_ += n;
    return Status::Ok();
  }

  Status PadTo(uint64_t align) {
    static const char kZeros[kSnapshotPageBytes] = {};
    const uint64_t padded = RoundUp(pos_, align);
    while (pos_ < padded) {
      const size_t chunk =
          std::min<uint64_t>(padded - pos_, sizeof(kZeros));
      Status st = Write(kZeros, chunk);
      if (!st.ok()) return st;
    }
    return Status::Ok();
  }

  std::FILE* f_;
  const std::string& path_;
  uint64_t pos_ = 0;
};

// Assembles the ByteSlice section: B slices back to back, each padded to a
// 64-byte (kSimdAlignment) stride so mmap views stay SIMD-aligned.
std::string BuildByteSliceSection(const ByteSliceColumn& bs) {
  const size_t slice_len = ByteSliceColumn::slice_bytes(bs.size());
  const size_t stride = RoundUp(slice_len, kSimdAlignment);
  std::string out;
  out.reserve(static_cast<size_t>(bs.num_slices()) * stride);
  for (int j = 0; j < bs.num_slices(); ++j) {
    out.append(reinterpret_cast<const char*>(bs.slice(j)), slice_len);
    out.append(stride - slice_len, '\0');
  }
  return out;
}

// Writes column `index` to `<index>.<token>.col`, a file no other save
// names (`token` is the save's; the exclusive create refuses to reuse any
// existing file). Sets meta->file once the file exists, so a failed save
// knows what to remove.
Status SaveColumn(const Table& table, const std::string& name,
                  uint32_t index, const std::string& dir,
                  const std::string& token, ColumnMeta* meta) {
  const EncodedColumn& column = table.column(name);
  meta->name = name;
  meta->width = static_cast<uint8_t>(column.width());
  meta->type = static_cast<uint8_t>(column.type());
  meta->has_dict = table.HasDictionary(name) ? 1 : 0;
  meta->domain_base = table.domain_base(name);

  const std::string file = std::to_string(index) + "." + token + ".col";
  const std::string path = dir + "/" + file;
  {
    File out;
    out.f = std::fopen(path.c_str(), "wbx");
    if (out.f == nullptr) return ErrnoStatus("open", path);
    meta->file = file;
    SegmentFileWriter writer(out.f, path);
    Status st = writer.WriteHeader(index);
    if (!st.ok()) return st;

    st = writer.Append(SnapshotSection::kCodes, column.raw_data(),
                       column.byte_size(), meta);
    if (!st.ok()) return st;

    if (meta->has_dict != 0) {
      const std::string bytes =
          EncodeDictionarySection(table.dictionary(name));
      st = writer.Append(SnapshotSection::kDictionary, bytes.data(),
                         bytes.size(), meta);
      if (!st.ok()) return st;
    }

    // stats()/byteslice() build lazily if this table never computed them —
    // the snapshot always carries warm caches.
    const std::string stats_bytes =
        EncodeStatsSection(table.stats(name).ToImage());
    st = writer.Append(SnapshotSection::kStats, stats_bytes.data(),
                       stats_bytes.size(), meta);
    if (!st.ok()) return st;

    const std::string bs_bytes = BuildByteSliceSection(table.byteslice(name));
    st = writer.Append(SnapshotSection::kByteSlice, bs_bytes.data(),
                       bs_bytes.size(), meta);
    if (!st.ok()) return st;

    if (std::fflush(out.f) != 0) return ErrnoStatus("flush", path);
  }
  return Status::Ok();
}

// --- read path -----------------------------------------------------------

Status CheckSegmentHeader(const uint8_t* data, size_t size,
                          const std::string& path) {
  if (size < kSegmentHeaderBytes) {
    return Status::InvalidArgument("segment file too short: " + path);
  }
  WireReader r(data, kSegmentHeaderBytes);
  if (r.U32() != kSnapshotSegmentMagic) {
    return Status::InvalidArgument("bad magic, not a snapshot segment: " +
                                   path);
  }
  const uint32_t version = r.U32();
  if (version != kSnapshotVersion) {
    return Status::FailedPrecondition(
        "segment version mismatch, version " + std::to_string(version) +
        " (want " + std::to_string(kSnapshotVersion) + "): " + path);
  }
  return Status::Ok();
}

Status CheckSectionBounds(const ColumnMeta& meta, uint64_t file_size,
                          const std::string& path) {
  for (const auto& s : meta.sections) {
    if (s.offset < kSegmentHeaderBytes || s.offset > file_size ||
        s.length > file_size - s.offset) {
      return Status::InvalidArgument("section out of bounds: " + path);
    }
  }
  return Status::Ok();
}

Status RequireSection(const ColumnMeta& meta, SnapshotSection id,
                      const std::string& path,
                      const SectionRecord** out) {
  *out = meta.FindSection(id);
  if (*out == nullptr) {
    return Status::InvalidArgument("missing section " +
                                   std::to_string(static_cast<int>(id)) +
                                   ": " + path);
  }
  return Status::Ok();
}

Status VerifyCrc(const uint8_t* data, const SectionRecord& rec,
                 const std::string& path) {
  if (Crc32c(data, rec.length) != rec.crc) {
    return Status::DataLoss(
        "section " + std::to_string(rec.id) + " checksum mismatch: " + path);
  }
  return Status::Ok();
}

// Loads one column from its segment file, dispatching on load mode. On
// kMmap the MmapFile ends up pinned to `table` and codes and slices are
// views; on kBuffered everything is copied and the file is closed.
Status LoadColumn(const ColumnMeta& meta, uint64_t row_count,
                  const std::string& dir,
                  const SnapshotLoadOptions& options, Table* table) {
  const std::string path = dir + "/" + meta.file;
  const int width = meta.width;
  const auto type = static_cast<PhysicalType>(meta.type);
  const uint64_t code_bytes =
      row_count * static_cast<uint64_t>(BytesOfPhysicalType(type));

  // Both modes materialize the whole segment as a byte range: either the
  // mapping or a buffered read of the full file. Segment files contain
  // nothing but this column, so whole-file reads waste nothing.
  std::string buffered;
  auto mapping = std::make_shared<MmapFile>();
  const uint8_t* base = nullptr;
  uint64_t file_size = 0;
  const bool use_mmap = options.mode == SnapshotLoadMode::kMmap;
  if (use_mmap) {
    std::string error;
    if (!mapping->Open(path, &error)) {
      return Status::Unavailable(error);
    }
    base = mapping->data();
    file_size = mapping->size();
    mapping->AdviseSequential();  // the CRC pass below reads it all
  } else {
    Status st = ReadFileToString(path, &buffered);
    if (!st.ok()) return st;
    base = reinterpret_cast<const uint8_t*>(buffered.data());
    file_size = buffered.size();
  }

  Status st = CheckSegmentHeader(base, file_size, path);
  if (!st.ok()) return st;
  st = CheckSectionBounds(meta, file_size, path);
  if (!st.ok()) return st;
  for (const auto& rec : meta.sections) {
    st = VerifyCrc(base + rec.offset, rec, path);
    if (!st.ok()) return st;
  }

  const auto bad = [&path](const std::string& why) {
    return Status::InvalidArgument(why + ": " + path);
  };

  // kCodes → EncodedColumn (the one truly zero-copy section under mmap).
  const SectionRecord* codes = nullptr;
  st = RequireSection(meta, SnapshotSection::kCodes, path, &codes);
  if (!st.ok()) return st;
  if (codes->length != code_bytes || codes->offset % kSnapshotPageBytes != 0) {
    return bad("codes section size/alignment mismatch");
  }
  EncodedColumn column;
  if (use_mmap) {
    column.ResetView(width, type, row_count, base + codes->offset);
  } else {
    column.ResetTyped(width, type, row_count, /*zero_fill=*/false);
    std::memcpy(column.raw_data(), base + codes->offset, code_bytes);
  }

  // kDictionary → StringDictionary (always parsed; codes reference it).
  std::unique_ptr<StringDictionary> dict;
  if (meta.has_dict != 0) {
    const SectionRecord* rec = nullptr;
    st = RequireSection(meta, SnapshotSection::kDictionary, path, &rec);
    if (!st.ok()) return st;
    std::vector<std::string> values;
    if (!DecodeDictionarySection(base + rec->offset, rec->length, &values)) {
      return bad("undecodable dictionary section");
    }
    for (size_t i = 1; i < values.size(); ++i) {
      if (!(values[i - 1] < values[i])) return bad("dictionary not sorted");
    }
    if (BitsForCount(values.size()) != width) {
      return bad("dictionary size inconsistent with column width");
    }
    dict = std::make_unique<StringDictionary>(
        StringDictionary::FromSorted(std::move(values)));
  }

  // kStats → ColumnStats cache.
  const SectionRecord* stats_rec = nullptr;
  st = RequireSection(meta, SnapshotSection::kStats, path, &stats_rec);
  if (!st.ok()) return st;
  ColumnStatsImage image;
  if (!DecodeStatsSection(base + stats_rec->offset, stats_rec->length,
                          &image) ||
      image.width != width || image.row_count != row_count) {
    return bad("undecodable statistics section");
  }

  // kByteSlice → ByteSliceColumn cache (views under mmap).
  const SectionRecord* bs_rec = nullptr;
  st = RequireSection(meta, SnapshotSection::kByteSlice, path, &bs_rec);
  if (!st.ok()) return st;
  const int num_slices = (width + 7) / 8;
  const size_t slice_len = ByteSliceColumn::slice_bytes(row_count);
  const size_t slice_stride = RoundUp(slice_len, kSimdAlignment);
  if (bs_rec->length != static_cast<uint64_t>(num_slices) * slice_stride ||
      bs_rec->offset % kSnapshotPageBytes != 0) {
    return bad("byteslice section size/alignment mismatch");
  }
  std::vector<AlignedBuffer<uint8_t>> slices(
      static_cast<size_t>(num_slices));
  for (int j = 0; j < num_slices; ++j) {
    const uint8_t* src = base + bs_rec->offset + j * slice_stride;
    if (use_mmap) {
      slices[j].ResetView(const_cast<uint8_t*>(src), slice_len);
    } else {
      slices[j].Reset(slice_len);
      std::memcpy(slices[j].data(), src, slice_len);
    }
  }

  table->AddColumnParts(meta.name, std::move(column), std::move(dict),
                        meta.domain_base);
  table->SetStats(meta.name, ColumnStats::FromImage(image));
  table->SetByteSlice(meta.name, ByteSliceColumn::FromParts(
                                     width, row_count, std::move(slices)));
  if (use_mmap) table->PinResource(std::move(mapping));
  return Status::Ok();
}

// Saves, loads and the orphan sweep of one directory take turns within a
// process: saves share the manifest's temp name, each must know which
// manifest it replaces, and a load must not lose its files to a save's
// cleanup between reading the manifest and opening them.
std::mutex& DirectoryLock(const std::string& dir) {
  static std::mutex locks[16];
  return locks[std::hash<std::string>{}(dir) % 16];
}

Status ReadManifest(const std::string& dir, Manifest* manifest) {
  const std::string path = dir + "/" + kSnapshotManifestFile;
  std::string bytes;
  Status st = ReadFileToString(path, &bytes);
  if (!st.ok()) return st;
  return DecodeManifest(bytes, path, manifest);
}

// Unique to one save: the wall clock, the pid and a per-process sequence.
std::string SaveToken() {
  static std::atomic<uint64_t> seq{0};
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::system_clock::now().time_since_epoch())
                      .count();
  char token[64];
  std::snprintf(token, sizeof(token), "%llx-%x-%llx",
                static_cast<unsigned long long>(ns),
                static_cast<unsigned>(::getpid()),
                static_cast<unsigned long long>(
                    seq.fetch_add(1, std::memory_order_relaxed)));
  return token;
}

}  // namespace

Status SaveTableSnapshot(const Table& table, const std::string& dir) {
  if (!MakeDirs(dir)) return ErrnoStatus("mkdir", dir);
  std::lock_guard<std::mutex> lock(DirectoryLock(dir));
  // The snapshot this save replaces. When its manifest is unreadable its
  // files stay, for the attach sweep (RemoveUnreferencedColumnFiles).
  Manifest replaced;
  if (!ReadManifest(dir, &replaced).ok()) replaced.columns.clear();

  const std::string token = SaveToken();
  Manifest manifest;
  manifest.row_count = table.row_count();
  manifest.columns.resize(table.column_names().size());
  Status st;
  for (size_t i = 0; st.ok() && i < table.column_names().size(); ++i) {
    st = SaveColumn(table, table.column_names()[i], static_cast<uint32_t>(i),
                    dir, token, &manifest.columns[i]);
  }
  // The manifest rename is the commit point. Column files are new names,
  // so until it the previous snapshot is untouched: a failed or killed
  // save leaves it loadable, and a live mmap of it keeps its inodes.
  if (st.ok()) {
    st = WriteFileAtomic(dir + "/" + kSnapshotManifestFile,
                         EncodeManifest(manifest));
  }
  // Committed: retire the replaced snapshot's files. Failed: remove this
  // save's own, which no manifest names.
  for (const ColumnMeta& col : st.ok() ? replaced.columns : manifest.columns) {
    if (!col.file.empty()) RemoveFile(dir + "/" + col.file);
  }
  return st;
}

Status LoadTableSnapshot(const std::string& dir,
                         const SnapshotLoadOptions& options, Table* out) {
  std::lock_guard<std::mutex> lock(DirectoryLock(dir));
  Manifest manifest;
  Status st = ReadManifest(dir, &manifest);
  if (!st.ok()) return st;

  Table table(manifest.row_count);
  for (const auto& meta : manifest.columns) {
    st = LoadColumn(meta, manifest.row_count, dir, options, &table);
    if (!st.ok()) return st;
  }
  *out = std::move(table);
  return Status::Ok();
}

size_t RemoveUnreferencedColumnFiles(const std::string& dir) {
  std::lock_guard<std::mutex> lock(DirectoryLock(dir));
  Manifest manifest;
  if (!ReadManifest(dir, &manifest).ok()) return 0;
  std::unordered_set<std::string> named;
  for (const ColumnMeta& col : manifest.columns) named.insert(col.file);
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return 0;
  size_t removed = 0;
  while (struct dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name.size() <= 4 || name.compare(name.size() - 4, 4, ".col") != 0 ||
        named.count(name) != 0) {
      continue;
    }
    if (::unlink((dir + "/" + name).c_str()) == 0) ++removed;
  }
  ::closedir(d);
  return removed;
}

std::vector<std::string> ListSnapshotTables(const std::string& root) {
  std::vector<std::string> names;
  DIR* d = ::opendir(root.c_str());
  if (d == nullptr) return names;
  while (struct dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    if (SnapshotExists(root + "/" + name)) names.push_back(name);
  }
  ::closedir(d);
  std::sort(names.begin(), names.end());
  return names;
}

bool SnapshotExists(const std::string& dir) {
  struct stat st;
  return ::stat((dir + "/" + kSnapshotManifestFile).c_str(), &st) == 0 &&
         S_ISREG(st.st_mode);
}

Status Table::SaveSnapshot(const std::string& dir) const {
  return SaveTableSnapshot(*this, dir);
}

Status Table::LoadSnapshot(const std::string& dir,
                           const SnapshotLoadOptions& options, Table* out) {
  return LoadTableSnapshot(dir, options, out);
}

}  // namespace mcsort
