// Read-only memory-mapped file — the zero-copy substrate of the snapshot
// loader (io/snapshot.h). A multi-GB column segment maps in O(1); pages
// fault in lazily as queries touch them, and the kernel's page cache makes
// a re-load after restart effectively free.
//
// The mapping is PROT_READ: snapshot bytes are immutable by construction,
// and a Column view over them must never be written through (the engine
// only reads base columns; sorts gather into scratch copies).
#ifndef MCSORT_COMMON_MMAP_FILE_H_
#define MCSORT_COMMON_MMAP_FILE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

namespace mcsort {

class MmapFile {
 public:
  MmapFile() = default;
  ~MmapFile() { Close(); }

  MmapFile(MmapFile&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)),
        mapped_(std::exchange(other.mapped_, false)) {}
  MmapFile& operator=(MmapFile&& other) noexcept;
  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;

  // Maps `path` read-only. False (with *error filled when non-null) on
  // open/stat/mmap failure; the object is then empty. An empty file maps
  // to a valid zero-length object (data() == nullptr).
  bool Open(const std::string& path, std::string* error = nullptr);
  void Close();

  bool valid() const { return mapped_; }
  const uint8_t* data() const { return static_cast<const uint8_t*>(data_); }
  size_t size() const { return size_; }

  // Advises the kernel the whole mapping will be read sequentially soon
  // (used by the snapshot loader's checksum pass to prefetch aggressively).
  void AdviseSequential() const;

 private:
  void* data_ = nullptr;
  size_t size_ = 0;
  bool mapped_ = false;  // distinguishes empty-file success from default
};

}  // namespace mcsort

#endif  // MCSORT_COMMON_MMAP_FILE_H_
