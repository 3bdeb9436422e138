// ByteSlice storage layout [14] — the paper's prototype stores base columns
// this way (Sec. 6: "modify the storage manager to support ByteSlice").
//
// A w-bit code is left-aligned into B = ceil(w/8) bytes and byte j (most
// significant first) of every code is stored contiguously in "slice" j.
// Predicate evaluation compares slice-by-slice with SIMD and stops early
// once every lane's outcome is decided (byte-level early stopping); lookups
// reassemble codes by stitching the B bytes back together.
#ifndef MCSORT_STORAGE_BYTESLICE_H_
#define MCSORT_STORAGE_BYTESLICE_H_

#include <cstdint>
#include <vector>

#include "mcsort/common/aligned_buffer.h"
#include "mcsort/common/logging.h"
#include "mcsort/storage/column.h"
#include "mcsort/storage/types.h"

namespace mcsort {

class ByteSliceColumn {
 public:
  ByteSliceColumn() = default;

  // Builds the sliced layout from an encoded column.
  static ByteSliceColumn Build(const EncodedColumn& column);

  // Adopts pre-built slices (the snapshot load path; buffers may be mmap
  // views). Each slice must hold at least slice_bytes(size) bytes.
  static ByteSliceColumn FromParts(int width, size_t size,
                                   std::vector<AlignedBuffer<uint8_t>> slices);

  // The layout of a merged image (storage/live_runs.h) derived from its
  // base's layout instead of from every code: the live runs of each base
  // slice are copied, and only the rows appended after them, from
  // base.size() - dead.size() on, are sliced from `codes`. Equals
  // Build(codes) byte for byte, padding included, provided the image's
  // leading rows are the base's live rows with unchanged codes and
  // codes.width() == base.width().
  static ByteSliceColumn Derive(const ByteSliceColumn& base,
                                const std::vector<uint32_t>& dead,
                                const EncodedColumn& codes);

  // Bytes per slice for `n` rows (rows padded to a 32-byte SIMD block) —
  // fixes the serialized slice length in the snapshot format.
  static size_t slice_bytes(size_t n) { return (n + 31) / 32 * 32; }

  int width() const { return width_; }
  size_t size() const { return size_; }
  int num_slices() const { return static_cast<int>(slices_.size()); }
  // Bits of left-alignment padding: 8 * num_slices - width.
  int padding_bits() const { return 8 * num_slices() - width_; }

  // Slice j (j = 0 is the most significant byte). Slices are padded to a
  // multiple of 32 bytes so SIMD scans never read past the end.
  const uint8_t* slice(int j) const {
    MCSORT_DCHECK(j >= 0 && j < num_slices());
    return slices_[static_cast<size_t>(j)].data();
  }

  // Left-aligns a code the way stored codes are (for predicate literals).
  Code PadCode(Code code) const { return code << padding_bits(); }

  // Lookup: stitches the bytes of row i back into the original code.
  Code StitchCode(size_t i) const {
    MCSORT_DCHECK(i < size_);
    Code padded = 0;
    for (int j = 0; j < num_slices(); ++j) {
      padded = (padded << 8) | slices_[static_cast<size_t>(j)][i];
    }
    return padded >> padding_bits();
  }

 private:
  int width_ = 0;
  size_t size_ = 0;
  std::vector<AlignedBuffer<uint8_t>> slices_;
};

}  // namespace mcsort

#endif  // MCSORT_STORAGE_BYTESLICE_H_
