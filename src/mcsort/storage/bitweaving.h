// BitWeaving/V — the vertical bit-parallel (VBP) storage layout of
// Li & Patel [30], the fast-scan predecessor the paper's ByteSlice [14]
// improves upon.
//
// A w-bit column is stored as w bit planes: plane j holds bit j (MSB
// first) of 64 codes per machine word, so one word-level logical
// instruction processes 64 rows of one bit. Predicate evaluation walks
// planes MSB -> LSB maintaining "still equal" / "already less" masks with
// pure bitwise logic and stops early once no row is still tied — the
// bit-granular analogue of ByteSlice's byte-level early stopping.
//
// The trade-off the paper exploits: VBP scans touch at most w bits/row
// (fine-grained early stopping) but *lookups* must re-stitch one bit from
// each of w planes (w random accesses), whereas ByteSlice stitches whole
// bytes. `bench/ablation_scan_layouts` measures exactly this.
#ifndef MCSORT_STORAGE_BITWEAVING_H_
#define MCSORT_STORAGE_BITWEAVING_H_

#include <cstdint>
#include <vector>

#include "mcsort/common/aligned_buffer.h"
#include "mcsort/common/logging.h"
#include "mcsort/storage/column.h"
#include "mcsort/storage/types.h"

namespace mcsort {

class BitWeavingColumn {
 public:
  BitWeavingColumn() = default;

  static BitWeavingColumn Build(const EncodedColumn& column);

  int width() const { return width_; }
  size_t size() const { return size_; }
  size_t words_per_plane() const { return words_per_plane_; }

  // Plane j (j = 0 is the MOST significant bit). Word g covers rows
  // [64 g, 64 g + 64); row r is bit (r mod 64) of word r / 64.
  const uint64_t* plane(int j) const {
    MCSORT_DCHECK(j >= 0 && j < width_);
    return planes_[static_cast<size_t>(j)].data();
  }

  // Lookup: stitches the w bits of row `i` back into a code (w random
  // accesses — the layout's weakness relative to ByteSlice).
  Code StitchCode(size_t i) const {
    MCSORT_DCHECK(i < size_);
    const size_t word = i >> 6;
    const uint64_t bit = uint64_t{1} << (i & 63);
    Code code = 0;
    for (int j = 0; j < width_; ++j) {
      code = (code << 1) |
             ((planes_[static_cast<size_t>(j)][word] & bit) != 0 ? 1u : 0u);
    }
    return code;
  }

 private:
  int width_ = 0;
  size_t size_ = 0;
  size_t words_per_plane_ = 0;
  std::vector<AlignedBuffer<uint64_t>> planes_;
};

}  // namespace mcsort

#endif  // MCSORT_STORAGE_BITWEAVING_H_
