#include "mcsort/storage/bitweaving.h"

#include "mcsort/common/bits.h"

namespace mcsort {

BitWeavingColumn BitWeavingColumn::Build(const EncodedColumn& column) {
  BitWeavingColumn bw;
  bw.width_ = column.width();
  bw.size_ = column.size();
  bw.words_per_plane_ = RoundUp(column.size(), 64) / 64;
  bw.planes_.resize(static_cast<size_t>(bw.width_));
  for (auto& plane : bw.planes_) {
    plane.Reset(bw.words_per_plane_);
    plane.Fill(0);
  }
  for (size_t i = 0; i < column.size(); ++i) {
    const Code code = column.Get(i);
    const size_t word = i >> 6;
    const uint64_t bit = uint64_t{1} << (i & 63);
    for (int j = 0; j < bw.width_; ++j) {
      if ((code >> (bw.width_ - 1 - j)) & 1) {
        bw.planes_[static_cast<size_t>(j)][word] |= bit;
      }
    }
  }
  return bw;
}

}  // namespace mcsort
