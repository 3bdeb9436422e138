#include "mcsort/storage/byteslice.h"

#include <cstring>

#include "mcsort/common/bits.h"
#include "mcsort/storage/live_runs.h"

namespace mcsort {

ByteSliceColumn ByteSliceColumn::Build(const EncodedColumn& column) {
  ByteSliceColumn bs;
  bs.width_ = column.width();
  bs.size_ = column.size();
  const int num_slices = (column.width() + 7) / 8;
  const int padding = 8 * num_slices - column.width();
  // Pad the slice length to a SIMD block so scans can run full blocks.
  const size_t padded_n = RoundUp(column.size(), 32);
  bs.slices_.resize(static_cast<size_t>(num_slices));
  for (auto& slice : bs.slices_) {
    slice.Reset(padded_n);
    slice.Fill(0);
  }
  for (size_t i = 0; i < column.size(); ++i) {
    const Code padded = column.Get(i) << padding;
    for (int j = 0; j < num_slices; ++j) {
      bs.slices_[static_cast<size_t>(j)][i] =
          static_cast<uint8_t>(padded >> (8 * (num_slices - 1 - j)));
    }
  }
  return bs;
}

ByteSliceColumn ByteSliceColumn::Derive(const ByteSliceColumn& base,
                                        const std::vector<uint32_t>& dead,
                                        const EncodedColumn& codes) {
  MCSORT_CHECK(codes.width() == base.width());
  MCSORT_CHECK(dead.size() <= base.size());
  const size_t kept = base.size() - dead.size();
  MCSORT_CHECK(kept <= codes.size());
  ByteSliceColumn bs;
  bs.width_ = base.width();
  bs.size_ = codes.size();
  const int num_slices = base.num_slices();
  const int padding = base.padding_bits();
  const size_t padded_n = slice_bytes(codes.size());
  bs.slices_.resize(static_cast<size_t>(num_slices));
  for (int j = 0; j < num_slices; ++j) {
    AlignedBuffer<uint8_t>& slice = bs.slices_[static_cast<size_t>(j)];
    slice.Reset(padded_n);
    CopyLiveRuns(base.slice(j), 1, base.size(), dead, slice.data());
    const int shift = 8 * (num_slices - 1 - j);
    for (size_t i = kept; i < codes.size(); ++i) {
      slice[i] = static_cast<uint8_t>((codes.Get(i) << padding) >> shift);
    }
    if (padded_n > codes.size()) {
      std::memset(slice.data() + codes.size(), 0, padded_n - codes.size());
    }
  }
  return bs;
}

ByteSliceColumn ByteSliceColumn::FromParts(
    int width, size_t size, std::vector<AlignedBuffer<uint8_t>> slices) {
  MCSORT_CHECK(width >= 1 && width <= 64);
  MCSORT_CHECK(slices.size() == static_cast<size_t>((width + 7) / 8));
  for (const auto& slice : slices) {
    MCSORT_CHECK(slice.size() >= slice_bytes(size));
  }
  ByteSliceColumn bs;
  bs.width_ = width;
  bs.size_ = size;
  bs.slices_ = std::move(slices);
  return bs;
}

}  // namespace mcsort
