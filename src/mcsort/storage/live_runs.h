// Live runs of a row range with some rows deleted — how a merged image
// (delta/merge_scan.h) is laid out over its base: the base's rows in oid
// order with the tombstoned oids left out. Copying a column, or a ByteSlice
// slice, run by run with memcpy is what keeps the image's build a copy
// instead of a per-row re-encode.
#ifndef MCSORT_STORAGE_LIVE_RUNS_H_
#define MCSORT_STORAGE_LIVE_RUNS_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace mcsort {

// Calls fn(begin, end, at) for every maximal run [begin, end) of rows in
// [0, n) that is not in `dead`; `at` is the run's first row once the dead
// rows are squeezed out. `dead` must be sorted, unique and below n.
template <typename Fn>
void ForEachLiveRun(size_t n, const std::vector<uint32_t>& dead, Fn&& fn) {
  size_t begin = 0, at = 0;
  for (uint32_t row : dead) {
    if (row > begin) {
      fn(begin, size_t{row}, at);
      at += row - begin;
    }
    begin = size_t{row} + 1;
  }
  if (n > begin) fn(begin, n, at);
}

// Packs the live elements of `src` (n elements of `elem_bytes` bytes) to
// the front of `dst`, in order.
inline void CopyLiveRuns(const void* src, size_t elem_bytes, size_t n,
                         const std::vector<uint32_t>& dead, void* dst) {
  const char* from = static_cast<const char*>(src);
  char* to = static_cast<char*>(dst);
  ForEachLiveRun(n, dead, [&](size_t begin, size_t end, size_t at) {
    std::memcpy(to + at * elem_bytes, from + begin * elem_bytes,
                (end - begin) * elem_bytes);
  });
}

}  // namespace mcsort

#endif  // MCSORT_STORAGE_LIVE_RUNS_H_
