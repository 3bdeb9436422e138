#include "mcsort/sort/radix_sort.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "mcsort/common/exec_context.h"
#include "mcsort/common/logging.h"
#include "mcsort/common/thread_pool.h"
#include "mcsort/sort/scalar_kernels.h"

namespace mcsort {
namespace {

constexpr size_t kBuckets = size_t{1} << kRadixDigitBits;
constexpr int kMaxDigits = 64 / kRadixDigitBits;

inline size_t DigitOf(uint64_t key, int shift) {
  return static_cast<size_t>(key >> shift) & (kBuckets - 1);
}

template <typename K>
void CopyPairs(const K* src_k, const uint32_t* src_o, K* dst_k,
               uint32_t* dst_o, size_t n) {
  std::memcpy(dst_k, src_k, n * sizeof(K));
  std::memcpy(dst_o, src_o, n * sizeof(uint32_t));
}

// Stable LSD passes over bits [0, bits) of the n pairs in (a_k, a_o),
// ping-ponging with (b_k, b_o). One read pass fills every digit's
// histogram; a digit all keys share is skipped. Returns true when the
// sorted pairs ended in b.
template <typename K>
bool LsdPasses(K* a_k, uint32_t* a_o, K* b_k, uint32_t* b_o, size_t n,
               int bits) {
  const int digits = (bits + kRadixDigitBits - 1) / kRadixDigitBits;
  size_t hist[kMaxDigits][kBuckets];
  std::memset(hist, 0, static_cast<size_t>(digits) * sizeof(hist[0]));
  for (size_t i = 0; i < n; ++i) {
    const uint64_t key = a_k[i];
    for (int d = 0; d < digits; ++d) {
      ++hist[d][DigitOf(key, d * kRadixDigitBits)];
    }
  }
  bool in_b = false;
  for (int d = 0; d < digits; ++d) {
    const int shift = d * kRadixDigitBits;
    const K* src_k = in_b ? b_k : a_k;
    const uint32_t* src_o = in_b ? b_o : a_o;
    K* dst_k = in_b ? a_k : b_k;
    uint32_t* dst_o = in_b ? a_o : b_o;
    size_t* offsets = hist[d];
    if (offsets[DigitOf(src_k[0], shift)] == n) continue;
    size_t sum = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      const size_t count = offsets[b];
      offsets[b] = sum;
      sum += count;
    }
    for (size_t i = 0; i < n; ++i) {
      const size_t pos = offsets[DigitOf(src_k[i], shift)]++;
      dst_k[pos] = src_k[i];
      dst_o[pos] = src_o[i];
    }
    in_b = !in_b;
  }
  return in_b;
}

// Stable scatter of rows [lo, hi) of `src` into `dst` by the digit at
// `shift`, advancing the per-bucket write positions `offsets`. The MSD
// pass writes 256 streams per array, far more than the write-combining
// and TLB entries of a core, so rows are staged per bucket in an
// L1-resident buffer and written a cache line at a time.
template <typename K, typename Offset>
void ScatterStaged(const K* src_k, const uint32_t* src_o, size_t lo,
                   size_t hi, int shift, Offset* offsets, K* dst_k,
                   uint32_t* dst_o) {
  constexpr size_t kStage = sizeof(K) == sizeof(uint64_t) ? 8 : 16;
  alignas(64) K stage_k[kBuckets][kStage];
  alignas(64) uint32_t stage_o[kBuckets][kStage];
  uint32_t fill[kBuckets] = {};
  for (size_t i = lo; i < hi; ++i) {
    const size_t d = DigitOf(src_k[i], shift);
    uint32_t f = fill[d];
    stage_k[d][f] = src_k[i];
    stage_o[d][f] = src_o[i];
    if (++f == kStage) {
      const size_t pos = static_cast<size_t>(offsets[d]);
      CopyPairs(stage_k[d], stage_o[d], dst_k + pos, dst_o + pos, kStage);
      offsets[d] += kStage;
      f = 0;
    }
    fill[d] = f;
  }
  for (size_t d = 0; d < kBuckets; ++d) {
    const size_t pos = static_cast<size_t>(offsets[d]);
    CopyPairs(stage_k[d], stage_o[d], dst_k + pos, dst_o + pos, fill[d]);
    offsets[d] += fill[d];
  }
}

// Stable sort of the n pairs in `data` by bits [0, bits), with `other` (n
// pairs) as scratch; the sorted pairs land in `other` when `into_other`,
// else in `data`. Segments larger than kRadixMsdMinBytes split on their
// top digit into `other` and sort each bucket against its range of `data`.
template <typename K>
void SortRange(K* data_k, uint32_t* data_o, K* other_k, uint32_t* other_o,
               size_t n, int bits, bool into_other) {
  if (n <= kRadixInsertionMax) {
    K* keys = data_k;
    uint32_t* oids = data_o;
    if (into_other) {
      CopyPairs(data_k, data_o, other_k, other_o, n);
      keys = other_k;
      oids = other_o;
    }
    InsertionSortPairs(keys, oids, n);
    return;
  }
  if (bits <= kRadixDigitBits ||
      n * (sizeof(K) + sizeof(uint32_t)) <= kRadixMsdMinBytes) {
    const bool in_other = LsdPasses(data_k, data_o, other_k, other_o, n, bits);
    if (in_other && !into_other) {
      CopyPairs(other_k, other_o, data_k, data_o, n);
    } else if (!in_other && into_other) {
      CopyPairs(data_k, data_o, other_k, other_o, n);
    }
    return;
  }
  const int shift = bits - kRadixDigitBits;
  size_t offsets[kBuckets] = {};
  for (size_t i = 0; i < n; ++i) ++offsets[DigitOf(data_k[i], shift)];
  if (offsets[DigitOf(data_k[0], shift)] == n) {
    // Every key shares the top digit: it orders nothing.
    SortRange(data_k, data_o, other_k, other_o, n, shift, into_other);
    return;
  }
  size_t bounds[kBuckets + 1];
  size_t sum = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    bounds[b] = sum;
    sum += offsets[b];
    offsets[b] = bounds[b];
  }
  bounds[kBuckets] = n;
  ScatterStaged(data_k, data_o, 0, n, shift, offsets, other_k, other_o);
  for (size_t b = 0; b < kBuckets; ++b) {
    const size_t lo = bounds[b];
    SortRange(other_k + lo, other_o + lo, data_k + lo, data_o + lo,
              bounds[b + 1] - lo, shift, !into_other);
  }
}

template <typename K>
void RadixSortImpl(K* keys, uint32_t* oids, size_t n, int key_width,
                   SortScratch& scratch) {
  MCSORT_CHECK(key_width >= 1 &&
               key_width <= static_cast<int>(sizeof(K) * 8));
  if (n <= 1) return;
  if (n <= kRadixInsertionMax) {
    InsertionSortPairs(keys, oids, n);
    return;
  }
  // Key scratch: u64_a for 64-bit keys; narrower keys share u32_a.
  K* key_scratch = nullptr;
  uint32_t* oid_scratch = nullptr;
  if constexpr (sizeof(K) == sizeof(uint64_t)) {
    scratch.u64_a.EnsureDiscard(n);
    scratch.u32_a.EnsureDiscard(n);
    key_scratch = scratch.u64_a.data();
    oid_scratch = scratch.u32_a.data();
  } else {
    scratch.u32_a.EnsureDiscard((n * sizeof(K) + 3) / 4);
    scratch.u32_b.EnsureDiscard(n);
    key_scratch = reinterpret_cast<K*>(scratch.u32_a.data());
    oid_scratch = scratch.u32_b.data();
  }
  SortRange(keys, oids, key_scratch, oid_scratch, n, key_width,
            /*into_other=*/false);
}

template <typename K>
void ParallelRadixSortImpl(K* keys, uint32_t* oids, size_t n, int key_width,
                           ThreadPool& pool,
                           std::vector<SortScratch>& scratches,
                           const ExecContext* ctx) {
  MCSORT_CHECK(scratches.size() >=
               static_cast<size_t>(pool.num_threads()));
  MCSORT_CHECK(key_width >= 1 &&
               key_width <= static_cast<int>(sizeof(K) * 8));
  if (pool.num_threads() <= 1 || n < kParallelSortMinRows) {
    RadixSortImpl(keys, oids, n, key_width, scratches[0]);
    return;
  }
  const auto stopped = [ctx] {
    return ctx != nullptr && ctx->StopRequested();
  };
  // A few chunks per worker smooth skew in the histogram and scatter.
  const size_t chunks = static_cast<size_t>(pool.num_threads()) * 4;
  const size_t chunk_len = (n + chunks - 1) / chunks;
  SortScratch& shared = scratches[0];
  shared.u64_a.EnsureDiscard(chunks * kBuckets);
  shared.u64_c.EnsureDiscard((n * sizeof(K) + 7) / 8);
  shared.u32_c.EnsureDiscard(n);
  uint64_t* hist = shared.u64_a.data();
  K* scratch_k = reinterpret_cast<K*>(shared.u64_c.data());
  uint32_t* scratch_o = shared.u32_c.data();

  // Per-chunk histograms of the top digit; a top digit every key shares
  // orders nothing, so step down past it.
  int bits = key_width;
  int shift = 0;
  for (;;) {
    if (bits <= kRadixDigitBits) {
      SortRange(keys, oids, scratch_k, scratch_o, n, bits,
                /*into_other=*/false);
      return;
    }
    shift = bits - kRadixDigitBits;
    pool.ParallelFor(
        chunks,
        [&](uint64_t begin, uint64_t end, int) {
          for (size_t c = begin; c < end; ++c) {
            uint64_t* h = hist + c * kBuckets;
            std::memset(h, 0, kBuckets * sizeof(uint64_t));
            const size_t hi = std::min((c + 1) * chunk_len, n);
            for (size_t i = c * chunk_len; i < hi; ++i) {
              ++h[DigitOf(keys[i], shift)];
            }
          }
        },
        ctx);
    if (stopped()) return;
    const size_t first = DigitOf(keys[0], shift);
    uint64_t first_total = 0;
    for (size_t c = 0; c < chunks; ++c) {
      first_total += hist[c * kBuckets + first];
    }
    if (first_total != n) break;
    bits = shift;
  }

  // Chunk-major exclusive prefix: within a bucket, chunk c's rows land
  // before chunk c+1's, which keeps the scatter stable.
  size_t bounds[kBuckets + 1];
  uint64_t running = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    bounds[b] = running;
    for (size_t c = 0; c < chunks; ++c) {
      uint64_t* slot = hist + c * kBuckets + b;
      const uint64_t count = *slot;
      *slot = running;
      running += count;
    }
  }
  bounds[kBuckets] = n;

  pool.ParallelFor(
      chunks,
      [&](uint64_t begin, uint64_t end, int) {
        for (size_t c = begin; c < end; ++c) {
          ScatterStaged(keys, oids, std::min(c * chunk_len, n),
                        std::min((c + 1) * chunk_len, n), shift,
                        hist + c * kBuckets, scratch_k, scratch_o);
        }
      },
      ctx);
  if (stopped()) return;

  // Buckets as morsels, largest first, so one big bucket does not start
  // last and serialize the tail.
  uint16_t order[kBuckets];
  std::iota(order, order + kBuckets, uint16_t{0});
  std::sort(order, order + kBuckets, [&](uint16_t x, uint16_t y) {
    const size_t x_len = bounds[x + 1] - bounds[x];
    const size_t y_len = bounds[y + 1] - bounds[y];
    return x_len != y_len ? x_len > y_len : x < y;
  });
  pool.ParallelForDynamic(
      kBuckets, 1,
      [&](uint64_t begin, uint64_t end, int) {
        for (uint64_t i = begin; i < end; ++i) {
          const size_t b = order[i];
          const size_t lo = bounds[b];
          SortRange(scratch_k + lo, scratch_o + lo, keys + lo, oids + lo,
                    bounds[b + 1] - lo, shift, /*into_other=*/true);
        }
      },
      ctx);
}

}  // namespace

void RadixSortPairs16(uint16_t* keys, uint32_t* oids, size_t n,
                      int key_width, SortScratch& scratch) {
  RadixSortImpl(keys, oids, n, key_width, scratch);
}

void RadixSortPairs32(uint32_t* keys, uint32_t* oids, size_t n,
                      int key_width, SortScratch& scratch) {
  RadixSortImpl(keys, oids, n, key_width, scratch);
}

void RadixSortPairs64(uint64_t* keys, uint32_t* oids, size_t n,
                      int key_width, SortScratch& scratch) {
  RadixSortImpl(keys, oids, n, key_width, scratch);
}

void RadixSortPairsBank(int bank, void* keys, uint32_t* oids, size_t n,
                        int key_width, SortScratch& scratch) {
  switch (bank) {
    case 16:
      RadixSortPairs16(static_cast<uint16_t*>(keys), oids, n, key_width,
                       scratch);
      break;
    case 32:
      RadixSortPairs32(static_cast<uint32_t*>(keys), oids, n, key_width,
                       scratch);
      break;
    case 64:
      RadixSortPairs64(static_cast<uint64_t*>(keys), oids, n, key_width,
                       scratch);
      break;
    default:
      MCSORT_CHECK(false && "unsupported bank size");
  }
}

void ParallelRadixSortPairsBank(int bank, void* keys, uint32_t* oids,
                                size_t n, int key_width, ThreadPool& pool,
                                std::vector<SortScratch>& scratches,
                                const ExecContext* ctx) {
  switch (bank) {
    case 16:
      ParallelRadixSortImpl(static_cast<uint16_t*>(keys), oids, n, key_width,
                            pool, scratches, ctx);
      break;
    case 32:
      ParallelRadixSortImpl(static_cast<uint32_t*>(keys), oids, n, key_width,
                            pool, scratches, ctx);
      break;
    case 64:
      ParallelRadixSortImpl(static_cast<uint64_t*>(keys), oids, n, key_width,
                            pool, scratches, ctx);
      break;
    default:
      MCSORT_CHECK(false && "unsupported bank size");
  }
}

}  // namespace mcsort
