// Internal merge machinery shared by the SIMD merge-sort driver: per-bank
// operation traits, the streaming binary run merge, merge-path
// partitioning, and the four-way (F = 4) out-of-cache merge pass of
// Eq. 8's merge tree.
//
// The four-way merge halves the number of out-of-cache passes relative to
// binary merging: each pass pulls four runs through two L2-resident
// staging buffers (leaf merges) and one root merge, so every element moves
// through main memory once per pass instead of twice. Resumability of the
// leaf merges is obtained without carrying register state across calls:
// a merge-path split (diagonal binary search) finds exactly the slices of
// the two runs that produce the next `cap` outputs, and the ordinary
// complete MergeRuns runs on those slices.
//
// Internal header: included only by sort/*.cc and white-box tests.
#ifndef MCSORT_SORT_MERGE_INTERNAL_H_
#define MCSORT_SORT_MERGE_INTERNAL_H_

#include <algorithm>
#include <cstring>
#include <vector>

#include "mcsort/common/aligned_buffer.h"
#include "mcsort/common/exec_context.h"
#include "mcsort/common/logging.h"
#include "mcsort/common/thread_pool.h"
#include "mcsort/simd/kernels32.h"
#include "mcsort/simd/kernels64.h"
#include "mcsort/simd/simd.h"
#include "mcsort/sort/scalar_kernels.h"

#if MCSORT_HAVE_AVX2

namespace mcsort {
namespace sort_internal {

// Elements produced per stream pull when a stoppable context asks for
// chunked pair merges: large enough to amortize the per-chunk split /
// state save, small enough (a few ms of merging) to bound the stop
// latency.
constexpr size_t kStopMergeChunkElems = size_t{1} << 19;

// ---------------------------------------------------------------------------
// Bank traits
// ---------------------------------------------------------------------------

struct Ops32 {
  using Key = uint32_t;
  using Pay = uint32_t;
  using KV = simd32::KV;
  static constexpr size_t kLanes = 8;

  static KV Load(const Key* k, const Pay* p) {
    return {_mm256_loadu_si256(reinterpret_cast<const __m256i*>(k)),
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))};
  }
  static void Store(const KV& v, Key* k, Pay* p) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(k), v.key);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v.pay);
  }
  static void Merge2(KV& a, KV& b) { simd32::BitonicMerge16(a, b); }
  static void SortBlock(Key* k, Pay* p) { simd32::SortBlock64(k, p); }
};

struct Ops64 {
  using Key = uint64_t;
  using Pay = uint64_t;
  using KV = simd64::KV;
  static constexpr size_t kLanes = 4;

  static KV Load(const Key* k, const Pay* p) {
    return {_mm256_loadu_si256(reinterpret_cast<const __m256i*>(k)),
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))};
  }
  static void Store(const KV& v, Key* k, Pay* p) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(k), v.key);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v.pay);
  }
  static void Merge2(KV& a, KV& b) { simd64::BitonicMerge8(a, b); }
  static void SortBlock(Key* k, Pay* p) { simd64::SortBlock16(k, p); }
};

// ---------------------------------------------------------------------------
// Streaming binary run merge (complete inputs)
// ---------------------------------------------------------------------------

// Merges sorted runs A and B into the output arrays. SIMD streaming merge
// with the classic refill rule (load next register from the run whose head
// is smaller); once either run has less than a register left, the held
// register plus the short tail merge scalar and MergeSmallWithRun finishes
// against the long remainder with galloping + memcpy.
template <typename Ops>
void MergeRuns(const typename Ops::Key* ka, const typename Ops::Pay* pa,
               size_t na, const typename Ops::Key* kb,
               const typename Ops::Pay* pb, size_t nb,
               typename Ops::Key* out_k, typename Ops::Pay* out_p) {
  using Key = typename Ops::Key;
  using Pay = typename Ops::Pay;
  constexpr size_t kLanes = Ops::kLanes;

  if (na < kLanes || nb < kLanes) {
    if (na <= nb) {
      MergeSmallWithRun(ka, pa, na, kb, pb, nb, out_k, out_p);
    } else {
      MergeSmallWithRun(kb, pb, nb, ka, pa, na, out_k, out_p);
    }
    return;
  }

  typename Ops::KV va = Ops::Load(ka, pa);
  typename Ops::KV vb = Ops::Load(kb, pb);
  size_t ia = kLanes;
  size_t ib = kLanes;
  size_t out = 0;
  for (;;) {
    Ops::Merge2(va, vb);  // va = low half (sorted), vb = high half (sorted)
    Ops::Store(va, out_k + out, out_p + out);
    out += kLanes;
    const bool a_has = ia + kLanes <= na;
    const bool b_has = ib + kLanes <= nb;
    if (a_has && b_has) {
      if (ka[ia] <= kb[ib]) {
        va = Ops::Load(ka + ia, pa + ia);
        ia += kLanes;
      } else {
        va = Ops::Load(kb + ib, pb + ib);
        ib += kLanes;
      }
    } else {
      break;
    }
  }

  alignas(kSimdAlignment) Key spill_k[kLanes];
  alignas(kSimdAlignment) Pay spill_p[kLanes];
  Ops::Store(vb, spill_k, spill_p);
  const size_t tail_a = na - ia;
  const size_t tail_b = nb - ib;
  Key small_k[3 * kLanes];
  Pay small_p[3 * kLanes];
  if (tail_a <= tail_b) {
    MCSORT_DCHECK(tail_a < kLanes);
    MergeScalar(spill_k, spill_p, kLanes, ka + ia, pa + ia, tail_a, small_k,
                small_p);
    MergeSmallWithRun(small_k, small_p, kLanes + tail_a, kb + ib, pb + ib,
                      tail_b, out_k + out, out_p + out);
  } else {
    MCSORT_DCHECK(tail_b < kLanes);
    MergeScalar(spill_k, spill_p, kLanes, kb + ib, pb + ib, tail_b, small_k,
                small_p);
    MergeSmallWithRun(small_k, small_p, kLanes + tail_b, ka + ia, pa + ia,
                      tail_a, out_k + out, out_p + out);
  }
}

// One binary merge pass with run length `run` over src[begin, end).
template <typename Ops>
void MergePass(const typename Ops::Key* src_k, const typename Ops::Pay* src_p,
               typename Ops::Key* dst_k, typename Ops::Pay* dst_p,
               size_t begin, size_t end, size_t run) {
  using Key = typename Ops::Key;
  using Pay = typename Ops::Pay;
  for (size_t i = begin; i < end; i += 2 * run) {
    const size_t mid = std::min(i + run, end);
    const size_t stop = std::min(i + 2 * run, end);
    if (mid >= stop) {  // lone (already sorted) run: carry over
      std::memcpy(dst_k + i, src_k + i, (stop - i) * sizeof(Key));
      std::memcpy(dst_p + i, src_p + i, (stop - i) * sizeof(Pay));
    } else {
      MergeRuns<Ops>(src_k + i, src_p + i, mid - i, src_k + mid, src_p + mid,
                     stop - mid, dst_k + i, dst_p + i);
    }
  }
}

// ---------------------------------------------------------------------------
// Merge-path partitioning
// ---------------------------------------------------------------------------

// Number of elements taken from A among the k smallest of A ∪ B (merge
// semantics; ties resolve arbitrarily, which multi-column sorting allows).
// Standard "k-th element of two sorted arrays" binary search: find x with
//   a[x-1] <= b[k-x]   and   b[k-x-1] <= a[x]
// where out-of-range accesses count as -inf / +inf.
template <typename K>
size_t MergePathSplit(const K* a, size_t na, const K* b, size_t nb,
                      size_t k) {
  MCSORT_DCHECK(k <= na + nb);
  size_t lo = k > nb ? k - nb : 0;
  size_t hi = std::min(k, na);
  while (lo < hi) {
    const size_t x = lo + (hi - lo) / 2;  // take x from A, k-x from B
    if (x < na && k - x >= 1 && a[x] < b[k - x - 1]) {
      lo = x + 1;  // a[x] must be included: take more from A
    } else {
      MCSORT_DCHECK(x >= lo);
      // Here either x == na, or k-x == 0, or a[x] >= b[k-x-1]; check the
      // symmetric condition to know whether x is feasible or too large.
      if (x >= 1 && k - x < nb && b[k - x] < a[x - 1]) {
        hi = x;  // a[x-1] must NOT be included yet: take fewer from A
      } else {
        return x;
      }
    }
  }
  return lo;
}

// ---------------------------------------------------------------------------
// Four-way out-of-cache merge pass
// ---------------------------------------------------------------------------

// Streams the merge of two sorted runs in caller-sized chunks. Each Pull
// uses a merge-path split to cut exact input slices for the requested
// output size, then runs the complete MergeRuns on them — no cross-call
// register state. Degenerates to chunked memcpy when one run is empty.
template <typename Ops>
class RunPairStream {
 public:
  using Key = typename Ops::Key;
  using Pay = typename Ops::Pay;

  void Init(const Key* ka, const Pay* pa, size_t na, const Key* kb,
            const Pay* pb, size_t nb) {
    ka_ = ka;
    pa_ = pa;
    na_ = na;
    kb_ = kb;
    pb_ = pb;
    nb_ = nb;
  }

  size_t remaining() const { return na_ + nb_; }

  // Produces up to `cap` next elements of the merged stream; returns the
  // count (0 iff exhausted).
  size_t Pull(Key* out_k, Pay* out_p, size_t cap) {
    const size_t k = std::min(cap, remaining());
    if (k == 0) return 0;
    if (nb_ == 0 || na_ == 0) {
      const bool from_a = nb_ == 0;
      const Key* k_src = from_a ? ka_ : kb_;
      const Pay* p_src = from_a ? pa_ : pb_;
      std::memcpy(out_k, k_src, k * sizeof(Key));
      std::memcpy(out_p, p_src, k * sizeof(Pay));
      Advance(from_a ? k : 0, from_a ? 0 : k);
      return k;
    }
    const size_t x = MergePathSplit(ka_, na_, kb_, nb_, k);
    const size_t y = k - x;
    if (x == 0 || y == 0) {
      // One-sided chunk: plain copy.
      const bool from_a = y == 0;
      std::memcpy(out_k, from_a ? ka_ : kb_, k * sizeof(Key));
      std::memcpy(out_p, from_a ? pa_ : pb_, k * sizeof(Pay));
      Advance(from_a ? k : 0, from_a ? 0 : k);
      return k;
    }
    MergeRuns<Ops>(ka_, pa_, x, kb_, pb_, y, out_k, out_p);
    Advance(x, y);
    return k;
  }

 private:
  void Advance(size_t da, size_t db) {
    ka_ += da;
    pa_ += da;
    na_ -= da;
    kb_ += db;
    pb_ += db;
    nb_ -= db;
  }

  const Key* ka_ = nullptr;
  const Pay* pa_ = nullptr;
  size_t na_ = 0;
  const Key* kb_ = nullptr;
  const Pay* pb_ = nullptr;
  size_t nb_ = 0;
};

// Staging buffers for one four-way merge (leaf outputs); L2-resident.
template <typename Ops>
struct FourWayScratch {
  using Key = typename Ops::Key;
  using Pay = typename Ops::Pay;
  // Elements per staging buffer; two buffers (keys+pays each) stay well
  // within L2 alongside the streamed runs.
  static constexpr size_t kStageElems = 16384;

  AlignedBuffer<Key> keys_ab, keys_cd;
  AlignedBuffer<Pay> pays_ab, pays_cd;

  void Ensure() {
    keys_ab.EnsureDiscard(kStageElems);
    keys_cd.EnsureDiscard(kStageElems);
    pays_ab.EnsureDiscard(kStageElems);
    pays_cd.EnsureDiscard(kStageElems);
  }
};

// Merges four adjacent sorted runs of `src` (boundaries b0 <= b1 <= b2 <=
// b3 <= b4, any of which may coincide for missing runs) into dst[b0, b4).
// One pass over main memory; leaf merges refill the staging buffers and
// the root emits with upper-bound-limited MergeRuns calls so every emitted
// element is final.
template <typename Ops>
void FourWayMerge(const typename Ops::Key* src_k,
                  const typename Ops::Pay* src_p, typename Ops::Key* dst_k,
                  typename Ops::Pay* dst_p, size_t b0, size_t b1, size_t b2,
                  size_t b3, size_t b4, FourWayScratch<Ops>* scratch) {
  using Key = typename Ops::Key;
  using Pay = typename Ops::Pay;
  scratch->Ensure();

  RunPairStream<Ops> ab;
  ab.Init(src_k + b0, src_p + b0, b1 - b0, src_k + b1, src_p + b1, b2 - b1);
  RunPairStream<Ops> cd;
  cd.Init(src_k + b2, src_p + b2, b3 - b2, src_k + b3, src_p + b3, b4 - b3);

  Key* stage_ab_k = scratch->keys_ab.data();
  Pay* stage_ab_p = scratch->pays_ab.data();
  Key* stage_cd_k = scratch->keys_cd.data();
  Pay* stage_cd_p = scratch->pays_cd.data();
  constexpr size_t kStage = FourWayScratch<Ops>::kStageElems;

  // Heads/lengths of the staged (not yet emitted) leaf output.
  size_t ab_head = 0, ab_len = 0;
  size_t cd_head = 0, cd_len = 0;
  size_t out = b0;

  const auto refill_ab = [&] {
    ab_head = 0;
    ab_len = ab.Pull(stage_ab_k, stage_ab_p, kStage);
  };
  const auto refill_cd = [&] {
    cd_head = 0;
    cd_len = cd.Pull(stage_cd_k, stage_cd_p, kStage);
  };
  refill_ab();
  refill_cd();

  while (ab_len > 0 && cd_len > 0) {
    // Emit the staging buffer whose last element is smaller, merged with
    // the prefix of the other buffer bounded by that element — safe: all
    // future elements of both sides are >= the bound.
    const Key* a_k = stage_ab_k + ab_head;
    const Pay* a_p = stage_ab_p + ab_head;
    const Key* c_k = stage_cd_k + cd_head;
    const Pay* c_p = stage_cd_p + cd_head;
    if (a_k[ab_len - 1] <= c_k[cd_len - 1]) {
      const size_t y = static_cast<size_t>(
          std::upper_bound(c_k, c_k + cd_len, a_k[ab_len - 1]) - c_k);
      MergeRuns<Ops>(a_k, a_p, ab_len, c_k, c_p, y, dst_k + out,
                     dst_p + out);
      out += ab_len + y;
      cd_head += y;
      cd_len -= y;
      refill_ab();
      if (cd_len == 0) refill_cd();
    } else {
      const size_t x = static_cast<size_t>(
          std::upper_bound(a_k, a_k + ab_len, c_k[cd_len - 1]) - a_k);
      MergeRuns<Ops>(c_k, c_p, cd_len, a_k, a_p, x, dst_k + out,
                     dst_p + out);
      out += cd_len + x;
      ab_head += x;
      ab_len -= x;
      refill_cd();
      if (ab_len == 0) refill_ab();
    }
  }
  // One side exhausted: flush the other (staged chunk, then the stream).
  while (ab_len > 0) {
    std::memcpy(dst_k + out, stage_ab_k + ab_head, ab_len * sizeof(Key));
    std::memcpy(dst_p + out, stage_ab_p + ab_head, ab_len * sizeof(Pay));
    out += ab_len;
    refill_ab();
  }
  while (cd_len > 0) {
    std::memcpy(dst_k + out, stage_cd_k + cd_head, cd_len * sizeof(Key));
    std::memcpy(dst_p + out, stage_cd_p + cd_head, cd_len * sizeof(Pay));
    out += cd_len;
    refill_cd();
  }
  MCSORT_DCHECK(out == b4);
}

// One four-way merge pass with run length `run` over src[begin, end).
template <typename Ops>
void FourWayMergePass(const typename Ops::Key* src_k,
                      const typename Ops::Pay* src_p,
                      typename Ops::Key* dst_k, typename Ops::Pay* dst_p,
                      size_t begin, size_t end, size_t run,
                      FourWayScratch<Ops>* scratch) {
  for (size_t i = begin; i < end; i += 4 * run) {
    const size_t b1 = std::min(i + run, end);
    const size_t b2 = std::min(i + 2 * run, end);
    const size_t b3 = std::min(i + 3 * run, end);
    const size_t b4 = std::min(i + 4 * run, end);
    FourWayMerge<Ops>(src_k, src_p, dst_k, dst_p, i, b1, b2, b3, b4,
                      scratch);
  }
}

// ---------------------------------------------------------------------------
// Parallel pairwise merge passes
// ---------------------------------------------------------------------------

// Merges adjacent sorted runs of length `part_len` in (keys, pays) by
// parallel pairwise passes, ping-ponging with (alt_k, alt_p); each pass
// dispatches one pool item per merge pair (a single lone pair still runs
// concurrently via the pool's dynamic small-n path, each side streamed by
// MergeRuns). Guarantees the result ends up back in (keys, pays). Shared
// by the per-bank parallel whole-array sorts.
//
// A stoppable `ctx` is checked between passes, and each pair merge is
// streamed through RunPairStream in kStopMergeChunkElems chunks with a
// check between pulls — late passes merge two huge runs, so a claim-level
// check alone would not bound the stop latency. On a stop the array
// contents are unspecified (the caller discards them after re-checking
// ctx); the buffers always end up in a defined, fully-written state.
template <typename Ops>
void ParallelMergePasses(typename Ops::Key* keys, typename Ops::Pay* pays,
                         typename Ops::Key* alt_k, typename Ops::Pay* alt_p,
                         size_t n, size_t part_len, ThreadPool& pool,
                         const ExecContext* ctx = nullptr) {
  using Key = typename Ops::Key;
  using Pay = typename Ops::Pay;
  const bool stoppable = ctx != nullptr && ctx->stoppable();
  Key* cur_k = keys;
  Pay* cur_p = pays;
  for (size_t run = part_len; run < n; run *= 2) {
    if (stoppable && ctx->StopRequested()) break;
    const size_t num_pairs = (n + 2 * run - 1) / (2 * run);
    pool.ParallelFor(
        num_pairs,
        [&](uint64_t begin, uint64_t end, int) {
          for (uint64_t pair = begin; pair < end; ++pair) {
            const size_t i = static_cast<size_t>(pair) * 2 * run;
            const size_t mid = std::min(i + run, n);
            const size_t stop = std::min(i + 2 * run, n);
            if (!stoppable) {
              if (mid >= stop) {  // lone (already sorted) run: carry over
                std::memcpy(alt_k + i, cur_k + i, (stop - i) * sizeof(Key));
                std::memcpy(alt_p + i, cur_p + i, (stop - i) * sizeof(Pay));
              } else {
                MergeRuns<Ops>(cur_k + i, cur_p + i, mid - i, cur_k + mid,
                               cur_p + mid, stop - mid, alt_k + i,
                               alt_p + i);
              }
              continue;
            }
            // Chunked resumable merge (lone runs degenerate to chunked
            // memcpy inside the stream).
            RunPairStream<Ops> stream;
            stream.Init(cur_k + i, cur_p + i, mid - i, cur_k + mid,
                        cur_p + mid, stop > mid ? stop - mid : 0);
            size_t out = i;
            while (stream.remaining() > 0) {
              if (ctx->StopRequested()) return;
              out += stream.Pull(alt_k + out, alt_p + out,
                                 kStopMergeChunkElems);
            }
          }
        },
        ctx);
    std::swap(cur_k, alt_k);
    std::swap(cur_p, alt_p);
  }
  if (cur_k != keys) {
    std::memcpy(keys, cur_k, n * sizeof(Key));
    std::memcpy(pays, cur_p, n * sizeof(Pay));
  }
}

}  // namespace sort_internal
}  // namespace mcsort

#endif  // MCSORT_HAVE_AVX2
#endif  // MCSORT_SORT_MERGE_INTERNAL_H_
