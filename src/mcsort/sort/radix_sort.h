// Radix sort of (key, oid) pairs — the paper's Sec. 7 future-work
// direction ("include radix-sort into our study: the performance of
// in-memory radix-sort depends on the size of the radix... code massaging
// would allow a careful choice of the radix size when radix-sorting
// multiple columns").
//
// Unlike the SIMD merge-sort, whose cost depends on the *bank* (16/32/64),
// radix cost depends on the number of digit passes ceil(w / 8) — i.e.
// directly on the round's code width w. Code massaging therefore interacts
// with radix sorting through a different mechanism: moving a boundary bit
// can remove an entire pass. The cost model prices a round by exactly that
// pass count (CostModel's radix term reads the constants below), so ROGA
// routes rounds to this kernel.
//
// Two shapes, both stable:
//   * LSD: one read pass builds every digit's histogram (stack arrays, no
//     allocation), then one scatter pass per digit ping-pongs between the
//     arrays and scratch. A digit every key shares is skipped.
//   * MSD→LSD (Cooperman et al.'s DPG shape): a segment whose keys and
//     oids together exceed kRadixMsdMinBytes first takes one pass on its
//     top digit into scratch, which leaves 256 buckets that each fit in
//     cache; every bucket is then LSD-sorted on the remaining bits in
//     cache, ping-ponging with its own range of the input arrays, and the
//     result lands back in the input. An oversized bucket (skew) takes
//     another MSD pass; a top digit every key shares is stepped over.
// Only the low `key_width` bits participate, so narrow codes stored in
// wide types do not pay for zero digits.
#ifndef MCSORT_SORT_RADIX_SORT_H_
#define MCSORT_SORT_RADIX_SORT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mcsort/sort/simd_sort.h"

namespace mcsort {

// Digit size in bits: 256-entry histograms stay in L1.
constexpr int kRadixDigitBits = 8;

// At or below this many rows insertion sort beats the fixed per-pass
// costs (the histogram clear and prefix walks).
constexpr size_t kRadixInsertionMax = 64;

// A segment whose keys plus oids exceed this many bytes (half of a 2 MiB
// L2) takes the MSD pass before its in-cache LSD passes.
constexpr size_t kRadixMsdMinBytes = size_t{1} << 20;

// Sorts keys[0..n) ascending by their low `key_width` bits (all set bits
// must lie within them, as round codes guarantee), permuting oids
// identically; equal keys keep their input order. Scratch buffers are
// reused across calls: one key and one oid buffer of n entries.
void RadixSortPairs16(uint16_t* keys, uint32_t* oids, size_t n,
                      int key_width, SortScratch& scratch);
void RadixSortPairs32(uint32_t* keys, uint32_t* oids, size_t n,
                      int key_width, SortScratch& scratch);
void RadixSortPairs64(uint64_t* keys, uint32_t* oids, size_t n,
                      int key_width, SortScratch& scratch);

// Dispatch on the physical bank type (like SortPairsBank).
void RadixSortPairsBank(int bank, void* keys, uint32_t* oids, size_t n,
                        int key_width, SortScratch& scratch);

class ExecContext;  // common/exec_context.h
class ThreadPool;   // common/thread_pool.h

// Parallel MSD→LSD radix sort, stable like the serial one: per-chunk
// histograms of the top digit, a chunk-major exclusive prefix, a parallel
// scatter into scratches[0].u64_c / u32_c (idle during a radix round, so
// nothing is allocated per call), then the 256 buckets as dynamic morsels,
// largest first, each sorted in cache against its own range of the input
// arrays. Falls back to the serial kernel when the pool is small or n is
// small. A stoppable `ctx` is checked between phases and between morsels;
// on a stop the arrays are unspecified and the caller discards them after
// re-checking ctx.
void ParallelRadixSortPairsBank(int bank, void* keys, uint32_t* oids,
                                size_t n, int key_width, ThreadPool& pool,
                                std::vector<SortScratch>& scratches,
                                const ExecContext* ctx = nullptr);

}  // namespace mcsort

#endif  // MCSORT_SORT_RADIX_SORT_H_
