// Calibrated constants of the architectural cost model (Sec. 4, Table 3's
// "C" symbols). All time-like constants are in CPU cycles per unit.
#ifndef MCSORT_COST_PARAMS_H_
#define MCSORT_COST_PARAMS_H_

#include <cstddef>
#include <cstdint>

namespace mcsort {

// Per-bank merge-sort constants (Eqs. 2, 6, 7, 8).
struct BankSortParams {
  // C_overhead: fixed cycles per SIMD-sort invocation (function setup,
  // scratch bookkeeping).
  double overhead = 300.0;
  // C_sort-network: cycles per code of the in-register phase.
  double sort_network = 2.5;
  // C_in-cache-merge: cycles per code of the in-cache merge phase.
  double in_cache_merge = 2.5;
  // C_out-of-cache-merge: cycles per code per out-of-cache pass.
  double out_of_cache_merge = 2.0;
};

// Counting kernel constants (sort/counting_sort.h): histogram + prefix +
// stable scatter + key regeneration, O(N + K) with K = 2^width.
struct CountingSortParams {
  // Fixed cycles per invocation.
  double overhead = 300.0;
  // Cycles per *domain value* (prefix walk + regeneration, the O(K) part).
  double per_bucket = 2.0;
  // Cycles per row when the histogram is cache-resident...
  double row_cache = 3.0;
  // ...and when histogram updates miss (large domains): the cost model
  // blends the two by the same cache-hit heuristic it uses for lookups.
  double row_mem = 12.0;
};

// Coordinator-merge constants (dist/coordinator.h): the loser-tree
// multiway merge of pre-sorted shard result streams. Costed per element
// per tree level (ceil(log2 fan_in) comparisons each, most decided by a
// one-word offset-value-code compare) plus a per-key-byte term for the
// 128-bit composite keys the comparisons occasionally touch.
struct CoordMergeParams {
  // Fixed cycles per merge invocation (tree construction, stream setup).
  double overhead = 5000.0;
  // Cycles per element per loser-tree level (code compare + replay step).
  double per_element = 8.0;
  // Cycles per key byte touched on the equal-code full-compare path,
  // amortized over all elements.
  double per_key_byte = 0.5;
};

// External-sort (spill) constants (sort/external/): the cost of pushing
// rows through run files and the K-way merge, used by the executor's
// spill-vs-degrade router. IO is costed in cycles per run-file byte so a
// page-cache-resident spill directory and a real disk calibrate to very
// different routing points; the merge's CPU term reuses CoordMergeParams.
struct SpillParams {
  // Fixed cycles per spilling sort (directory setup, file opens).
  double overhead = 20000.0;
  // Cycles per run-file byte on the generation (write) side.
  double write_per_byte = 1.0;
  // Cycles per run-file byte on the merge (read) side.
  double read_per_byte = 1.0;
  // Cycles per row for composite-key construction + run sinking.
  double key_build_per_row = 12.0;
};

struct CostParams {
  // C_cache / C_mem: access latency of one item in cache vs. memory
  // (Eq. 3).
  double cache_cycles = 15.0;
  double mem_cycles = 150.0;
  // C_massage: cycles per code per FIP invocation (Eq. 4).
  double massage_cycles = 1.5;
  // C_scan: cycles per code of a group-extraction scan (Eq. 9).
  double scan_cycles = 2.0;

  BankSortParams bank16;
  BankSortParams bank32;
  BankSortParams bank64;

  CountingSortParams counting;
  CoordMergeParams coord_merge;
  SpillParams spill;

  // M_LLC / M_L2 as used by the model (bytes). The LLC figure is the
  // *effective* value used in the cache-hit-ratio formula; calibration fits
  // C_cache/C_mem against it.
  size_t llc_bytes = 8u << 20;
  size_t l2_bytes = 256u << 10;
  // F: fanout of the out-of-cache merge. The sort implementation uses
  // four-way merge-tree passes (two L2-resident staging levels), so F = 4;
  // the final pass over two remaining runs is binary.
  int merge_fanout = 4;
  // Nominal frequency (cycles per nanosecond) for cycles <-> seconds.
  double ghz = 2.0;

  const BankSortParams& bank(int bank_bits) const {
    switch (bank_bits) {
      case 16: return bank16;
      case 32: return bank32;
      default: return bank64;
    }
  }
  BankSortParams& mutable_bank(int bank_bits) {
    switch (bank_bits) {
      case 16: return bank16;
      case 32: return bank32;
      default: return bank64;
    }
  }

  // Reasonable uncalibrated defaults with hardware sizes filled in from
  // CpuInfo. Use Calibrate() (cost/calibration.h) for measured constants.
  static CostParams Default();
};

}  // namespace mcsort

#endif  // MCSORT_COST_PARAMS_H_
