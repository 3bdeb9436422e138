// Per-column statistics feeding the cost model (Sec. 4 takes "basic
// statistics about the data such as the number of tuples, the column width,
// and the value distribution of a column (e.g., a histogram)").
//
// Besides row/distinct counts we keep an equi-width histogram over the
// *code domain* [0, 2^w) with both row and distinct counts per bucket, so
// the plan search can estimate how many distinct values the top `a` bits of
// a column take — the quantity that drives N_group / N_sort / N_code for
// massaged plans (bit-borrowing changes `a`).
#ifndef MCSORT_STORAGE_STATISTICS_H_
#define MCSORT_STORAGE_STATISTICS_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "mcsort/storage/column.h"
#include "mcsort/storage/types.h"

namespace mcsort {

// Flattened, serializable view of a ColumnStats — what the snapshot format
// (io/snapshot.cc) writes and reads, so statistics computed at ingest time
// survive a restart without a rebuild pass over the column.
struct ColumnStatsImage {
  uint64_t row_count = 0;
  uint64_t distinct_count = 0;
  Code min_code = 0;
  Code max_code = 0;
  int32_t width = 0;
  int32_t hist_bits = 0;
  std::vector<uint64_t> bucket_rows;
  std::vector<uint64_t> bucket_distinct;
};

class ColumnStats {
 public:
  ColumnStats() = default;

  // Builds statistics with one pass over the column (plus hashing for
  // distinct counts). `hist_bits` caps the histogram resolution; the
  // histogram has 2^min(hist_bits, width) buckets keyed by the code's top
  // bits.
  static ColumnStats Build(const EncodedColumn& column, int hist_bits = 12);

  // Like Build but over at most `max_rows` stride-sampled rows, with row
  // counts scaled back to the full size. Distinct counts are the sample's
  // (a lower bound) — good enough for plan search, and O(sample) instead
  // of O(n) hashing per planning call.
  static ColumnStats BuildSampled(const EncodedColumn& column,
                                  uint64_t max_rows, int hist_bits = 12);

  // The statistics of a merged image (storage/live_runs.h) derived from its
  // base's: the base histogram minus the codes of the `dead` base rows plus
  // the codes of the rows appended after the base's live rows, from
  // base_codes.size() - dead.size() on. Exact, and equal to Build(codes),
  // only when every bucket holds one code (width <= hist_bits) and the
  // base statistics counted every row; nullopt otherwise, or when
  // codes.width() differs from the base's. The image's leading rows must
  // be the base's live rows with unchanged codes.
  static std::optional<ColumnStats> Derive(const ColumnStats& base,
                                           const EncodedColumn& base_codes,
                                           const std::vector<uint32_t>& dead,
                                           const EncodedColumn& codes);

  uint64_t row_count() const { return row_count_; }
  uint64_t distinct_count() const { return distinct_count_; }
  Code min_code() const { return min_code_; }
  Code max_code() const { return max_code_; }
  int width() const { return width_; }

  // Expected number of distinct values of the top `a` bits of the column
  // (a in [0, width]): exact (nonempty aggregated buckets) for a <= the
  // histogram resolution, balls-into-bins extrapolation within buckets
  // beyond it. a == 0 returns 1; a >= width returns distinct_count().
  // O(1) after the first call per width (plan search calls this in hot
  // loops); the table is built lazily.
  double EstimateDistinctPrefixes(int a) const;

  // Order-sensitive hash of the log2-bucketed per-bucket distinct counts.
  // The plan cache folds it into its statistics fingerprint: the kernel
  // router keys on the distinct *distribution* (it decides counting vs.
  // merge rounds), so a reshaped distribution must read as drift even when
  // the total row/distinct counts happen to match.
  uint64_t DistinctSketch() const;

  // Snapshot (de)serialization support. FromImage pre-warms the prefix
  // cache like BuildSampled does, so restored stats stay race-free under
  // concurrent readers.
  ColumnStatsImage ToImage() const;
  static ColumnStats FromImage(const ColumnStatsImage& image);

 private:
  double ComputeDistinctPrefixes(int a) const;
  uint64_t row_count_ = 0;
  uint64_t distinct_count_ = 0;
  Code min_code_ = 0;
  Code max_code_ = 0;
  int width_ = 0;
  int hist_bits_ = 0;  // log2(#buckets)
  std::vector<uint64_t> bucket_rows_;
  std::vector<uint64_t> bucket_distinct_;
  // Lazily-built cache: prefix_cache_[a] = EstimateDistinctPrefixes(a).
  mutable std::vector<double> prefix_cache_;
};

// Expected number of nonempty cells when `balls` items are dropped
// uniformly into `cells` cells: cells * (1 - (1 - 1/cells)^balls).
double ExpectedOccupiedCells(double cells, double balls);

}  // namespace mcsort

#endif  // MCSORT_STORAGE_STATISTICS_H_
