#include "mcsort/storage/statistics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <unordered_set>

#include "mcsort/common/bits.h"
#include "mcsort/common/logging.h"

namespace mcsort {

double ExpectedOccupiedCells(double cells, double balls) {
  if (cells <= 1.0) return balls > 0 ? 1.0 : 0.0;
  if (balls <= 0.0) return 0.0;
  // cells * (1 - (1 - 1/cells)^balls), computed stably via expm1/log1p.
  const double log_miss = balls * std::log1p(-1.0 / cells);
  return -cells * std::expm1(log_miss);
}

ColumnStats ColumnStats::Build(const EncodedColumn& column, int hist_bits) {
  return BuildSampled(column, column.size(), hist_bits);
}

ColumnStats ColumnStats::BuildSampled(const EncodedColumn& column,
                                      uint64_t max_rows, int hist_bits) {
  ColumnStats stats;
  stats.width_ = column.width();
  stats.row_count_ = column.size();
  stats.hist_bits_ = std::min(hist_bits, column.width());
  const size_t buckets = size_t{1} << stats.hist_bits_;
  stats.bucket_rows_.assign(buckets, 0);
  stats.bucket_distinct_.assign(buckets, 0);
  if (column.size() == 0 || max_rows == 0) return stats;

  const uint64_t stride =
      column.size() <= max_rows ? 1 : (column.size() + max_rows - 1) / max_rows;
  stats.min_code_ = ~Code{0};
  stats.max_code_ = 0;
  const int shift = stats.width_ - stats.hist_bits_;
  std::unordered_set<Code> seen;
  seen.reserve(std::min<uint64_t>(column.size(), max_rows) / 4 + 16);
  uint64_t sampled = 0;
  for (size_t i = 0; i < column.size(); i += stride) {
    const Code code = column.Get(i);
    stats.min_code_ = std::min(stats.min_code_, code);
    stats.max_code_ = std::max(stats.max_code_, code);
    const size_t bucket = static_cast<size_t>(code >> shift);
    ++stats.bucket_rows_[bucket];
    if (seen.insert(code).second) {
      ++stats.bucket_distinct_[bucket];
    }
    ++sampled;
  }
  // Scale sampled row counts back to the full table.
  if (stride > 1 && sampled > 0) {
    const double scale =
        static_cast<double>(column.size()) / static_cast<double>(sampled);
    for (auto& rows : stats.bucket_rows_) {
      rows = static_cast<uint64_t>(static_cast<double>(rows) * scale + 0.5);
    }
  }
  stats.distinct_count_ = seen.size();
  // Build the prefix-distinct cache eagerly so concurrent readers never
  // race on the lazy initialization.
  stats.EstimateDistinctPrefixes(0);
  return stats;
}

std::optional<ColumnStats> ColumnStats::Derive(
    const ColumnStats& base, const EncodedColumn& base_codes,
    const std::vector<uint32_t>& dead, const EncodedColumn& codes) {
  // One code per bucket, every row counted: the histogram is the exact code
  // multiset, so subtracting and adding codes keeps it exact.
  if (base.width_ != codes.width() || base.hist_bits_ != base.width_ ||
      base.row_count_ != base_codes.size() ||
      base.bucket_rows_.size() != (size_t{1} << base.hist_bits_)) {
    return std::nullopt;
  }
  uint64_t counted = 0;
  for (uint64_t rows : base.bucket_rows_) counted += rows;
  if (counted != base.row_count_) return std::nullopt;
  MCSORT_CHECK(dead.size() <= base_codes.size());
  const size_t kept = base_codes.size() - dead.size();
  MCSORT_CHECK(kept <= codes.size());

  ColumnStats stats;
  stats.width_ = base.width_;
  stats.hist_bits_ = base.hist_bits_;
  stats.row_count_ = codes.size();
  stats.bucket_rows_ = base.bucket_rows_;
  for (uint32_t oid : dead) {
    uint64_t& rows = stats.bucket_rows_[static_cast<size_t>(base_codes.Get(oid))];
    MCSORT_CHECK(rows > 0);
    --rows;
  }
  for (size_t i = kept; i < codes.size(); ++i) {
    ++stats.bucket_rows_[static_cast<size_t>(codes.Get(i))];
  }
  stats.bucket_distinct_.assign(stats.bucket_rows_.size(), 0);
  bool any = false;
  for (size_t code = 0; code < stats.bucket_rows_.size(); ++code) {
    if (stats.bucket_rows_[code] == 0) continue;
    stats.bucket_distinct_[code] = 1;
    ++stats.distinct_count_;
    if (!any) stats.min_code_ = code;
    stats.max_code_ = code;
    any = true;
  }
  stats.EstimateDistinctPrefixes(0);
  return stats;
}

uint64_t ColumnStats::DistinctSketch() const {
  // FNV-1a over log2 buckets: insensitive to small per-bucket jitter,
  // sensitive to which buckets hold distinct mass and roughly how much.
  uint64_t hash = 1469598103934665603ull;
  const auto mix = [&hash](uint64_t v) {
    const int log2 = v == 0 ? 0 : std::bit_width(v);
    hash ^= static_cast<uint64_t>(log2);
    hash *= 1099511628211ull;
  };
  mix(static_cast<uint64_t>(hist_bits_));
  for (uint64_t d : bucket_distinct_) mix(d);
  return hash;
}

ColumnStatsImage ColumnStats::ToImage() const {
  ColumnStatsImage image;
  image.row_count = row_count_;
  image.distinct_count = distinct_count_;
  image.min_code = min_code_;
  image.max_code = max_code_;
  image.width = width_;
  image.hist_bits = hist_bits_;
  image.bucket_rows = bucket_rows_;
  image.bucket_distinct = bucket_distinct_;
  return image;
}

ColumnStats ColumnStats::FromImage(const ColumnStatsImage& image) {
  ColumnStats stats;
  stats.row_count_ = image.row_count;
  stats.distinct_count_ = image.distinct_count;
  stats.min_code_ = image.min_code;
  stats.max_code_ = image.max_code;
  stats.width_ = image.width;
  stats.hist_bits_ = image.hist_bits;
  stats.bucket_rows_ = image.bucket_rows;
  stats.bucket_distinct_ = image.bucket_distinct;
  stats.EstimateDistinctPrefixes(0);
  return stats;
}

double ColumnStats::EstimateDistinctPrefixes(int a) const {
  MCSORT_CHECK(a >= 0);
  if (a > width_) a = width_;
  if (prefix_cache_.empty()) {
    prefix_cache_.resize(static_cast<size_t>(width_) + 1);
    for (int bits = 0; bits <= width_; ++bits) {
      prefix_cache_[static_cast<size_t>(bits)] = ComputeDistinctPrefixes(bits);
    }
  }
  return prefix_cache_[static_cast<size_t>(a)];
}

double ColumnStats::ComputeDistinctPrefixes(int a) const {
  if (row_count_ == 0) return 0.0;
  if (a == 0) return 1.0;
  if (a >= width_) return static_cast<double>(distinct_count_);
  if (a <= hist_bits_) {
    // Aggregate 2^(hist_bits - a) adjacent buckets per prefix and count the
    // nonempty groups — exact given the histogram.
    const size_t group = size_t{1} << (hist_bits_ - a);
    double nonempty = 0.0;
    for (size_t start = 0; start < bucket_rows_.size(); start += group) {
      uint64_t rows = 0;
      for (size_t j = 0; j < group; ++j) rows += bucket_rows_[start + j];
      if (rows > 0) nonempty += 1.0;
    }
    return nonempty;
  }
  // Each histogram bucket spans 2^(a - hist_bits) prefix cells; spread the
  // bucket's distinct values uniformly across them.
  const double cells = std::pow(2.0, a - hist_bits_);
  double total = 0.0;
  for (size_t b = 0; b < bucket_distinct_.size(); ++b) {
    if (bucket_distinct_[b] == 0) continue;
    total += ExpectedOccupiedCells(
        cells, static_cast<double>(bucket_distinct_[b]));
  }
  return total;
}

}  // namespace mcsort
