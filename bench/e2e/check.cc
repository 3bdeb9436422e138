// Plan-independent result digests, and the reference each is compared
// with (see Digest in e2e.h).
#include <algorithm>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "bench/e2e/e2e.h"

namespace mcsort {
namespace e2e {
namespace {

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  h = (h ^ (h >> 31)) * 0xBF58476D1CE4E5B9ull;
  return h ^ (h >> 29);
}

// Finalizer applied before summing, so that the additive multiset hash
// does not cancel on structured inputs.
uint64_t Avalanche(uint64_t h) {
  h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
  h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
  return h ^ (h >> 31);
}

uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

std::vector<const EncodedColumn*> Columns(const Table& table,
                                          const std::vector<std::string>& names) {
  std::vector<const EncodedColumn*> cols;
  for (const std::string& name : names) cols.push_back(&table.column(name));
  return cols;
}

bool SameKey(const std::vector<const EncodedColumn*>& cols, Oid a, Oid b) {
  for (const EncodedColumn* col : cols) {
    if (col->Get(a) != col->Get(b)) return false;
  }
  return true;
}

void DigestGroups(const Table& table, const QuerySpec& spec,
                  const ResultView& r, Digest* d) {
  const std::vector<uint32_t>& oids = *r.oids;
  if (oids.empty()) return;  // nothing passed the filters: no groups
  const std::vector<const EncodedColumn*> keys = Columns(table, spec.group_by);
  std::vector<uint32_t> starts;
  if (r.group_bounds != nullptr && r.group_bounds->size() > 1) {
    starts.assign(r.group_bounds->begin(), r.group_bounds->end() - 1);
  } else {
    for (size_t i = 0; i < oids.size(); ++i) {
      if (i == 0 || !SameKey(keys, oids[i], oids[i - 1])) {
        starts.push_back(static_cast<uint32_t>(i));
      }
    }
  }
  const size_t groups = starts.size();
  d->groups = groups;
  const std::vector<std::vector<int64_t>>& aggs = *r.aggregates;
  size_t avg_specs = 0;
  for (const AggregateSpec& agg : spec.aggregates) {
    if (agg.op == AggOp::kAvg && !agg.column.empty()) ++avg_specs;
  }
  if (aggs.size() != spec.aggregates.size() ||
      r.avg->size() != avg_specs * groups) {
    d->valid = false;
    return;
  }
  for (const std::vector<int64_t>& values : aggs) {
    if (values.size() != groups) {
      d->valid = false;
      return;
    }
  }
  for (size_t g = 0; g < groups; ++g) {
    if (starts[g] >= oids.size()) {
      d->valid = false;
      return;
    }
    uint64_t h = 0;
    for (const EncodedColumn* col : keys) h = Mix(h, col->Get(oids[starts[g]]));
    for (const std::vector<int64_t>& values : aggs) {
      h = Mix(h, static_cast<uint64_t>(values[g]));
    }
    for (size_t k = 0; k < avg_specs; ++k) {
      h = Mix(h, DoubleBits((*r.avg)[k * groups + g]));
    }
    d->multiset += Avalanche(h);
  }
  if (spec.result_order.empty()) return;
  const std::vector<uint32_t>& order = *r.group_order;
  if (order.size() != groups) {
    d->valid = false;
    return;
  }
  for (uint32_t g : order) {
    if (g >= groups) {
      d->valid = false;
      return;
    }
    for (const ResultOrderSpec& key : spec.result_order) {
      uint64_t value = 0;
      if (key.key.rfind("agg:", 0) == 0) {
        const size_t idx = std::stoul(key.key.substr(4));
        if (idx >= aggs.size()) {
          d->valid = false;
          return;
        }
        value = static_cast<uint64_t>(aggs[idx][g]);
      } else {
        value = table.column(key.key).Get(oids[starts[g]]);
      }
      d->sequence = Mix(d->sequence, value);
    }
  }
}

void DigestPartitions(const Table& table, const QuerySpec& spec,
                      const ResultView& r, Digest* d) {
  const std::vector<uint32_t>& oids = *r.oids;
  const std::vector<uint32_t>& ranks = *r.ranks;
  if (ranks.size() != oids.size()) {
    d->valid = false;
    return;
  }
  const std::vector<const EncodedColumn*> keys =
      Columns(table, spec.partition_by);
  const EncodedColumn& window = table.column(spec.window_order_column);
  for (size_t i = 0; i < oids.size(); ++i) {
    uint64_t h = 0;
    for (const EncodedColumn* col : keys) h = Mix(h, col->Get(oids[i]));
    h = Mix(h, window.Get(oids[i]));
    d->multiset += Avalanche(Mix(h, ranks[i]));
  }
}

void DigestOrder(const Table& table, const QuerySpec& spec,
                 const ResultView& r, Digest* d) {
  std::vector<const EncodedColumn*> keys;
  for (const auto& [name, order] : spec.order_by) {
    keys.push_back(&table.column(name));
  }
  for (uint32_t oid : *r.oids) {
    for (const EncodedColumn* col : keys) {
      d->sequence = Mix(d->sequence, col->Get(oid));
    }
  }
}

uint64_t HashWords(uint64_t seed, const void* data, size_t bytes) {
  // Four independent lanes keep the multiplies from serializing.
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t lane[4] = {seed, seed + 1, seed + 2, seed + 3};
  size_t i = 0;
  for (; i + 32 <= bytes; i += 32) {
    for (int k = 0; k < 4; ++k) {
      uint64_t w = 0;
      std::memcpy(&w, p + i + 8 * k, 8);
      lane[k] = (lane[k] ^ w) * 0x9E3779B97F4A7C15ull;
      lane[k] ^= lane[k] >> 29;
    }
  }
  uint64_t h = Mix(Mix(lane[0], lane[1]), Mix(lane[2], lane[3]));
  for (; i < bytes; ++i) h = Mix(h, p[i]);
  return Mix(h, bytes);
}

template <typename T>
uint64_t HashVector(uint64_t h, const std::vector<T>* v) {
  return v == nullptr ? Mix(h, 0) : HashWords(h, v->data(), v->size() * sizeof(T));
}

// Order-dependent hash of every array of the payload.
uint64_t RawHash(const ResultView& r) {
  uint64_t h = HashVector(1, r.oids);
  if (r.aggregates != nullptr) {
    for (const std::vector<int64_t>& values : *r.aggregates) {
      h = HashVector(h, &values);
    }
  }
  h = HashVector(h, r.avg);
  h = HashVector(h, r.ranks);
  h = HashVector(h, r.group_order);
  return HashVector(h, r.group_bounds);
}

// --- The reference: each query answered by plain C++ over the table -------

std::vector<uint32_t> FilteredRows(const Table& table, const QuerySpec& spec) {
  std::vector<const EncodedColumn*> cols;
  for (const FilterSpec& f : spec.filters) cols.push_back(&table.column(f.column));
  std::vector<uint32_t> rows;
  for (size_t r = 0; r < table.row_count(); ++r) {
    bool keep = true;
    for (size_t i = 0; i < cols.size() && keep; ++i) {
      const FilterSpec& f = spec.filters[i];
      const Code v = cols[i]->Get(r);
      if (f.is_between) {
        keep = f.literal <= v && v <= f.literal2;
        continue;
      }
      switch (f.op) {
        case CompareOp::kLess: keep = v < f.literal; break;
        case CompareOp::kLessEq: keep = v <= f.literal; break;
        case CompareOp::kGreater: keep = v > f.literal; break;
        case CompareOp::kGreaterEq: keep = v >= f.literal; break;
        case CompareOp::kEq: keep = v == f.literal; break;
        case CompareOp::kNeq: keep = v != f.literal; break;
      }
    }
    if (keep) rows.push_back(static_cast<uint32_t>(r));
  }
  return rows;
}

// Sorts `rows` by their tuple of `cols` codes, descending where `desc` says.
void SortRows(const std::vector<const EncodedColumn*>& cols,
              const std::vector<bool>& desc, std::vector<uint32_t>* rows) {
  const size_t k = cols.size();
  const size_t n = rows->size();
  std::vector<uint64_t> keys(n * k);
  for (size_t i = 0; i < n; ++i) {
    for (size_t c = 0; c < k; ++c) {
      const uint64_t v = cols[c]->Get((*rows)[i]);
      keys[i * k + c] = desc[c] ? ~v : v;
    }
  }
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return std::lexicographical_compare(
        keys.begin() + a * k, keys.begin() + (a + 1) * k,
        keys.begin() + b * k, keys.begin() + (b + 1) * k);
  });
  std::vector<uint32_t> sorted(n);
  for (size_t i = 0; i < n; ++i) sorted[i] = (*rows)[order[i]];
  *rows = std::move(sorted);
}

void ReferenceGroups(const Table& table, const QuerySpec& spec,
                     std::vector<uint32_t> rows, Digest* d) {
  const std::vector<const EncodedColumn*> keys = Columns(table, spec.group_by);
  SortRows(keys, std::vector<bool>(keys.size(), false), &rows);
  const size_t num_aggs = spec.aggregates.size();
  std::vector<const EncodedColumn*> measures(num_aggs, nullptr);
  std::vector<int64_t> bases(num_aggs, 0);
  for (size_t a = 0; a < num_aggs; ++a) {
    const AggregateSpec& agg = spec.aggregates[a];
    if (agg.op != AggOp::kCount && !agg.column.empty()) {
      measures[a] = &table.column(agg.column);
      bases[a] = table.domain_base(agg.column);
    }
  }
  std::vector<uint32_t> starts;         // first row of each group
  std::vector<int64_t> values;          // values[g * num_aggs + a]
  for (size_t begin = 0; begin < rows.size();) {
    size_t end = begin + 1;
    while (end < rows.size() && SameKey(keys, rows[end], rows[begin])) ++end;
    uint64_t h = 0;
    for (const EncodedColumn* col : keys) h = Mix(h, col->Get(rows[begin]));
    std::vector<double> avg;
    for (size_t a = 0; a < num_aggs; ++a) {
      const AggOp op = spec.aggregates[a].op;
      int64_t v = op == AggOp::kMin   ? std::numeric_limits<int64_t>::max()
                  : op == AggOp::kMax ? std::numeric_limits<int64_t>::min()
                                      : 0;
      for (size_t r = begin; r < end; ++r) {
        if (measures[a] == nullptr) {
          ++v;
          continue;
        }
        const int64_t x =
            bases[a] + static_cast<int64_t>(measures[a]->Get(rows[r]));
        v = op == AggOp::kMin ? std::min(v, x)
            : op == AggOp::kMax ? std::max(v, x)
                                : v + x;
      }
      if (op == AggOp::kAvg && measures[a] != nullptr) {
        avg.push_back(static_cast<double>(v) /
                      static_cast<double>(end - begin));
      }
      h = Mix(h, static_cast<uint64_t>(v));
      values.push_back(v);
    }
    for (double mean : avg) h = Mix(h, DoubleBits(mean));
    d->multiset += Avalanche(h);
    starts.push_back(static_cast<uint32_t>(begin));
    begin = end;
  }
  d->groups = starts.size();
  if (spec.result_order.empty()) return;
  // Per group, the values the result is ordered by, then the groups in
  // that order; ties hold equal values, so the sequence is unique.
  const size_t k = spec.result_order.size();
  std::vector<int64_t> order_keys(starts.size() * k);
  for (size_t g = 0; g < starts.size(); ++g) {
    for (size_t i = 0; i < k; ++i) {
      const std::string& key = spec.result_order[i].key;
      order_keys[g * k + i] =
          key.rfind("agg:", 0) == 0
              ? values[g * num_aggs + std::stoul(key.substr(4))]
              : static_cast<int64_t>(table.column(key).Get(rows[starts[g]]));
    }
  }
  std::vector<uint32_t> groups(starts.size());
  std::iota(groups.begin(), groups.end(), 0u);
  std::sort(groups.begin(), groups.end(), [&](uint32_t a, uint32_t b) {
    for (size_t i = 0; i < k; ++i) {
      const int64_t x = order_keys[a * k + i];
      const int64_t y = order_keys[b * k + i];
      if (x == y) continue;
      return spec.result_order[i].order == SortOrder::kDescending ? x > y
                                                                 : x < y;
    }
    return false;
  });
  for (uint32_t g : groups) {
    for (size_t i = 0; i < k; ++i) {
      d->sequence = Mix(d->sequence, static_cast<uint64_t>(order_keys[g * k + i]));
    }
  }
}

void ReferencePartitions(const Table& table, const QuerySpec& spec,
                         std::vector<uint32_t> rows, Digest* d) {
  const std::vector<const EncodedColumn*> keys =
      Columns(table, spec.partition_by);
  const EncodedColumn& window = table.column(spec.window_order_column);
  std::vector<const EncodedColumn*> sort_cols = keys;
  sort_cols.push_back(&window);
  SortRows(sort_cols, std::vector<bool>(sort_cols.size(), false), &rows);
  uint32_t rank = 0;
  size_t partition_begin = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i == 0 || !SameKey(keys, rows[i], rows[i - 1])) {
      partition_begin = i;
      rank = 1;
    } else if (window.Get(rows[i]) != window.Get(rows[i - 1])) {
      rank = static_cast<uint32_t>(i - partition_begin + 1);
    }
    uint64_t h = 0;
    for (const EncodedColumn* col : keys) h = Mix(h, col->Get(rows[i]));
    h = Mix(h, window.Get(rows[i]));
    d->multiset += Avalanche(Mix(h, rank));
  }
}

void ReferenceOrder(const Table& table, const QuerySpec& spec,
                    std::vector<uint32_t> rows, Digest* d) {
  std::vector<const EncodedColumn*> cols;
  std::vector<bool> desc;
  for (const auto& [name, order] : spec.order_by) {
    cols.push_back(&table.column(name));
    desc.push_back(order == SortOrder::kDescending);
  }
  SortRows(cols, desc, &rows);
  for (uint32_t row : rows) {
    for (const EncodedColumn* col : cols) {
      d->sequence = Mix(d->sequence, col->Get(row));
    }
  }
}

}  // namespace

Digest ReferenceDigest(const Table& table, const QuerySpec& spec) {
  std::vector<uint32_t> rows = FilteredRows(table, spec);
  Digest d;
  d.rows = rows.size();
  if (!spec.group_by.empty()) {
    ReferenceGroups(table, spec, std::move(rows), &d);
  } else if (!spec.partition_by.empty()) {
    ReferencePartitions(table, spec, std::move(rows), &d);
  } else {
    ReferenceOrder(table, spec, std::move(rows), &d);
  }
  return d;
}

bool Verifier::Check(const Table& table, const QuerySpec& spec,
                     const ResultView& result) {
  const uint64_t raw = RawHash(result);
  if (std::find(verified_.begin(), verified_.end(), raw) != verified_.end()) {
    return true;
  }
  if (DigestOf(table, spec, result) != reference_) return false;
  if (verified_.size() < kMaxRemembered) verified_.push_back(raw);
  return true;
}

ResultView ViewOf(const QueryResult& result) {
  ResultView view;
  view.oids = &result.result_oids;
  view.aggregates = &result.aggregate_values;
  view.avg = &result.aggregate_avg;
  view.ranks = &result.ranks;
  view.group_order = &result.result_group_order;
  view.group_bounds = &result.sort_profile.groups.bounds;
  return view;
}

Digest DigestOf(const Table& table, const QuerySpec& spec,
                const ResultView& result) {
  Digest d;
  d.rows = result.oids->size();
  for (uint32_t oid : *result.oids) {
    if (oid >= table.row_count()) {
      d.valid = false;
      return d;
    }
  }
  if (!spec.group_by.empty()) {
    DigestGroups(table, spec, result, &d);
  } else if (!spec.partition_by.empty()) {
    DigestPartitions(table, spec, result, &d);
  } else {
    DigestOrder(table, spec, result, &d);
  }
  return d;
}

}  // namespace e2e
}  // namespace mcsort
