#include "mcsort/delta/merge_scan.h"

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <utility>

#include "mcsort/common/bits.h"
#include "mcsort/common/logging.h"
#include "mcsort/storage/column.h"
#include "mcsort/storage/dictionary.h"
#include "mcsort/storage/live_runs.h"

namespace mcsort {
namespace delta {
namespace {

// Sorted union of the base dictionary and the overflow values, plus the
// monotone remaps old code -> new code and overflow id -> new code.
struct DictMerge {
  std::vector<std::string> merged;       // strictly ascending
  std::vector<Code> new_code_of_dict;    // size = dict.size()
  std::vector<Code> new_code_of_ovf;     // size = overflow.size()
};

DictMerge MergeDictionary(const StringDictionary& dict,
                          const std::vector<std::string>& overflow) {
  DictMerge out;
  const std::vector<std::string>& base_values = dict.values();
  // Overflow values arrive in intern (id) order; sort an index over them so
  // the union merge is linear while new_code_of_ovf stays id-addressed.
  std::vector<size_t> ovf_order(overflow.size());
  std::iota(ovf_order.begin(), ovf_order.end(), 0);
  std::sort(ovf_order.begin(), ovf_order.end(),
            [&](size_t a, size_t b) { return overflow[a] < overflow[b]; });

  out.merged.reserve(base_values.size() + overflow.size());
  out.new_code_of_dict.resize(base_values.size());
  out.new_code_of_ovf.resize(overflow.size());
  size_t i = 0, j = 0;
  while (i < base_values.size() || j < ovf_order.size()) {
    Code next = static_cast<Code>(out.merged.size());
    if (j >= ovf_order.size() ||
        (i < base_values.size() && base_values[i] < overflow[ovf_order[j]])) {
      out.new_code_of_dict[i] = next;
      out.merged.push_back(base_values[i]);
      ++i;
    } else if (i >= base_values.size() ||
               overflow[ovf_order[j]] < base_values[i]) {
      out.new_code_of_ovf[ovf_order[j]] = next;
      out.merged.push_back(overflow[ovf_order[j]]);
      ++j;
    } else {
      // Equal — the interning invariant says this cannot happen, but a
      // duplicate must not reach FromSorted's strict-ascending CHECK.
      out.new_code_of_dict[i] = next;
      out.new_code_of_ovf[ovf_order[j]] = next;
      out.merged.push_back(base_values[i]);
      ++i;
      ++j;
    }
  }
  return out;
}

template <typename T>
Code MaxLiveCode(const T* codes, size_t n, const std::vector<uint32_t>& dead) {
  T max = 0;
  ForEachLiveRun(n, dead, [&](size_t begin, size_t end, size_t) {
    for (size_t i = begin; i < end; ++i) max = std::max(max, codes[i]);
  });
  return max;
}

// Largest code among the live rows of `col` (0 when none is live).
Code MaxLiveCode(const EncodedColumn& col, const std::vector<uint32_t>& dead) {
  switch (col.type()) {
    case PhysicalType::kU16: return MaxLiveCode(col.Data16(), col.size(), dead);
    case PhysicalType::kU32: return MaxLiveCode(col.Data32(), col.size(), dead);
    case PhysicalType::kU64: return MaxLiveCode(col.Data64(), col.size(), dead);
  }
  return 0;
}

// Sizes `to` for `n_live` rows of `width` bits and fills its leading rows
// with the live rows of `from`, whose codes map through `remap`. When the
// codes are unchanged (`same_codes`) and the physical type is the same,
// that is a memcpy per live run; otherwise a per-row re-encode. Returns
// whether it copied.
template <typename Remap>
bool FillBaseRows(const EncodedColumn& from, const std::vector<uint32_t>& dead,
                  bool same_codes, int width, size_t n_live, Remap remap,
                  EncodedColumn* to) {
  if (same_codes && PhysicalTypeForWidth(width) == from.type()) {
    to->ResetTyped(width, from.type(), n_live, /*zero_fill=*/false);
    CopyLiveRuns(from.raw_data(), BytesOfPhysicalType(from.type()),
                 from.size(), dead, to->raw_data());
    return true;
  }
  to->Reset(width, n_live);
  ForEachLiveRun(from.size(), dead, [&](size_t begin, size_t end, size_t at) {
    for (size_t oid = begin; oid < end; ++oid) {
      to->Set(at + (oid - begin), remap(from.Get(oid)));
    }
  });
  return false;
}

}  // namespace

uint32_t MergedTable::NewOidOfBase(uint32_t oid) const {
  if (oid >= base_rows) return kNoOid;
  auto it = std::lower_bound(dead_base.begin(), dead_base.end(), oid);
  if (it != dead_base.end() && *it == oid) return kNoOid;
  return oid - static_cast<uint32_t>(it - dead_base.begin());
}

MergedTable BuildMergedTable(const std::shared_ptr<const Table>& base_table,
                             const DeltaSnapshot& snap) {
  const Table& base = *base_table;
  MergedTable out;
  const std::vector<std::string>& names = base.column_names();
  const size_t n_base = base.row_count();
  const size_t n_delta = snap.rows.size();

  // Row layout: live base rows in oid order, then live delta rows in
  // arrival order. Deterministic, so scan-merge and compaction agree.
  out.base_rows = n_base;
  std::vector<uint32_t>& dead = out.dead_base;
  dead.reserve(snap.base_tombstones.size());
  for (uint32_t oid : snap.base_tombstones) {
    if (oid < n_base) dead.push_back(oid);
  }
  std::sort(dead.begin(), dead.end());
  dead.erase(std::unique(dead.begin(), dead.end()), dead.end());
  out.new_oid_of_delta.assign(n_delta, kNoOid);
  uint32_t next_oid = static_cast<uint32_t>(n_base - dead.size());
  for (size_t r = 0; r < n_delta; ++r) {
    if (snap.row_dead.size() <= r || !snap.row_dead[r]) {
      out.new_oid_of_delta[r] = next_oid++;
    }
  }
  const size_t n_live = next_oid;

  out.table = std::make_shared<Table>(n_live);
  std::vector<std::string> derivable;
  for (size_t c = 0; c < names.size(); ++c) {
    const std::string& name = names[c];
    const EncodedColumn& old_col = base.column(name);
    EncodedColumn merged_col;
    bool copied = false;

    if (base.HasDictionary(name)) {
      const StringDictionary& dict = base.dictionary(name);
      static const std::vector<std::string> kNoOverflow;
      const std::vector<std::string>& overflow =
          c < snap.overflow.size() ? snap.overflow[c] : kNoOverflow;
      DictMerge dm = MergeDictionary(dict, overflow);
      const int width =
          std::max(1, BitsForCount(static_cast<uint64_t>(dm.merged.size())));
      // Without overflow values the dictionary, and so every code, stays.
      copied = FillBaseRows(
          old_col, dead, overflow.empty(), width, n_live,
          [&](Code code) { return dm.new_code_of_dict[code]; }, &merged_col);
      for (size_t r = 0; r < n_delta; ++r) {
        uint32_t dst = out.new_oid_of_delta[r];
        if (dst == kNoOid) continue;
        const int64_t id = snap.rows[r][c];
        MCSORT_CHECK(id >= 0);
        const size_t uid = static_cast<size_t>(id);
        if (uid < dm.new_code_of_dict.size()) {
          merged_col.Set(dst, dm.new_code_of_dict[uid]);
        } else {
          const size_t ovf = uid - dm.new_code_of_dict.size();
          MCSORT_CHECK(ovf < dm.new_code_of_ovf.size());
          merged_col.Set(dst, dm.new_code_of_ovf[ovf]);
        }
      }
      if (copied && width == old_col.width()) derivable.push_back(name);
      out.table->AddColumnParts(
          name, std::move(merged_col),
          std::make_unique<StringDictionary>(
              StringDictionary::FromSorted(std::move(dm.merged))),
          /*domain_base=*/0);
      continue;
    }

    // Numeric (plain code or domain-encoded): keep the old base unless a
    // delta native sits below it — lowering the base shifts every existing
    // code up uniformly, preserving order; the width is the one the live
    // merged range needs, so it may tighten as well as widen.
    const int64_t old_base = base.domain_base(name);
    const uint64_t max_base_code = MaxLiveCode(old_col, dead);
    int64_t new_base = old_base;
    for (size_t r = 0; r < n_delta; ++r) {
      if (out.new_oid_of_delta[r] == kNoOid) continue;
      new_base = std::min(new_base, snap.rows[r][c]);
    }
    const uint64_t shift =
        static_cast<uint64_t>(old_base) - static_cast<uint64_t>(new_base);
    uint64_t max_rel = max_base_code + shift;
    for (size_t r = 0; r < n_delta; ++r) {
      if (out.new_oid_of_delta[r] == kNoOid) continue;
      const uint64_t rel = static_cast<uint64_t>(snap.rows[r][c]) -
                           static_cast<uint64_t>(new_base);
      max_rel = std::max(max_rel, rel);
    }
    const int width = std::max(1, BitsForValue(max_rel));
    copied = FillBaseRows(
        old_col, dead, shift == 0, width, n_live,
        [shift](Code code) { return code + shift; }, &merged_col);
    for (size_t r = 0; r < n_delta; ++r) {
      uint32_t dst = out.new_oid_of_delta[r];
      if (dst == kNoOid) continue;
      merged_col.Set(dst, static_cast<uint64_t>(snap.rows[r][c]) -
                              static_cast<uint64_t>(new_base));
    }
    if (copied && width == old_col.width()) derivable.push_back(name);
    out.table->AddColumnParts(name, std::move(merged_col), nullptr, new_base);
  }
  auto lineage = std::make_shared<TableLineage>();
  lineage->base = base_table;
  lineage->dead = dead;
  out.table->SetLineage(std::move(lineage), derivable);
  return out;
}

}  // namespace delta
}  // namespace mcsort
