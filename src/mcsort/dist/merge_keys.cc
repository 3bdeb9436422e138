#include "mcsort/dist/merge_keys.h"

#include "mcsort/dist/merge.h"
#include "mcsort/storage/column.h"

namespace mcsort {
namespace dist {

MergeKeys ComputeMergeKeys(const Table& table, const QuerySpec& spec,
                           const QueryResult& result) {
  MergeKeys out;
  if (!spec.partition_by.empty() || !spec.window_order_column.empty()) {
    out.error = "merge keys unsupported for window (PARTITION BY) queries";
    return out;
  }
  if (spec.group_by.empty() && spec.order_by.empty()) {
    out.error = "merge keys require GROUP BY or ORDER BY attributes";
    return out;
  }
  // GROUP BY names are all ascending in spec order — the coordinator pins
  // fixed_column_order, so the executor's attribute order IS this order.
  const QueryExecutor::SortAttrs attrs = QueryExecutor::ResolveSortAttrs(spec);
  out.per_group = !spec.group_by.empty();
  KeyEncoder encoder;
  for (size_t i = 0; i < attrs.names.size(); ++i) {
    encoder.Add(table.column(attrs.names[i]), attrs.orders[i]);
  }
  const Status fits = CheckKeyWidth(encoder.width());
  if (!fits.ok()) {
    out.error = fits.detail;
    return out;
  }

  if (out.per_group) {
    const Segments& groups = result.sort_profile.groups;
    const size_t n = groups.count();
    out.hi.reserve(n);
    out.lo.reserve(n);
    out.group_sizes.reserve(n);
    for (size_t g = 0; g < n; ++g) {
      // Every row of a group shares all sort-attribute codes; the first
      // row in sorted order is as good a representative as any.
      const Oid oid = result.result_oids[groups.begin(g)];
      const Key128 key = encoder.Encode(oid);
      out.hi.push_back(key.hi);
      out.lo.push_back(key.lo);
      out.group_sizes.push_back(groups.length(g));
    }
  } else {
    const size_t n = result.result_oids.size();
    const bool has_goid = table.HasColumn(kGlobalOidColumn);
    const EncodedColumn* goid =
        has_goid ? &table.column(kGlobalOidColumn) : nullptr;
    out.hi.reserve(n);
    out.lo.reserve(n);
    if (has_goid) out.global_oids.reserve(n);
    for (size_t r = 0; r < n; ++r) {
      const Oid oid = result.result_oids[r];
      const Key128 key = encoder.Encode(oid);
      out.hi.push_back(key.hi);
      out.lo.push_back(key.lo);
      if (has_goid) {
        out.global_oids.push_back(static_cast<uint32_t>(goid->Get(oid)));
      }
    }
  }
  out.ok = true;
  return out;
}

}  // namespace dist
}  // namespace mcsort
