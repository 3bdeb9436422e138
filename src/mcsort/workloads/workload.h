// Benchmark workloads (Sec. 6): TPC-H, TPC-H skew (Zipf z = 1), TPC-DS,
// and the Airline Origin & Destination Survey ("real data"). Each workload
// materializes denormalized WideTables [31] with the columns its eligible
// queries touch, plus the QuerySpec of every query with multiple
// attributes in GROUP BY / ORDER BY / PARTITION BY.
//
// Substitution note (see DESIGN.md): the official dbgen/dsdgen/BTS data
// are replaced by from-scratch generators that match the spec's column
// cardinalities, code widths, and (for the skew variant) Zipf value
// distributions — the properties that determine multi-column sorting cost.
#ifndef MCSORT_WORKLOADS_WORKLOAD_H_
#define MCSORT_WORKLOADS_WORKLOAD_H_

#include <map>
#include <string>
#include <vector>

#include "mcsort/engine/query.h"
#include "mcsort/storage/table.h"

namespace mcsort {

struct WorkloadQuery {
  std::string id;     // e.g. "Q16"
  std::string table;  // table the query runs against
  QuerySpec spec;
};

struct Workload {
  std::string name;
  std::map<std::string, Table> tables;
  std::vector<WorkloadQuery> queries;

  const Table& table_for(const WorkloadQuery& query) const {
    return tables.at(query.table);
  }
  const WorkloadQuery& query(const std::string& id) const;
};

struct WorkloadOptions {
  // Scale factor; 1.0 matches the paper's SF = 1 row counts (e.g. 6M
  // lineitem-grain rows). Benchmarks take a reduced SF from MCSORT_SF
  // (bench/bench_util.h).
  double scale = 0.1;
  // Zipf skew (TPC-H skew uses z = 1 on the skewed columns).
  bool skew = false;
  double zipf_theta = 1.0;
  uint64_t seed = 42;
};

Workload MakeTpch(const WorkloadOptions& options);
Workload MakeTpcds(const WorkloadOptions& options);
Workload MakeAirline(const WorkloadOptions& options);

}  // namespace mcsort

#endif  // MCSORT_WORKLOADS_WORKLOAD_H_
