// Merge-at-scan scaling: what the first read after a write costs as the
// base grows. For each base size, one QueryService holds the demo table
// (tools/demo_table.h), compacted once so its widths are tight and its
// layouts warm, plus a standing delta like the write_churn workload's at
// read time: 2,048 inserted rows and the base rows of 20 point DELETEs.
// Then, MCSORT_REPS times: one 1-row INSERT, followed by
//
//   image_ms       FindTableShared, where TableVersion::Snapshot builds
//                  the merged image of base + delta;
//   read_ms        the first query on that image (write_churn's read: a
//                  filtered GROUP BY), including every layout it derives
//                  or builds on the fresh image.
//
// Both are reported as medians over the reps, and image time also per
// million base rows: a cost linear in the base reads as a flat last
// column, a cost of O(delta) as a falling one.
//
// Sizes run from 2^16 to 2^22 rows in steps of 4x, on one thread.
// Environment: MCSORT_REPS (default 9).
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "mcsort/service/query_service.h"
#include "tools/demo_table.h"

namespace mcsort {
namespace {

const std::string kTable = "t";

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values.empty() ? 0 : values[values.size() / 2];
}

delta::DmlCommand InsertOne(Rng* rng) {
  delta::DmlCommand cmd;
  cmd.op = delta::DmlOp::kInsert;
  cmd.table = kTable;
  cmd.columns = {"a", "b", "c", "m"};
  cmd.rows = {{delta::DmlValue::Int(static_cast<int64_t>(rng->NextBounded(20))),
               delta::DmlValue::Int(static_cast<int64_t>(rng->NextBounded(500))),
               delta::DmlValue::Int(
                   static_cast<int64_t>(rng->NextBounded(100000))),
               delta::DmlValue::Int(
                   static_cast<int64_t>(rng->NextBounded(1000)))}};
  return cmd;
}

struct Point {
  double image_ms = 0;
  double read_ms = 0;
};

Point Measure(size_t rows, int reps, const QuerySpec& read) {
  ServiceOptions options;
  options.threads = 1;
  QueryService service(options);
  service.AdoptTable(kTable, MakeDemoTable(rows, 4242));
  Rng rng(7);

  // Tight widths and warm base layouts, as after a compaction that saved
  // the table (a save builds every layout).
  if (!service.ApplyDml(InsertOne(&rng)).ok() || !service.CompactTable(kTable)) {
    std::fprintf(stderr, "setup failed at %zu rows\n", rows);
    return {};
  }
  {
    const std::shared_ptr<const Table> base = service.FindTableShared(kTable);
    for (const std::string& name : base->column_names()) {
      base->stats(name);
      base->byteslice(name);
    }
  }
  for (int r = 0; r < 2048; ++r) service.ApplyDml(InsertOne(&rng));
  for (int d = 0; d < 20; ++d) {
    delta::DmlCommand del;
    del.op = delta::DmlOp::kDelete;
    del.table = kTable;
    del.has_predicate = true;
    del.predicate = {"c", delta::DmlCompareOp::kEq,
                     delta::DmlValue::Int(
                         static_cast<int64_t>(rng.NextBounded(100000)))};
    service.ApplyDml(del);
  }

  std::vector<double> image_ms, read_ms;
  for (int rep = 0; rep < reps; ++rep) {
    service.ApplyDml(InsertOne(&rng));
    Timer timer;
    const std::shared_ptr<const Table> image = service.FindTableShared(kTable);
    image_ms.push_back(timer.Seconds() * 1e3);
    timer.Restart();
    const ExecResult run =
        service.OpenSession(*image)->Execute(read, ExecContext::Default());
    read_ms.push_back(timer.Seconds() * 1e3);
    if (!run.ok()) std::fprintf(stderr, "read failed at %zu rows\n", rows);
  }
  return {Median(image_ms), Median(read_ms)};
}

}  // namespace
}  // namespace mcsort

int main() {
  using namespace mcsort;
  const int reps = static_cast<int>(EnvU64("MCSORT_REPS", 9));
  const QuerySpec read = QuerySpecBuilder("read")
                             .Filter("c", CompareOp::kLess, 30000)
                             .GroupBy({"a", "b"})
                             .Sum("m")
                             .Count()
                             .Build();
  std::printf("# first read after a 1-row INSERT, median of %d, 1 thread\n",
              reps);
  std::printf("%-10s %10s %10s %10s %18s\n", "log2_rows", "rows", "image_ms",
              "read_ms", "image_ms_per_Mrow");
  for (int log2 = 16; log2 <= 22; log2 += 2) {
    const size_t rows = size_t{1} << log2;
    const Point p = Measure(rows, reps, read);
    std::printf("%-10d %10zu %10.2f %10.2f %18.2f\n", log2, rows, p.image_ms,
                p.read_ms, p.image_ms / (static_cast<double>(rows) / 1e6));
    std::fflush(stdout);
  }
  return 0;
}
