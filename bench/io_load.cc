// Persistence-tier benchmark: what does a restart cost with snapshots
// versus regenerating the data, and how fast does CSV ingest scale?
//
// Part 1 (cold start): generate the TPC-H WideTable at MCSORT_SF, save it
// as a snapshot, then time loading it back through the buffered-read and
// mmap zero-copy paths — against the generator re-run as the baseline a
// snapshotless restart would pay. A first-query pass after each load
// verifies the loaded table answers identically (and, for mmap, forces the
// page-in cost to show up somewhere visible instead of hiding in the
// first user query).
//
// Part 2 (ingest): synthesize a CSV of MCSORT_N rows (int, decimal, two
// string columns), then ingest it at 1/4/16 threads (capped by
// MCSORT_THREADS), reporting rows/sec per thread count.
//
// Environment: MCSORT_SF (default 0.1), MCSORT_N (CSV rows, default 2^20),
// MCSORT_REPS, MCSORT_THREADS, MCSORT_IO_DIR (scratch dir, default /tmp).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "mcsort/io/csv_ingest.h"
#include "mcsort/io/snapshot.h"
#include "mcsort/storage/table.h"
#include "mcsort/workloads/workload.h"

namespace mcsort {
namespace {

double MinSeconds(int reps, const std::function<void()>& fn) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    Timer timer;
    fn();
    best = std::min(best, timer.Seconds());
  }
  return best;
}

// A cheap deterministic probe over the loaded data: sum of one column's
// codes — enough to prove the bytes arrived and to force mmap page-in.
uint64_t ProbeSum(const Table& table, const std::string& column) {
  const EncodedColumn& col = table.column(column);
  uint64_t sum = 0;
  for (size_t r = 0; r < col.size(); ++r) sum += col.Get(r);
  return sum;
}

void RunColdStart(const std::string& scratch, int reps) {
  WorkloadOptions options;
  options.scale = ScaleFromEnv();
  Timer gen_timer;
  Workload workload = MakeTpch(options);
  const double gen_seconds = gen_timer.Seconds();
  // The restart cost that matters is the biggest table's.
  auto it = workload.tables.begin();
  for (auto cand = it; cand != workload.tables.end(); ++cand) {
    if (cand->second.row_count() > it->second.row_count()) it = cand;
  }
  const Table& table = it->second;
  std::printf("# cold start: tpch '%s' SF=%.2f, %zu rows, %zu columns\n",
              it->first.c_str(), options.scale, table.row_count(),
              table.column_names().size());

  // A snapshot restores statistics and the ByteSlice scan layout
  // ready-made, so the fair snapshotless baseline is generation PLUS
  // materializing those (a regenerated table builds them lazily on first
  // use; the generator alone is not query-equivalent).
  Timer mat_timer;
  for (const std::string& name : table.column_names()) {
    (void)table.stats(name);
    (void)table.byteslice(name);
  }
  const double mat_seconds = mat_timer.Seconds();
  const double baseline_seconds = gen_seconds + mat_seconds;
  std::printf("%-22s %10.3f s   (generate %.3f + scan layouts %.3f — the "
              "snapshotless restart baseline)\n",
              "regenerate", baseline_seconds, gen_seconds, mat_seconds);

  const std::string dir = scratch + "/io_load_snapshot";
  Timer save_timer;
  const Status saved = SaveTableSnapshot(table, dir);
  if (!saved.ok()) {
    std::fprintf(stderr, "save failed: %s\n", saved.ToString().c_str());
    std::exit(1);
  }
  std::printf("%-22s %10.3f s\n", "save snapshot", save_timer.Seconds());

  const std::string probe_col = table.column_names().front();
  const uint64_t want = ProbeSum(table, probe_col);
  for (const SnapshotLoadMode mode :
       {SnapshotLoadMode::kBuffered, SnapshotLoadMode::kMmap}) {
    const char* name =
        mode == SnapshotLoadMode::kMmap ? "load (mmap)" : "load (buffered)";
    SnapshotLoadOptions load;
    load.mode = mode;
    double probe_seconds = 0;
    const double load_seconds = MinSeconds(reps, [&] {
      Table loaded;
      const Status st = LoadTableSnapshot(dir, load, &loaded);
      if (!st.ok()) {
        std::fprintf(stderr, "load failed: %s\n", st.ToString().c_str());
        std::exit(1);
      }
      Timer probe_timer;
      if (ProbeSum(loaded, probe_col) != want) {
        std::fprintf(stderr, "probe mismatch after load\n");
        std::exit(1);
      }
      probe_seconds = probe_timer.Seconds();
    });
    std::printf("%-22s %10.3f s   (+%.3f s first touch, %5.1fx vs "
                "regenerate)\n",
                name, load_seconds, probe_seconds,
                baseline_seconds / std::max(load_seconds, 1e-9));
  }
}

void RunIngest(const std::string& scratch, int reps) {
  const uint64_t rows = bench::EnvRows();
  const std::string csv = scratch + "/io_load_ingest.csv";
  {
    Rng rng(99);
    std::ofstream out(csv, std::ios::binary);
    out << "id,price,city,flag\n";
    char line[128];
    for (uint64_t r = 0; r < rows; ++r) {
      std::snprintf(line, sizeof(line), "%llu,%llu.%02llu,c%llu,%s\n",
                    static_cast<unsigned long long>(rng.NextBounded(1000000)),
                    static_cast<unsigned long long>(rng.NextBounded(10000)),
                    static_cast<unsigned long long>(rng.NextBounded(100)),
                    static_cast<unsigned long long>(rng.NextBounded(5000)),
                    rng.NextBounded(2) != 0 ? "yes" : "no");
      out << line;
    }
  }
  std::printf("# ingest: %llu rows x 4 columns (int, decimal, string x2)\n",
              static_cast<unsigned long long>(rows));
  const int max_threads = bench::EnvThreads(16);
  for (int threads : {1, 4, 16}) {
    if (threads > max_threads && threads != 1) continue;
    CsvIngestOptions options;
    options.threads = threads;
    const double seconds = MinSeconds(reps, [&] {
      Table table;
      const Status st = IngestCsv(csv, options, &table);
      if (!st.ok()) {
        std::fprintf(stderr, "ingest failed: %s\n", st.ToString().c_str());
        std::exit(1);
      }
    });
    std::printf("ingest @%2d threads     %10.3f s   (%6.2f M rows/s)\n",
                threads, seconds, rows / seconds / 1e6);
  }
  std::remove(csv.c_str());
}

}  // namespace
}  // namespace mcsort

int main() {
  using namespace mcsort;
  const std::string scratch = EnvStr("MCSORT_IO_DIR", "/tmp");
  const int reps = bench::EnvReps();
  RunColdStart(scratch, reps);
  std::printf("\n");
  RunIngest(scratch, reps);
  return 0;
}
