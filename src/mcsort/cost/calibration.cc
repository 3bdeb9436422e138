#include "mcsort/cost/calibration.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <numeric>
#include <vector>

#include "mcsort/common/bits.h"
#include "mcsort/common/env.h"
#include "mcsort/common/logging.h"
#include "mcsort/common/random.h"
#include "mcsort/common/timer.h"
#include "mcsort/cost/linear_solver.h"
#include "mcsort/massage/massage.h"
#include "mcsort/scan/group_scan.h"
#include "mcsort/scan/lookup.h"
#include "mcsort/sort/counting_sort.h"
#include "mcsort/sort/radix_sort.h"
#include "mcsort/sort/simd_sort.h"
#include "mcsort/storage/column.h"

namespace mcsort {
namespace {

double SecondsToCycles(double seconds, const CostParams& params) {
  return seconds * params.ghz * 1e9;
}

// Measures the best-of-`repeats` wall time of `body` after one warmup.
template <typename Fn>
double MeasureSeconds(int repeats, Fn&& body) {
  body();  // warmup
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    Timer timer;
    body();
    best = std::min(best, timer.Seconds());
  }
  return best;
}

// --------------------------------------------------------------------------
// Lookup (C_cache, C_mem)
// --------------------------------------------------------------------------

void CalibrateLookup(const CalibrationOptions& options, CostParams* params) {
  const int width = 32;  // size(w) = 4 bytes
  const double size_bytes = static_cast<double>(SizeOfWidth(width));
  Rng rng(options.seed);

  auto run_at_ratio = [&](double hit_ratio, double* out_n) -> double {
    uint64_t n = static_cast<uint64_t>(
        static_cast<double>(params->llc_bytes) / (hit_ratio * size_bytes));
    n = std::min(n, options.lookup_rows_cap);
    n = std::max<uint64_t>(n, 1024);
    *out_n = static_cast<double>(n);
    EncodedColumn column(width, n);
    for (uint64_t i = 0; i < n; ++i) {
      column.Set(i, rng.Next() & LowBitsMask(width));
    }
    // Random permutation of oids: the lookup's N random accesses.
    std::vector<Oid> oids(n);
    std::iota(oids.begin(), oids.end(), 0);
    for (uint64_t i = n; i > 1; --i) {
      std::swap(oids[i - 1], oids[rng.NextBounded(i)]);
    }
    EncodedColumn out;
    return MeasureSeconds(options.repeats, [&] {
      GatherColumn(column, oids.data(), n, &out);
    });
  };

  double n_hi = 0, n_lo = 0;
  const double t_hi = run_at_ratio(options.lookup_hit_hi, &n_hi);
  const double t_lo = run_at_ratio(options.lookup_hit_lo, &n_lo);
  // Eq. 3 instantiated twice: T = N (C_cache h + C_mem (1 - h)).
  const double llc = static_cast<double>(params->llc_bytes);
  const double h_hi = std::min(1.0, llc / (n_hi * size_bytes));
  const double h_lo = std::min(1.0, llc / (n_lo * size_bytes));
  std::vector<std::vector<double>> a = {{n_hi * h_hi, n_hi * (1.0 - h_hi)},
                                        {n_lo * h_lo, n_lo * (1.0 - h_lo)}};
  std::vector<double> b = {SecondsToCycles(t_hi, *params),
                           SecondsToCycles(t_lo, *params)};
  std::vector<double> x = SolveLeastSquares(a, b);
  // Keep the solution physical: latencies are positive and memory is not
  // faster than cache.
  params->cache_cycles = std::max(0.5, x[0]);
  params->mem_cycles = std::max(params->cache_cycles, x[1]);
}

// --------------------------------------------------------------------------
// Massage (C_massage)
// --------------------------------------------------------------------------

void CalibrateMassage(const CalibrationOptions& options, CostParams* params) {
  const uint64_t n = options.massage_rows;
  Rng rng(options.seed + 1);
  // The paper calibrates over the massage plans of Examples Ex1-Ex4.
  struct Case {
    std::vector<int> in_widths;
    std::vector<int> out_widths;
  };
  const std::vector<Case> cases = {
      {{10, 17}, {27}},          // Ex1 stitch-all
      {{15, 31}, {46}},          // Ex2 stitch-all
      {{17, 33}, {18, 32}},      // Ex3 optimal (P<<1)
      {{48, 48}, {32, 32, 32}},  // Ex4 three rounds
  };
  double total_cycles = 0.0;
  double total_work = 0.0;  // sum of N * I_FIP
  for (const Case& c : cases) {
    std::vector<EncodedColumn> columns;
    columns.reserve(c.in_widths.size());
    for (int w : c.in_widths) {
      EncodedColumn col(w, n);
      for (uint64_t i = 0; i < n; ++i) col.Set(i, rng.Next() & LowBitsMask(w));
      columns.push_back(std::move(col));
    }
    std::vector<MassageInput> inputs;
    for (const EncodedColumn& col : columns) {
      inputs.push_back({&col, SortOrder::kAscending});
    }
    const MassagePlan plan = MassagePlan::WithMinimalBanks(c.out_widths);
    const double seconds = MeasureSeconds(options.repeats, [&] {
      auto out = ApplyMassage(inputs, plan);
      (void)out;
    });
    total_cycles += SecondsToCycles(seconds, *params);
    // Work: N * I_FIP, with I_FIP = |prefix(in) U prefix(out)|.
    std::vector<int> in_prefix, out_prefix;
    int acc = 0;
    for (int w : c.in_widths) in_prefix.push_back(acc += w);
    acc = 0;
    for (int w : c.out_widths) out_prefix.push_back(acc += w);
    std::vector<int> u = in_prefix;
    u.insert(u.end(), out_prefix.begin(), out_prefix.end());
    std::sort(u.begin(), u.end());
    u.erase(std::unique(u.begin(), u.end()), u.end());
    total_work += static_cast<double>(n) * static_cast<double>(u.size());
  }
  params->massage_cycles = std::max(0.05, total_cycles / total_work);
}

// --------------------------------------------------------------------------
// Scan (C_scan)
// --------------------------------------------------------------------------

void CalibrateScan(const CalibrationOptions& options, CostParams* params) {
  const uint64_t n = options.massage_rows;
  Rng rng(options.seed + 2);
  EncodedColumn column(20, n);
  for (uint64_t i = 0; i < n; ++i) {
    column.Set(i, rng.NextBounded(1 << 14));
  }
  // Group scan runs over *sorted* keys.
  std::vector<uint32_t> sorted(n);
  for (uint64_t i = 0; i < n; ++i) sorted[i] = static_cast<uint32_t>(column.Get(i));
  std::sort(sorted.begin(), sorted.end());
  for (uint64_t i = 0; i < n; ++i) column.Set(i, sorted[i]);

  const Segments whole = Segments::Whole(n);
  Segments out;
  const double seconds = MeasureSeconds(options.repeats, [&] {
    FindGroups(column, whole, &out);
  });
  params->scan_cycles =
      std::max(0.1, SecondsToCycles(seconds, *params) / static_cast<double>(n));
}

// --------------------------------------------------------------------------
// Per-bank sort constants
// --------------------------------------------------------------------------

void CalibrateSortBank(const CalibrationOptions& options, int bank,
                       CostParams* params) {
  const uint64_t n = options.sort_rows;
  Rng rng(options.seed + static_cast<uint64_t>(bank));
  const int width = bank;  // full-width keys exercise the bank fully

  // Master random keys, re-used for every group count.
  EncodedColumn master;
  master.ResetTyped(width, PhysicalTypeForWidth(width), n);
  for (uint64_t i = 0; i < n; ++i) {
    master.Set(i, rng.Next() & LowBitsMask(width));
  }

  SortScratch scratch;
  std::vector<std::vector<double>> a;
  std::vector<double> b;
  const double half_l2 = 0.5 * static_cast<double>(params->l2_bytes);
  for (uint64_t groups : {uint64_t{1}, uint64_t{16}, uint64_t{256},
                          uint64_t{4096}, uint64_t{65536}}) {
    if (groups > n / 2) continue;
    const uint64_t group_rows = n / groups;
    const uint64_t used = group_rows * groups;
    EncodedColumn keys;
    std::vector<Oid> oids(used);
    const double seconds = MeasureSeconds(options.repeats, [&] {
      // Fresh copy: sorting is destructive.
      keys.ResetTyped(width, master.type(), used, /*zero_fill=*/false);
      for (uint64_t i = 0; i < used; ++i) keys.Set(i, master.Get(i));
      std::iota(oids.begin(), oids.end(), 0);
      for (uint64_t g = 0; g < groups; ++g) {
        const uint64_t begin = g * group_rows;
        switch (keys.type()) {
          case PhysicalType::kU16:
            SortPairs16(keys.Data16() + begin, oids.data() + begin,
                        group_rows, scratch);
            break;
          case PhysicalType::kU32:
            SortPairs32(keys.Data32() + begin, oids.data() + begin,
                        group_rows, scratch);
            break;
          case PhysicalType::kU64:
            SortPairs64(keys.Data64() + begin, oids.data() + begin,
                        group_rows, scratch);
            break;
        }
      }
    });
    // NOTE: MeasureSeconds times the whole body including the copy; the
    // copy is one sequential pass, small relative to the sorts, and is
    // constant across group counts, so it folds into the per-code term.
    const double group_bytes =
        static_cast<double>(group_rows) * bank / 8.0;
    double passes = 0.0;
    if (group_bytes > half_l2) {
      passes = std::max(
          0.0, std::ceil(std::log(group_bytes / half_l2) /
                         std::log(static_cast<double>(params->merge_fanout))));
    }
    a.push_back({static_cast<double>(groups), static_cast<double>(used),
                 static_cast<double>(used) * passes});
    b.push_back(SecondsToCycles(seconds, *params));
  }
  MCSORT_CHECK(a.size() >= 3);
  const std::vector<double> x = SolveLeastSquares(a, b);
  BankSortParams& bp = params->mutable_bank(bank);
  bp.overhead = std::max(10.0, x[0]);
  const double per_code = std::max(0.2, x[1]);
  bp.sort_network = per_code / 2.0;
  bp.in_cache_merge = per_code / 2.0;
  bp.out_of_cache_merge = std::max(0.1, x[2]);
}

// --------------------------------------------------------------------------
// Counting kernel constants
// --------------------------------------------------------------------------

// Counting-sort timings across round widths (domain sizes) and group
// counts pin the four unknowns: domain walks identify per_bucket, the
// width sweep moves the histogram in and out of L2 to split row_cache
// from row_mem, and the grouped runs identify the per-invocation overhead.
void CalibrateCounting(const CalibrationOptions& options,
                       CostParams* params) {
  const uint64_t n = options.sort_rows;
  Rng rng(options.seed + 200);
  std::vector<uint32_t> master(n);
  for (uint64_t i = 0; i < n; ++i) {
    master[i] = static_cast<uint32_t>(rng.Next());
  }

  SortScratch scratch;
  std::vector<std::vector<double>> a;
  std::vector<double> b;
  const double l2 = static_cast<double>(params->l2_bytes);
  std::vector<uint32_t> keys(n);
  std::vector<Oid> oids(n);
  for (int width : {8, 12, 16, kCountingMaxWidth}) {
    const double domain = std::pow(2.0, width);
    const uint32_t mask = static_cast<uint32_t>(LowBitsMask(width));
    for (uint64_t groups : {uint64_t{1}, uint64_t{256}}) {
      const uint64_t group_rows = n / groups;
      const uint64_t used = group_rows * groups;
      const double seconds = MeasureSeconds(options.repeats, [&] {
        for (uint64_t i = 0; i < used; ++i) keys[i] = master[i] & mask;
        std::iota(oids.begin(), oids.begin() + static_cast<ptrdiff_t>(used),
                  0);
        for (uint64_t g = 0; g < groups; ++g) {
          const uint64_t begin = g * group_rows;
          CountingSortPairs32(keys.data() + begin, oids.data() + begin,
                              group_rows, width, scratch);
        }
      });
      // Histogram residency as the model sees it: touched counters are the
      // per-group distinct values, ~min(domain, group rows) for uniform
      // keys.
      const double touched =
          std::min(domain, static_cast<double>(group_rows)) * 8.0;
      const double hit = std::min(1.0, l2 / touched);
      a.push_back({static_cast<double>(groups),
                   static_cast<double>(groups) * domain,
                   static_cast<double>(used) * hit,
                   static_cast<double>(used) * (1.0 - hit)});
      b.push_back(SecondsToCycles(seconds, *params));
    }
  }
  if (a.size() < 4) return;  // under-determined: keep the defaults
  const std::vector<double> x = SolveLeastSquares(a, b);
  CountingSortParams& cp = params->counting;
  cp.overhead = std::max(10.0, x[0]);
  cp.per_bucket = std::max(0.1, x[1]);
  cp.row_cache = std::max(0.5, x[2]);
  cp.row_mem = std::max(cp.row_cache, x[3]);
}

// --------------------------------------------------------------------------
// Radix kernel constants
// --------------------------------------------------------------------------

// Radix timings across widths and group counts pin the four unknowns: the
// digit-pass counts (2 to 8, one width off the digit grid) separate the
// per-bucket prefix walks from the per-invocation overhead, the group
// counts separate both from the per-row pass cost, and the groups past
// kRadixMsdMinBytes identify the MSD surcharge. Every group exceeds
// kRadixInsertionMax rows, the only groups the model prices.
void CalibrateRadix(const CalibrationOptions& options, CostParams* params) {
  const uint64_t n = options.sort_rows;
  Rng rng(options.seed + 300);
  std::vector<uint64_t> random(n);
  for (uint64_t& v : random) v = rng.Next();

  SortScratch scratch;
  std::vector<std::vector<double>> a;
  std::vector<double> b;
  std::vector<Oid> oids(n);
  for (int width : {16, 27, 32, 64}) {
    const PhysicalType type = PhysicalTypeForWidth(width);
    EncodedColumn master;
    master.ResetTyped(width, type, n);
    for (uint64_t i = 0; i < n; ++i) {
      master.Set(i, random[i] & LowBitsMask(width));
    }
    EncodedColumn keys;
    keys.ResetTyped(width, type, n, /*zero_fill=*/false);
    const int bank = 8 * SizeOfWidth(width);
    const size_t key_bytes = static_cast<size_t>(SizeOfWidth(width));
    const double passes = (width + kRadixDigitBits - 1) / kRadixDigitBits;
    for (uint64_t groups : {uint64_t{1}, uint64_t{16}, uint64_t{256},
                            uint64_t{4096}, uint64_t{16384}}) {
      const uint64_t group_rows = n / groups;
      if (group_rows <= kRadixInsertionMax) continue;
      const uint64_t used = group_rows * groups;
      const double seconds = MeasureSeconds(options.repeats, [&] {
        std::memcpy(keys.raw_data(), master.raw_data(), used * key_bytes);
        std::iota(oids.begin(), oids.begin() + static_cast<ptrdiff_t>(used),
                  0);
        char* base = static_cast<char*>(keys.raw_data());
        for (uint64_t g = 0; g < groups; ++g) {
          const uint64_t begin = g * group_rows;
          RadixSortPairsBank(bank, base + begin * key_bytes,
                             oids.data() + begin, group_rows, width, scratch);
        }
      });
      const double group_bytes =
          static_cast<double>(group_rows * (key_bytes + sizeof(Oid)));
      const double msd =
          group_bytes > static_cast<double>(kRadixMsdMinBytes) ? 1.0 : 0.0;
      a.push_back({static_cast<double>(groups),
                   static_cast<double>(groups) * passes *
                       static_cast<double>(size_t{1} << kRadixDigitBits),
                   static_cast<double>(used) * passes,
                   static_cast<double>(used) * msd});
      b.push_back(SecondsToCycles(seconds, *params));
    }
  }
  if (a.size() < 4) return;  // under-determined: keep the defaults
  const std::vector<double> x = SolveLeastSquares(a, b);
  RadixSortParams& rp = params->radix;
  rp.overhead = std::max(10.0, x[0]);
  rp.per_bucket = std::max(0.05, x[1]);
  rp.row_pass = std::max(0.5, x[2]);
  rp.msd_row = std::max(0.1, x[3]);
}

}  // namespace

CostParams Calibrate(const CalibrationOptions& options) {
  CostParams params = CostParams::Default();
  CalibrateLookup(options, &params);
  CalibrateMassage(options, &params);
  CalibrateScan(options, &params);
  for (int bank : {16, 32, 64}) {
    CalibrateSortBank(options, bank, &params);
  }
  CalibrateCounting(options, &params);
  CalibrateRadix(options, &params);
  return params;
}

bool SaveParams(const CostParams& params, const char* path) {
  FILE* f = std::fopen(path, "w");
  if (f == nullptr) return false;
  std::fprintf(f, "cache_cycles=%.6g\nmem_cycles=%.6g\n", params.cache_cycles,
               params.mem_cycles);
  std::fprintf(f, "massage_cycles=%.6g\nscan_cycles=%.6g\n",
               params.massage_cycles, params.scan_cycles);
  for (int bank : {16, 32, 64}) {
    const BankSortParams& bp = params.bank(bank);
    std::fprintf(f, "bank%d=%.6g,%.6g,%.6g,%.6g\n", bank, bp.overhead,
                 bp.sort_network, bp.in_cache_merge, bp.out_of_cache_merge);
  }
  std::fprintf(f, "counting=%.6g,%.6g,%.6g,%.6g\n", params.counting.overhead,
               params.counting.per_bucket, params.counting.row_cache,
               params.counting.row_mem);
  std::fprintf(f, "radix=%.6g,%.6g,%.6g,%.6g\n", params.radix.overhead,
               params.radix.per_bucket, params.radix.row_pass,
               params.radix.msd_row);
  std::fclose(f);
  return true;
}

bool LoadParams(const char* path, CostParams* params) {
  FILE* f = std::fopen(path, "r");
  if (f == nullptr) return false;
  // One bit per key: the four scalars, bank16/32/64, counting. A file is
  // complete when every key appeared; a repeated key does not stand in for
  // a missing one. Lines of the retired OVC kernel (ovc<N>=) match no key
  // and are skipped, so files written while it existed still load. The
  // radix line is optional: files written before the radix term keep the
  // caller's radix constants.
  constexpr unsigned kAllKeys = (1u << 8) - 1;
  CostParams loaded = *params;
  unsigned seen = 0;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    double a = 0, b = 0, c = 0, d = 0;
    int bank = 0;
    if (std::sscanf(line, "cache_cycles=%lf", &a) == 1) {
      loaded.cache_cycles = a;
      seen |= 1u << 0;
    } else if (std::sscanf(line, "mem_cycles=%lf", &a) == 1) {
      loaded.mem_cycles = a;
      seen |= 1u << 1;
    } else if (std::sscanf(line, "massage_cycles=%lf", &a) == 1) {
      loaded.massage_cycles = a;
      seen |= 1u << 2;
    } else if (std::sscanf(line, "scan_cycles=%lf", &a) == 1) {
      loaded.scan_cycles = a;
      seen |= 1u << 3;
    } else if (std::sscanf(line, "bank%d=%lf,%lf,%lf,%lf", &bank, &a, &b, &c,
                           &d) == 5) {
      // mutable_bank folds every other number onto bank64; a bank the
      // model does not have is a bad file, not 64-bit constants.
      if (bank != 16 && bank != 32 && bank != 64) {
        std::fclose(f);
        return false;
      }
      BankSortParams& bp = loaded.mutable_bank(bank);
      bp.overhead = a;
      bp.sort_network = b;
      bp.in_cache_merge = c;
      bp.out_of_cache_merge = d;
      seen |= 1u << (bank == 16 ? 4 : bank == 32 ? 5 : 6);
    } else if (std::sscanf(line, "counting=%lf,%lf,%lf,%lf", &a, &b, &c,
                           &d) == 4) {
      loaded.counting.overhead = a;
      loaded.counting.per_bucket = b;
      loaded.counting.row_cache = c;
      loaded.counting.row_mem = d;
      seen |= 1u << 7;
    } else if (std::strncmp(line, "radix=", 6) == 0) {
      // A radix line without its four numbers is a bad file.
      if (std::sscanf(line, "radix=%lf,%lf,%lf,%lf", &a, &b, &c, &d) != 4) {
        std::fclose(f);
        return false;
      }
      loaded.radix = {a, b, c, d};
    }
  }
  std::fclose(f);
  // An incomplete or misaddressed file forces one recalibration rather
  // than routing kernels on a mix of stale and default constants.
  if (seen != kAllKeys) return false;
  *params = loaded;
  return true;
}

namespace {

std::once_flag calibrated_params_once;
CostParams* calibrated_params = nullptr;

}  // namespace

const CostParams& CalibratedParams() {
  std::call_once(calibrated_params_once, [] {
    const std::string path =
        EnvStr("MCSORT_CALIBRATION", "mcsort_calibration.txt");
    CostParams params = CostParams::Default();
    if (LoadParams(path.c_str(), &params)) {
      std::fprintf(stderr, "[mcsort] loaded calibration from %s\n",
                   path.c_str());
    } else {
      std::fprintf(stderr,
                   "[mcsort] calibrating cost model (cached to %s)...\n",
                   path.c_str());
      params = Calibrate();
      SaveParams(params, path.c_str());
    }
    calibrated_params = new CostParams(params);  // leaked intentionally
  });
  return *calibrated_params;
}

const CostModel& SharedCostModel() {
  static std::once_flag once;
  static const CostModel* model = nullptr;
  std::call_once(once,
                 [] { model = new CostModel(CalibratedParams()); });
  return *model;
}

}  // namespace mcsort
