// Calibration of the cost-model constants from controlled experiments on
// the actual hardware (Sec. 4): the paper's approach of instantiating the
// cost equations with measured runtimes and solving the constants as a
// linear system.
//
//   * C_cache / C_mem: lookups at two data sizes chosen to hit cache-hit
//     ratios ~0.9 and ~0.1 in Eq. 3; two equations, two unknowns.
//   * C_massage: measured massaging time of the Sec. 3 example plans
//     divided by N * I_FIP.
//   * C_scan: measured group-extraction scan, cycles per row.
//   * Per-bank sort constants: the segmented sort is timed at several
//     N_group values (1, 16, ..., 64Ki groups over the same N rows) and
//     (C_overhead, C_sort-network + C_in-cache-merge, C_out-of-cache-merge)
//     are fit by least squares. C_sort-network and C_in-cache-merge both
//     scale with N (Eqs. 6-7), so only their sum is identifiable — exactly
//     as in the paper's joint calibration; the sum is split evenly, which
//     leaves every prediction unchanged.
//   * Counting constants: width x group-count sweep; the domain walks
//     identify the per-bucket term, widths past L2 split the cached vs
//     missing per-row costs.
//   * Radix constants: width x group-count sweep; the digit-pass counts
//     and group counts split the per-invocation, per-bucket and per-row
//     terms, single large groups the MSD surcharge.
#ifndef MCSORT_COST_CALIBRATION_H_
#define MCSORT_COST_CALIBRATION_H_

#include <cstdint>

#include "mcsort/cost/cost_model.h"
#include "mcsort/cost/params.h"

namespace mcsort {

struct CalibrationOptions {
  // Rows used for the sort-constant experiments (per bank).
  uint64_t sort_rows = uint64_t{1} << 21;
  // Rows for the massage / scan experiments.
  uint64_t massage_rows = uint64_t{1} << 21;
  // Target cache-hit ratios for the two lookup experiments.
  double lookup_hit_hi = 0.9;
  double lookup_hit_lo = 0.1;
  // Cap on the lookup experiment size (rows), so calibration stays fast on
  // machines whose (effective) LLC is large.
  uint64_t lookup_rows_cap = uint64_t{1} << 24;
  // Repetitions per measurement (median-of is taken implicitly by
  // averaging after one warmup run).
  int repeats = 3;
  // Deterministic seed for the synthetic data.
  uint64_t seed = 0x5EED;
};

// Runs all calibration experiments and returns the fitted parameters
// (starting from CostParams::Default() for the hardware constants).
CostParams Calibrate(const CalibrationOptions& options = {});

// Returns lazily calibrated process-wide parameters. On first call, loads
// cached constants from $MCSORT_CALIBRATION (default
// "mcsort_calibration.txt" in the working directory) if present; otherwise
// calibrates with default options and writes the cache, so a suite of
// benchmark binaries calibrates only once per machine. The cache is
// process-wide, so it reads its file's name itself rather than through
// the process options tree (net/process_options.h). Thread-safe: the
// load/calibrate runs exactly once behind std::call_once; concurrent
// first callers block until it completes.
const CostParams& CalibratedParams();

// Process-wide cost model over CalibratedParams(), constructed exactly
// once (std::call_once) and shared by all query-service sessions — no
// session ever re-reads the calibration file or re-runs calibration.
const CostModel& SharedCostModel();

// Serialization of calibrated constants (simple key=value text).
// LoadParams returns false, leaving `params` untouched, unless every key
// SaveParams writes is present and every bank line names bank 16, 32 or
// 64; unknown lines are skipped. The `radix=` line is the exception: a
// file without it loads and keeps the caller's radix constants, while a
// radix line without four numbers rejects the file.
bool SaveParams(const CostParams& params, const char* path);
bool LoadParams(const char* path, CostParams* params);

}  // namespace mcsort

#endif  // MCSORT_COST_CALIBRATION_H_
