// ProcessOptions — the whole configuration of one mcsort process, parsed
// from the MCSORT_* environment exactly once by a binary's main() and
// handed down as sub-structs: QueryService takes `service`, SetCatalog
// `catalog`, EnableCompaction `compaction`, McsortServer `server`. Library
// code takes those structs and never reads the environment; this is the
// top library layer, so it may name every layer's options.
//
// Knob spellings (all optional; an unset variable keeps the default of the
// layer struct's initializer):
//
//   variable                     field
//   ---------------------------  -----------------------------------
//   MCSORT_THREADS               service.threads
//   MCSORT_RHO                   service.rho
//   MCSORT_SPILL                 service.spill.enabled       (0 = off)
//   MCSORT_SPILL_DIR             service.spill.dir
//   MCSORT_SPILL_PREFETCH        service.spill.prefetch      (0 = off)
//   MCSORT_DATA_DIR              catalog.dir
//   MCSORT_MMAP                  catalog.load.mode           (1 = mmap)
//   MCSORT_MEMORY_BUDGET         catalog.memory_budget_bytes
//   MCSORT_COMPACT               compaction.enabled          (1 = on)
//   MCSORT_COMPACT_INTERVAL_MS   compaction.interval_ms
//   MCSORT_COMPACT_MIN_ROWS      compaction.min_delta_rows
//   MCSORT_HOST                  server.host
//   MCSORT_PORT                  server.port                 (0 = ephemeral)
//   MCSORT_MAX_CONNS             server.max_connections
//   MCSORT_SCRATCH_BUDGET        server.scratch_budget_bytes
//   MCSORT_N                     demo_rows
//
// Two knobs are read below this tree, each by the one function that owns
// it: MCSORT_CALIBRATION (the cost-model cache file, default
// ./mcsort_calibration.txt) by CalibratedParams() in cost/calibration.h,
// a once-per-process cache; and MCSORT_KERNELS (the sort-kernel allow-list)
// by KernelMaskFromEnv() in massage/plan.h, so that unmodified test
// binaries can be re-run with a kernel forced.
#ifndef MCSORT_NET_PROCESS_OPTIONS_H_
#define MCSORT_NET_PROCESS_OPTIONS_H_

#include <cstdint>

#include "mcsort/common/status.h"
#include "mcsort/delta/compactor.h"
#include "mcsort/net/server.h"
#include "mcsort/service/query_service.h"

namespace mcsort {
namespace net {

struct ProcessOptions {
  ServiceOptions service;
  CatalogOptions catalog;
  delta::CompactionOptions compaction;
  ServerOptions server;
  // Rows of mcsort_server's generated demo table.
  uint64_t demo_rows = uint64_t{1} << 20;

  // Resets *out to ProcessOptions{} and applies every variable that is
  // set. Numbers follow EnvU64 (common/env.h): a malformed value or 0
  // leaves the default. MCSORT_SPILL, MCSORT_SPILL_PREFETCH, MCSORT_COMPACT
  // and MCSORT_MMAP are switches: set and non-empty, a value that parses
  // to 0 (or does not parse) means off. Returns kInvalidArgument, naming
  // the variable and leaving *out untouched, when a number parses but does
  // not fit its field.
  static Status FromEnv(ProcessOptions* out);
};

}  // namespace net
}  // namespace mcsort

#endif  // MCSORT_NET_PROCESS_OPTIONS_H_
