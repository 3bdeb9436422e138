#include "mcsort/net/process_options.h"

#include <cstdlib>
#include <limits>
#include <string>
#include <utility>

#include "mcsort/common/env.h"

namespace mcsort {
namespace net {
namespace {

// EnvU64 into a narrower field: a value that parses but does not fit is an
// error, never a silent wrap (MCSORT_PORT=70000 must not bind port 4464).
template <typename T>
Status EnvInto(const char* name, T* field) {
  const uint64_t value = EnvU64(name, 0);
  if (value == 0) return Status::Ok();
  const uint64_t max = static_cast<uint64_t>(std::numeric_limits<T>::max());
  if (value > max) {
    return Status::InvalidArgument(std::string(name) + "=" +
                                   std::to_string(value) +
                                   " is out of range (max " +
                                   std::to_string(max) + ")");
  }
  *field = static_cast<T>(value);
  return Status::Ok();
}

// EnvU64 treats 0 as "unset", so the off switches parse the raw string.
void EnvSwitch(const char* name, bool* field) {
  const char* env = std::getenv(name);
  if (env != nullptr && env[0] != '\0') {
    *field = std::strtoull(env, nullptr, 10) != 0;
  }
}

}  // namespace

Status ProcessOptions::FromEnv(ProcessOptions* out) {
  ProcessOptions options;
  ServiceOptions& service = options.service;
  ServerOptions& server = options.server;

  // The fields narrower than EnvU64's uint64_t.
  Status status = EnvInto("MCSORT_THREADS", &service.threads);
  if (status.ok()) status = EnvInto("MCSORT_PORT", &server.port);
  if (status.ok()) {
    status = EnvInto("MCSORT_MAX_CONNS", &server.max_connections);
  }
  if (!status.ok()) return status;

  service.rho = EnvDouble("MCSORT_RHO", service.rho);
  EnvSwitch("MCSORT_SPILL", &service.spill.enabled);
  service.spill.dir = EnvStr("MCSORT_SPILL_DIR", service.spill.dir.c_str());

  CatalogOptions& catalog = options.catalog;
  catalog.dir = EnvStr("MCSORT_DATA_DIR", catalog.dir.c_str());
  bool mmap = catalog.load.mode == SnapshotLoadMode::kMmap;
  EnvSwitch("MCSORT_MMAP", &mmap);
  catalog.load.mode =
      mmap ? SnapshotLoadMode::kMmap : SnapshotLoadMode::kBuffered;
  catalog.memory_budget_bytes =
      EnvU64("MCSORT_MEMORY_BUDGET", catalog.memory_budget_bytes);

  delta::CompactionOptions& compaction = options.compaction;
  EnvSwitch("MCSORT_COMPACT", &compaction.enabled);
  compaction.interval_ms =
      EnvU64("MCSORT_COMPACT_INTERVAL_MS", compaction.interval_ms);
  compaction.min_delta_rows =
      EnvU64("MCSORT_COMPACT_MIN_ROWS", compaction.min_delta_rows);

  server.host = EnvStr("MCSORT_HOST", server.host.c_str());
  server.scratch_budget_bytes =
      EnvU64("MCSORT_SCRATCH_BUDGET", server.scratch_budget_bytes);

  options.demo_rows = EnvU64("MCSORT_N", options.demo_rows);

  *out = std::move(options);
  return Status::Ok();
}

}  // namespace net
}  // namespace mcsort
