// Environment-variable knob parsing shared by the service layer and the
// benchmark harness, so every binary reads the same spellings (e.g.
// MCSORT_RHO, MCSORT_THREADS) identically.
#ifndef MCSORT_COMMON_ENV_H_
#define MCSORT_COMMON_ENV_H_

#include <cstdint>
#include <cstdlib>
#include <string>

namespace mcsort {

inline uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(env, &end, 10);
  return (end != env && v > 0) ? static_cast<uint64_t>(v) : fallback;
}

inline double EnvDouble(const char* name, double fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  char* end = nullptr;
  const double v = std::strtod(env, &end);
  return end != env ? v : fallback;
}

inline std::string EnvStr(const char* name, const char* fallback) {
  const char* env = std::getenv(name);
  return env != nullptr && env[0] != '\0' ? env : fallback;
}

// The per-knob getters (host/port/rho/data-dir/calibration-path/...) that
// used to live here moved into the typed process config —
// common/options.h's ExecOptions::FromEnv() / ServerOptions::FromEnv() —
// so the MCSORT_* spellings are parsed in exactly one place. This header
// keeps only the raw parsing primitives.

// Sort-kernel override (debugging aid, mirrors MCSORT_RHO): MCSORT_KERNELS
// is a comma-separated allow-list over {merge (alias simd), counting,
// radix}. It restricts ROGA's kernel-choice dimension, and when it names
// exactly one kernel the executor forces every round to it, over the
// plan's annotation. Parsed by
// KernelMaskFromEnv (massage/plan.h), which owns the SortKernel names;
// this header only documents the spelling next to its sibling knobs.

}  // namespace mcsort

#endif  // MCSORT_COMMON_ENV_H_
