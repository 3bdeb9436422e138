// Environment-variable parsing primitives shared by the process options
// tree (net/process_options.h), the tools and the benchmark harness, so
// every binary parses a knob the same way.
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

// In library code only net::ProcessOptions::FromEnv calls these, once per
// binary, plus the two reads its header names (MCSORT_CALIBRATION,
// MCSORT_KERNELS); a CI step enforces it.

}  // namespace mcsort

#endif  // MCSORT_COMMON_ENV_H_
