// mcsort_e2e — the end-to-end benchmark program. One workload per process:
//
//   mcsort_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              --params <cost_params.txt> --work-dir <dir>
//              [--trace-out <file>] [--smoke]
//
// It sets the workload up three times (setup_s is the median), computes
// the reference answers, measures one window, and prints every end-to-end
// metric as `name value unit n=<samples>`. With --trace 1 it then measures
// a second, traced window of the same length and prints the per-layer
// metrics from it; the spans go to --trace-out as Chrome trace events.
// The last line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}, the end-to-end metrics untraced and the per-layer ones
// traced. A `# record` line before it carries the full record (samples,
// machine, setups) for run.sh.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/e2e/e2e.h"
#include "mcsort/common/cpu_info.h"
#include "mcsort/cost/calibration.h"

namespace mcsort {
namespace e2e {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every workload reports every metric. Names and units match
// BENCHMARK.json; smoke.sh checks that they do.
//
// The median latency is printed and recorded but not a gated metric. On a
// shared host, stretches of seconds run about 1.5x slower; a single-class
// workload such as write_churn then has a two-humped latency distribution,
// and its median (or any low percentile) jumps between the humps from run
// to run. Every workload is a closed loop, so mean latency already follows
// from qps and the number of callers; the 90th percentile is the gated
// latency.
constexpr MetricDef kEndToEnd[] = {
    {"qps", "1/s"},
    {"latency_p90_ms", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"trace.request_ms", "ms"},
    {"scan.filter_ms", "ms"},
    {"scan.lookup_ms", "ms"},
    {"plan.search_ms", "ms"},
    {"plan.flips", "count"},
    {"sort.ms", "ms"},
    {"sort.massage_ms", "ms"},
    {"sort.round_lookup_ms", "ms"},
    {"sort.round_sort_ms", "ms"},
    {"sort.round_scan_ms", "ms"},
    {"sort.other_ms", "ms"},
    {"sort.rounds", "1/query"},
    {"sort.kernel.merge", "1/query"},
    {"sort.kernel.radix", "1/query"},
    {"sort.kernel.ovc", "1/query"},
    {"sort.kernel.counting", "1/query"},
    {"spill.run_gen_ms", "ms"},
    {"spill.merge_ms", "ms"},
    {"spill.frac", "ratio"},
    {"spill.groupby_frac", "ratio"},
    {"spill.runs", "1/query"},
    {"spill.bytes", "B/query"},
    {"engine.post_ms", "ms"},
    {"engine.unattributed_ms", "ms"},
    {"service.session_ms", "ms"},
    {"service.admission_wait_ms", "ms"},
    {"service.plan_cache_hit_rate", "ratio"},
    {"net.server_ms", "ms"},
    {"net.overhead_ms", "ms"},
    {"net.bytes_out_per_query", "B/query"},
    {"delta.apply_ms", "ms"},
    {"delta.snapshot_ms", "ms"},
    {"delta.snapshot_rebuild_ratio", "ratio"},
    {"delta.rows_at_read", "rows"},
    {"dml.p50_ms", "ms"},
    {"dml.p99_ms", "ms"},
    {"dml.lateness_mean_ms", "ms"},
    {"dml.lateness_p99_ms", "ms"},
    {"compaction.count", "count"},
    {"compaction.ms", "ms"},
    {"compaction.rows_folded", "rows"},
    {"io.write_bytes", "B"},
    {"write_amp", "ratio"},
    {"cpu.user_ms_per_query", "ms"},
    {"cpu.sys_ms_per_query", "ms"},
    {"trace.overhead_frac", "ratio"},
    {"trace.record_frac", "ratio"},
    {"trace.sum_error", "ratio"},
};

// Bytes a folded row stands for in write_amp's denominator.
constexpr double kRowBytes = 32;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 15;
  bool trace = false;
  bool smoke = false;
  std::string trace_out;
  std::string work_dir;
  std::string params;
};

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    const size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (flag != "--smoke" && i + 1 < argc) {
      value = argv[++i];
    }
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (!(args->seconds > 0)) end = nullptr;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        *error = "--trace takes 0 or 1";
        return false;
      }
      args->trace = value == "1";
    } else if (flag == "--smoke") {
      args->smoke = true;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--params") {
      args->params = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
    if ((flag == "--seed" || flag == "--seconds") &&
        (end == nullptr || *end != '\0' || value.empty())) {
      *error = "bad value for " + flag + ": '" + value + "'";
      return false;
    }
  }
  if (args->workload.empty() || args->work_dir.empty() ||
      args->params.empty()) {
    *error = "--workload, --work-dir and --params are required";
    return false;
  }
  return true;
}

struct Usage {
  double user = 0;
  double sys = 0;
  uint64_t wchar = 0;

  static Usage Now() {
    Usage u;
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    u.user = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
    u.sys = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
    std::ifstream io("/proc/self/io");
    std::string key;
    uint64_t value = 0;
    while (io >> key >> value) {
      if (key == "wchar:") u.wchar = value;
    }
    return u;
  }
};

// Peak resident memory is measured over the untraced window only: the
// kernel's high-water mark is reset once the workload is set up, so the
// benchmark's own reference computation does not count, and read right
// after the window, before the traced window and the final checks. Free
// heap memory left by the discarded setups goes back to the system first,
// so that the mark starts from what the workload holds.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

// One window plus the process counters around it.
struct Measured {
  WindowResult window;
  Usage before, after;
  double qps() const {
    return window.seconds > 0
               ? static_cast<double>(window.latencies.size()) / window.seconds
               : 0;
  }
};

Measured Measure(WorkloadRunner* runner, double seconds, Tracer* tracer) {
  Measured m;
  m.before = Usage::Now();
  m.window = runner->RunWindow(seconds, tracer);
  m.after = Usage::Now();
  return m;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

std::string MachineJson() {
  const CpuInfo& cpu = CpuInfo::Get();
  std::string model = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0) {
      model = line.substr(line.find(':') + 2);
      break;
    }
  }
  __builtin_cpu_init();
  std::string isa = "x86-64";
  if (__builtin_cpu_supports("avx2")) isa += "+avx2";
  if (__builtin_cpu_supports("avx512f")) isa += "+avx512f";
  std::ostringstream out;
  model.erase(std::remove_if(model.begin(), model.end(),
                             [](char c) { return c == '"' || c == '\\'; }),
              model.end());
  out << "{\"cores\":" << std::thread::hardware_concurrency()
      << ",\"model\":\"" << model << "\",\"isa\":\"" << isa
      << "\",\"l1d_bytes\":" << cpu.l1d_bytes << ",\"l2_bytes\":" << cpu.l2_bytes
      << ",\"llc_bytes\":" << cpu.llc_bytes << "}";
  return out.str();
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const MetricDef* defs, size_t count,
                        const std::map<std::string, double>& values,
                        const std::map<std::string, uint64_t>* samples) {
  std::string out = "{";
  for (size_t i = 0; i < count; ++i) {
    const auto it = values.find(defs[i].name);
    out += std::string(i == 0 ? "" : ", ") + "\"" + defs[i].name +
           "\": {\"value\": " + Num(it == values.end() ? 0 : it->second) +
           ", \"unit\": \"" + defs[i].unit + "\"";
    if (samples != nullptr) {
      const auto s = samples->find(defs[i].name);
      if (s != samples->end()) out += ", \"samples\": " + std::to_string(s->second);
    }
    out += "}";
  }
  return out + "}";
}

void PrintLines(const MetricDef* defs, size_t count,
                const std::map<std::string, double>& values,
                const std::map<std::string, uint64_t>& samples) {
  for (size_t i = 0; i < count; ++i) {
    const auto it = values.find(defs[i].name);
    const auto s = samples.find(defs[i].name);
    std::printf("%-30s %14.4f %-8s", defs[i].name,
                it == values.end() ? 0.0 : it->second, defs[i].unit);
    if (s != samples.end()) {
      std::printf(" n=%llu", static_cast<unsigned long long>(s->second));
    }
    std::printf("\n");
  }
}

using Factory = std::function<std::unique_ptr<WorkloadRunner>(const RunOptions&)>;

int Run(const Args& args) {
  const std::map<std::string, Factory> factories = {
      {"olap_tpch", MakeOlapTpch},
      {"serve_mix", MakeServeMix},
      {"write_churn", MakeWriteChurn},
      {"spill_sort", MakeSpillSort},
  };
  const auto factory = factories.find(args.workload);
  if (factory == factories.end()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const double seconds = args.smoke ? 2 : args.seconds;
  RunOptions run;
  run.seed = args.seed;
  run.params = CostParams::Default();
  if (!LoadParams(args.params.c_str(), &run.params)) {
    std::fprintf(stderr, "cannot load cost parameters from %s\n",
                 args.params.c_str());
    return 2;
  }
  run.work_dir = args.work_dir + "/" + args.workload + "-" +
                 std::to_string(static_cast<long>(getpid()));
  std::filesystem::create_directories(run.work_dir);
  struct RemoveOnExit {
    std::string dir;
    ~RemoveOnExit() {
      std::error_code ignored;
      std::filesystem::remove_all(dir, ignored);
    }
  } cleanup{run.work_dir};

  std::printf("# mcsort_e2e workload=%s seed=%llu seconds=%g trace=%d%s\n",
              args.workload.c_str(), static_cast<unsigned long long>(run.seed),
              seconds, args.trace ? 1 : 0, args.smoke ? " smoke" : "");
  std::fflush(stdout);

  // Set up several times so that setup_s is a median; keep the last.
  const int setups = args.smoke ? 1 : 3;
  std::vector<double> setup_seconds;
  std::unique_ptr<WorkloadRunner> runner;
  for (int i = 0; i < setups; ++i) {
    runner.reset();
    const Clock::time_point t0 = Clock::now();
    runner = factory->second(run);
    if (!runner->Setup()) {
      std::fprintf(stderr, "%s: setup failed\n", args.workload.c_str());
      return 1;
    }
    setup_seconds.push_back(SecondsBetween(t0, Clock::now()));
  }
  runner->PrepareChecks();

  ResetPeakRss();
  const Measured plain = Measure(runner.get(), seconds, nullptr);
  const double peak_rss_mib = PeakRssMiB();
  Tracer tracer;
  Measured traced;
  if (args.trace) traced = Measure(runner.get(), seconds, &tracer);
  const uint64_t finish_failures = runner->Finish();
  runner.reset();

  const WindowResult& w = plain.window;
  const uint64_t reads = w.latencies.size();
  std::map<std::string, double> e2e = {
      {"qps", plain.qps()},
      {"latency_p90_ms", Percentile(w.latencies, 0.9) * 1e3},
      {"setup_s", Median(setup_seconds)},
      {"peak_rss_mb", peak_rss_mib},
  };
  std::map<std::string, uint64_t> samples = {
      {"qps", reads},
      {"latency_p90_ms", reads},
      {"setup_s", setup_seconds.size()},
  };
  PrintLines(kEndToEnd, std::size(kEndToEnd), e2e, samples);
  std::printf("%-30s %14.4f %-8s n=%llu (not gated)\n", "latency_p50_ms",
              Percentile(w.latencies, 0.5) * 1e3, "ms",
              static_cast<unsigned long long>(reads));

  std::map<std::string, double> layer;
  if (args.trace) {
    const WindowResult& t = traced.window;
    layer = t.layer;
    for (const auto& [name, value] : tracer.LayerMeans()) layer[name] = value;
    const double queries = std::max<double>(1, t.latencies.size());
    layer["cpu.user_ms_per_query"] =
        (traced.after.user - traced.before.user) * 1e3 / queries;
    layer["cpu.sys_ms_per_query"] =
        (traced.after.sys - traced.before.sys) * 1e3 / queries;
    const double written =
        static_cast<double>(traced.after.wchar - traced.before.wchar);
    layer["io.write_bytes"] = written;
    const double folded = layer["compaction.rows_folded"];
    layer["write_amp"] = folded > 0 ? written / (folded * kRowBytes) : 0;
    // The two windows run back to back in one process, so their difference
    // carries window-to-window noise as well as the tracer's cost; the
    // recording time is that cost measured directly.
    layer["trace.overhead_frac"] =
        plain.qps() > 0 ? (plain.qps() - traced.qps()) / plain.qps() : 0;
    layer["trace.record_frac"] = tracer.RecordingFraction();
    layer["trace.sum_error"] = tracer.MedianRequestSumError();
    std::map<std::string, uint64_t> layer_samples;
    for (const MetricDef& def : kPerLayer) {
      layer_samples[def.name] = t.latencies.size();
    }
    std::printf("# per-layer (traced window)\n");
    PrintLines(kPerLayer, std::size(kPerLayer), layer, layer_samples);
    if (!args.trace_out.empty() && !tracer.WriteChrome(args.trace_out)) {
      std::fprintf(stderr, "cannot write trace %s\n", args.trace_out.c_str());
      return 1;
    }
  }

  const uint64_t attempted = plain.window.attempted + traced.window.attempted;
  const uint64_t failed =
      plain.window.failed + traced.window.failed + finish_failures;
  const bool correct = failed == 0 && attempted > 0;
  std::printf(
      "# record {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"smoke\": %s, \"machine\": %s, \"setup_runs_s\": [",
      args.workload.c_str(), static_cast<unsigned long long>(run.seed),
      Num(seconds).c_str(), args.trace ? 1 : 0,
      args.smoke ? "true" : "false", MachineJson().c_str());
  for (size_t i = 0; i < setup_seconds.size(); ++i) {
    std::printf("%s%s", i == 0 ? "" : ", ", Num(setup_seconds[i]).c_str());
  }
  std::printf("], \"latency_ms\": {");
  const std::pair<const char*, double> percentiles[] = {
      {"p10", 0.1}, {"p25", 0.25}, {"p50", 0.5}, {"p90", 0.9}, {"p99", 0.99}};
  for (const auto& [name, p] : percentiles) {
    std::printf("\"%s\": %s, ", name,
                Num(Percentile(w.latencies, p) * 1e3).c_str());
  }
  std::printf(
      "\"samples\": %llu}, \"window_s\": %s, \"trace_file\": \"%s\", "
      "\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"end_to_end\": %s",
      static_cast<unsigned long long>(reads), Num(w.seconds).c_str(),
      args.trace ? args.trace_out.c_str() : "",
      correct ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed),
      MetricsJson(kEndToEnd, std::size(kEndToEnd), e2e, &samples).c_str());
  if (args.trace) {
    std::printf(", \"per_layer\": %s",
                MetricsJson(kPerLayer, std::size(kPerLayer), layer, nullptr)
                    .c_str());
  }
  std::printf("}\n");
  const std::string metrics =
      args.trace
          ? MetricsJson(kPerLayer, std::size(kPerLayer), layer, nullptr)
          : MetricsJson(kEndToEnd, std::size(kEndToEnd), e2e, nullptr);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e
}  // namespace mcsort

int main(int argc, char** argv) {
  using namespace mcsort;
  e2e::Args args;
  std::string error;
  if (!e2e::ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "mcsort_e2e: %s\n", error.c_str());
    return 2;
  }
  return e2e::Run(args);
}
