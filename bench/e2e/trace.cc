// Span layout, per-layer self times, and the Chrome trace-event writer.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "bench/e2e/e2e.h"

namespace mcsort {
namespace e2e {
namespace {

size_t SortAttrCount(const QuerySpec& spec) {
  if (!spec.group_by.empty()) return spec.group_by.size();
  if (!spec.partition_by.empty()) return spec.partition_by.size() + 1;
  return spec.order_by.size();
}

// Self time of every span: its duration minus its children's.
std::vector<double> SelfTimes(const RequestSpans& request) {
  std::vector<double> self(request.spans.size());
  for (size_t i = 0; i < request.spans.size(); ++i) {
    self[i] = request.spans[i].dur;
  }
  for (const Span& span : request.spans) {
    if (span.parent >= 0) self[static_cast<size_t>(span.parent)] -= span.dur;
  }
  return self;
}

}  // namespace

void RequestSpans::AddExecution(int parent, const QuerySpec& spec,
                                const QueryResult& result,
                                const char* gap_name,
                                const char* gap_metric) {
  const double begin = spans[static_cast<size_t>(parent)].start;
  const double end = begin + spans[static_cast<size_t>(parent)].dur;
  double t = begin;
  const auto phase = [&](int under, const char* name, const char* metric,
                         double dur) {
    if (dur <= 0) return -1;
    const int id = Add(name, metric, under, t, dur);
    t += dur;
    return id;
  };
  phase(parent, "scan.filter", "scan.filter_ms", result.scan_seconds);
  phase(parent, "scan.lookup", "scan.lookup_ms", result.materialize_seconds);
  phase(parent, "plan.search", "plan.search_ms", result.plan_seconds);

  // The executor books a single-attribute main sort under post_seconds
  // (the paper's "single-column sorting" bucket); move it back under the
  // sort span so that its rounds nest inside it.
  const MultiColumnSortResult& profile = result.sort_profile;
  const double profiled = profile.total_seconds() +
                          result.spill_run_gen_seconds +
                          result.spill_merge_seconds;
  const double moved = SortAttrCount(spec) > 1 ? 0.0 : profile.total_seconds();
  const double sort_dur = result.mcs_seconds + moved;
  const double post_dur = std::max(0.0, result.post_seconds - moved);
  if (sort_dur > 0 && profiled <= sort_dur * 1.0001) {
    const double sort_begin = t;
    const int sort = Add("sort", "sort.other_ms", parent, t, sort_dur);
    phase(sort, "sort.massage", "sort.massage_ms", profile.massage_seconds);
    for (size_t i = 0; i < profile.rounds.size(); ++i) {
      const RoundProfile& round = profile.rounds[i];
      const std::string prefix = "sort.round" + std::to_string(i + 1);
      phase(sort, (prefix + ".lookup").c_str(), "sort.round_lookup_ms",
            round.lookup_seconds);
      phase(sort, (prefix + ".sort").c_str(), "sort.round_sort_ms",
            round.sort_seconds);
      phase(sort, (prefix + ".scan").c_str(), "sort.round_scan_ms",
            round.scan_seconds);
    }
    phase(sort, "spill.run_gen", "spill.run_gen_ms",
          result.spill_run_gen_seconds);
    phase(sort, "spill.merge", "spill.merge_ms", result.spill_merge_seconds);
    t = sort_begin + sort_dur;
  } else {
    phase(parent, "sort", "sort.other_ms", sort_dur);
  }
  phase(parent, "engine.post", "engine.post_ms", post_dur);
  if (end > t) Add(gap_name, gap_metric, parent, t, end - t);
}

void RequestSpans::AddSummary(int parent, const net::ResultSummary& summary,
                              const char* gap_name, const char* gap_metric) {
  const double begin = spans[static_cast<size_t>(parent)].start;
  const double end = begin + spans[static_cast<size_t>(parent)].dur;
  double t = begin;
  const auto phase = [&](const char* name, const char* metric, double dur) {
    if (dur <= 0) return;
    Add(name, metric, parent, t, dur);
    t += dur;
  };
  phase("scan.filter", "scan.filter_ms", summary.scan_seconds);
  phase("scan.lookup", "scan.lookup_ms", summary.materialize_seconds);
  phase("plan.search", "plan.search_ms", summary.plan_seconds);
  phase("sort", "sort.other_ms", summary.mcs_seconds);
  phase("engine.post", "engine.post_ms", summary.post_seconds);
  if (end > t) Add(gap_name, gap_metric, parent, t, end - t);
}

void Tracer::Commit(RequestSpans request) {
  std::lock_guard<std::mutex> lock(mu_);
  request_seconds_ += request.spans[0].dur;
  const Clock::time_point began = request.recording_began;
  requests_.push_back(std::move(request));
  recording_seconds_ += SecondsBetween(began, Clock::now());
}

double Tracer::RecordingFraction() const {
  std::lock_guard<std::mutex> lock(mu_);
  const double busy = recording_seconds_ + request_seconds_;
  return busy > 0 ? recording_seconds_ / busy : 0;
}

std::map<std::string, double> Tracer::LayerMeans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, double> read_total, dml_total;
  uint64_t reads = 0, dmls = 0;
  double read_latency = 0;
  for (const RequestSpans& request : requests_) {
    const bool is_read = request.kind == RequestSpans::Kind::kRead;
    std::map<std::string, double>& total = is_read ? read_total : dml_total;
    (is_read ? reads : dmls) += 1;
    if (is_read) read_latency += request.spans[0].dur;
    const std::vector<double> self = SelfTimes(request);
    for (size_t i = 0; i < request.spans.size(); ++i) {
      const Span& span = request.spans[i];
      if (!span.metric.empty()) total[span.metric] += self[i];
      // The sort layer is also reported whole: children included.
      if (span.name == "sort") total["sort.ms"] += span.dur;
    }
  }
  std::map<std::string, double> means;
  for (const auto& [name, seconds] : read_total) {
    means[name] = reads > 0 ? seconds * 1e3 / static_cast<double>(reads) : 0;
  }
  for (const auto& [name, seconds] : dml_total) {
    means[name] = dmls > 0 ? seconds * 1e3 / static_cast<double>(dmls) : 0;
  }
  means["trace.request_ms"] =
      reads > 0 ? read_latency * 1e3 / static_cast<double>(reads) : 0;
  return means;
}

double Tracer::MedianRequestSumError() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const RequestSpans*> reads;
  for (const RequestSpans& request : requests_) {
    if (request.kind == RequestSpans::Kind::kRead) reads.push_back(&request);
  }
  if (reads.empty()) return 0;
  std::sort(reads.begin(), reads.end(),
            [](const RequestSpans* a, const RequestSpans* b) {
              return a->spans[0].dur < b->spans[0].dur;
            });
  const RequestSpans& median = *reads[reads.size() / 2];
  double sum = 0;
  for (double self : SelfTimes(median)) sum += std::max(0.0, self);
  const double latency = median.spans[0].dur;
  return latency > 0 ? std::fabs(sum - latency) / latency : 0;
}

bool Tracer::WriteChrome(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  bool first = true;
  uint64_t next_id = 1;
  for (size_t r = 0; r < requests_.size(); ++r) {
    const RequestSpans& request = requests_[r];
    const uint64_t base = next_id;
    for (size_t i = 0; i < request.spans.size(); ++i) {
      const Span& span = request.spans[i];
      const uint64_t parent =
          span.parent >= 0 ? base + static_cast<uint64_t>(span.parent) : 0;
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                   "\"args\":{\"id\":%llu,\"parent\":%llu,\"request\":%zu,"
                   "\"query\":\"%s\"}}",
                   first ? "" : ",\n", span.name.c_str(),
                   request.kind == RequestSpans::Kind::kRead ? "read" : "dml",
                   span.start * 1e6, span.dur * 1e6, request.thread,
                   static_cast<unsigned long long>(base + i),
                   static_cast<unsigned long long>(parent), r,
                   request.query.c_str());
      first = false;
    }
    next_id += request.spans.size();
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace e2e
}  // namespace mcsort
