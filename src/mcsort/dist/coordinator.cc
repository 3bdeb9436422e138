#include "mcsort/dist/coordinator.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "mcsort/common/bits.h"
#include "mcsort/common/timer.h"

namespace mcsort {
namespace dist {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Internal state
// ---------------------------------------------------------------------------

struct McsortCoordinator::ShardState {
  ShardSpec spec;
  // One pooled client per replica endpoint, created (and connected) on
  // first use, reused across Execute calls while healthy.
  std::vector<std::unique_ptr<net::McsortClient>> clients;
  // The client currently blocked in TryQuery, for cross-thread Cancel().
  net::McsortClient* inflight = nullptr;
  std::mutex inflight_mu;
};

struct McsortCoordinator::ShardCall {
  net::RemoteResult result;
  ShardOutcome outcome;
  bool ok = false;
};

namespace {

// Should this (ClientStatus, ErrorCode) outcome be retried on the next
// replica? Transport-level failures and explicit "try elsewhere" server
// answers are; semantic verdicts are not.
bool Retryable(net::ClientStatus status, net::ErrorCode error) {
  switch (status) {
    case net::ClientStatus::kNotConnected:
    case net::ClientStatus::kTransportError:
    case net::ClientStatus::kCallTimeout:
      return true;
    case net::ClientStatus::kServerError:
      return error == net::ErrorCode::kBusy ||
             error == net::ErrorCode::kShuttingDown;
    default:
      return false;
  }
}

// Collapses the failed shards' outcomes into one code (most specific
// verdict wins; cancellation and deadline trump the rest; a shard that
// merely ran out of replicas and retries is kUnavailable).
StatusCode CodeOfFailures(const std::vector<ShardOutcome>& outcomes,
                          bool cancelled) {
  if (cancelled) return StatusCode::kCancelled;
  StatusCode code = StatusCode::kUnavailable;
  for (const ShardOutcome& o : outcomes) {
    if (o.client_status == net::ClientStatus::kOk &&
        o.error == net::ErrorCode::kNone) {
      continue;
    }
    switch (o.error) {
      case net::ErrorCode::kCancelled:
        return StatusCode::kCancelled;
      case net::ErrorCode::kDeadlineExceeded:
        code = StatusCode::kDeadlineExceeded;
        break;
      case net::ErrorCode::kBadQuery:
      case net::ErrorCode::kMalformedQuery:
      case net::ErrorCode::kUnknownTable:
        if (code == StatusCode::kUnavailable) {
          code = StatusCode::kInvalidArgument;
        }
        break;
      default:
        break;
    }
    if (o.client_status == net::ClientStatus::kCallTimeout &&
        code == StatusCode::kUnavailable) {
      code = StatusCode::kDeadlineExceeded;
    }
  }
  return code;
}

// Extracts group-by attribute `j`'s code back out of a merged composite
// key (merge_keys.h layout: widths concatenated MSB-first, left-aligned).
uint64_t SliceKey(Key128 key, const std::vector<int>& widths, size_t j) {
  int prefix = 0;
  for (size_t i = 0; i < j; ++i) prefix += widths[i];
  int total = prefix;
  for (size_t i = j; i < widths.size(); ++i) total += widths[i];
  const unsigned __int128 k =
      (static_cast<unsigned __int128>(key.hi) << 64) | key.lo;
  const int shift = 128 - prefix - widths[j];
  return static_cast<uint64_t>(k >> shift) & LowBitsMask(widths[j]);
}

}  // namespace

// ---------------------------------------------------------------------------
// Construction / registration
// ---------------------------------------------------------------------------

McsortCoordinator::McsortCoordinator(CoordinatorOptions options)
    : options_(std::move(options)) {}

McsortCoordinator::~McsortCoordinator() = default;

void McsortCoordinator::AddShard(ShardSpec spec) {
  auto state = std::make_unique<ShardState>();
  state->spec = std::move(spec);
  state->clients.resize(state->spec.endpoints.size());
  shards_.push_back(std::move(state));
}

void McsortCoordinator::Count(const std::string& name) {
  if (options_.metrics != nullptr) options_.metrics->counter(name)->Increment();
}

bool McsortCoordinator::Backoff(double seconds) {
  std::unique_lock<std::mutex> lock(backoff_mu_);
  backoff_cv_.wait_for(
      lock, std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(seconds)),
      [this] { return cancelled_.load(std::memory_order_acquire); });
  return !cancelled_.load(std::memory_order_acquire);
}

void McsortCoordinator::Cancel() {
  cancelled_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(backoff_mu_);
  }
  backoff_cv_.notify_all();
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->inflight_mu);
    if (shard->inflight != nullptr) shard->inflight->Cancel();
  }
}

// ---------------------------------------------------------------------------
// Per-shard call with replica failover
// ---------------------------------------------------------------------------

void McsortCoordinator::RunShard(ShardState& state, int shard_index,
                                 const QuerySpec& spec, bool has_deadline,
                                 Clock::time_point deadline, ShardCall* call) {
  Timer timer;
  ShardOutcome& outcome = call->outcome;
  outcome.shard = shard_index;
  const int endpoints = static_cast<int>(state.spec.endpoints.size());
  const int max_attempts = std::max(1, options_.max_attempts_per_shard);
  if (endpoints == 0) {
    outcome.client_status = net::ClientStatus::kNotConnected;
    outcome.detail = "shard has no endpoints";
    outcome.seconds = timer.Seconds();
    return;
  }

  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (cancelled_.load(std::memory_order_acquire)) {
      outcome.client_status = net::ClientStatus::kNotConnected;
      outcome.error = net::ErrorCode::kCancelled;
      outcome.detail = "cancelled before attempt";
      break;
    }
    double remaining = 0;
    if (has_deadline) {
      remaining =
          std::chrono::duration<double>(deadline - Clock::now()).count();
      if (remaining <= 0) {
        outcome.client_status = net::ClientStatus::kCallTimeout;
        outcome.detail = "coordinator deadline exhausted";
        break;
      }
    }
    const int e = attempt % endpoints;
    ++outcome.attempts;
    Count("dist.shard_attempts");
    if (attempt > 0) Count("dist.shard_retries");
    if (attempt > 0 && e != (attempt - 1) % endpoints) {
      Count("dist.shard_failovers");
    }

    net::McsortClient* client = state.clients[e].get();
    if (client == nullptr) {
      net::ClientOptions copts;
      copts.host = state.spec.endpoints[e].host;
      copts.port = state.spec.endpoints[e].port;
      copts.connect_timeout_seconds = options_.connect_timeout_seconds;
      copts.io_timeout_seconds = options_.io_timeout_seconds;
      copts.client_name = options_.client_name;
      state.clients[e] = std::make_unique<net::McsortClient>(copts);
      client = state.clients[e].get();
    }
    if (!client->connected()) {
      std::string error;
      if (!client->Connect(&error)) {
        outcome.client_status = net::ClientStatus::kNotConnected;
        outcome.error = net::ErrorCode::kNone;
        outcome.detail = "connect " + state.spec.endpoints[e].host + ": " +
                         error;
        if (attempt + 1 < max_attempts &&
            Backoff(options_.retry_backoff_seconds * (1 << attempt))) {
          continue;
        }
        break;
      }
    }
    if (!client->ServerHasCapability(net::kCapMergeKeys)) {
      outcome.client_status = net::ClientStatus::kServerError;
      outcome.error = net::ErrorCode::kUnsupportedVersion;
      outcome.detail = "shard server lacks the merge-keys capability";
      break;  // a config problem, not a transient — do not retry
    }

    net::QueryCallOptions qopts;
    qopts.table = state.spec.table;
    qopts.want_merge_keys = true;
    qopts.call_timeout_seconds = options_.attempt_timeout_seconds;
    if (has_deadline) {
      qopts.deadline_seconds = remaining;
      qopts.call_timeout_seconds =
          qopts.call_timeout_seconds > 0
              ? std::min(qopts.call_timeout_seconds, remaining)
              : remaining;
    }

    {
      std::lock_guard<std::mutex> lock(state.inflight_mu);
      state.inflight = client;
    }
    const net::ClientStatus status =
        client->TryQuery(spec, qopts, &call->result);
    {
      std::lock_guard<std::mutex> lock(state.inflight_mu);
      state.inflight = nullptr;
    }

    outcome.client_status = status;
    outcome.error = call->result.error;
    outcome.detail = call->result.error_detail;
    outcome.endpoint_used = e;
    if (status == net::ClientStatus::kOk) {
      call->ok = true;
      break;
    }
    if (!Retryable(status, call->result.error) || attempt + 1 >= max_attempts) {
      break;
    }
    if (!Backoff(options_.retry_backoff_seconds * (1 << attempt))) break;
  }
  outcome.seconds = timer.Seconds();
}

// ---------------------------------------------------------------------------
// Execute: fan out, merge, stitch
// ---------------------------------------------------------------------------

bool McsortCoordinator::FetchWidths(const std::vector<std::string>& names,
                                    std::vector<int>* widths,
                                    std::string* error) {
  for (const auto& shard : shards_) {
    for (auto& client : shard->clients) {
      if (client == nullptr || !client->connected()) continue;
      net::SchemaReply schema;
      if (!client->GetSchema(&schema)) continue;
      const std::string want = shard->spec.table.empty()
                                   ? client->hello().default_table
                                   : shard->spec.table;
      for (const net::TableSchema& t : schema.tables) {
        if (t.name != want) continue;
        widths->clear();
        for (const std::string& name : names) {
          for (const net::ColumnInfo& c : t.columns) {
            if (c.name == name) {
              widths->push_back(c.width);
              break;
            }
          }
        }
        if (widths->size() == names.size()) return true;
      }
    }
  }
  *error = "could not resolve group-by column widths from any shard schema";
  return false;
}

DistResult McsortCoordinator::Execute(const QuerySpec& spec,
                                      const DistCallOptions& call) {
  DistResult out;
  Count("dist.queries");
  // Records a failed fan-out under dist.query_error.<status name>.
  const auto fail = [&](Status status) {
    Count(std::string("dist.query_error.") + status.name());
    out.status = std::move(status);
  };
  if (shards_.empty()) {
    fail(Status::FailedPrecondition("no shards registered"));
    return out;
  }
  if (!spec.partition_by.empty() || !spec.window_order_column.empty()) {
    fail(Status::Unimplemented(
        "window (PARTITION BY) queries are not distributed"));
    return out;
  }
  const bool per_group = !spec.group_by.empty();
  if (!per_group && spec.order_by.empty()) {
    fail(Status::Unimplemented(
        "distributed execution requires GROUP BY or ORDER BY"));
    return out;
  }

  // The shard-side spec: pinned column order, merge-aware costing, result
  // ordering stripped (re-applied over the *merged* groups below — a
  // shard-local result order would be meaningless after interleaving).
  QuerySpec shard_spec = spec;
  shard_spec.fixed_column_order = true;
  shard_spec.merge_fan_in = static_cast<int>(shards_.size());
  shard_spec.result_order.clear();

  cancelled_.store(false, std::memory_order_release);
  const bool has_deadline = call.deadline_seconds > 0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             has_deadline ? call.deadline_seconds : 0));

  // Fan out: one thread per shard.
  Timer fanout_timer;
  std::vector<ShardCall> calls(shards_.size());
  std::vector<std::thread> threads;
  threads.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    threads.emplace_back([this, s, &shard_spec, has_deadline, deadline,
                          &calls] {
      RunShard(*shards_[s], static_cast<int>(s), shard_spec, has_deadline,
               deadline, &calls[s]);
    });
  }
  for (std::thread& t : threads) t.join();
  out.fanout_seconds = fanout_timer.Seconds();
  if (options_.metrics != nullptr) {
    options_.metrics->histogram("dist.fanout_seconds")
        ->Record(out.fanout_seconds);
  }

  bool all_ok = true;
  for (size_t s = 0; s < shards_.size(); ++s) {
    calls[s].outcome.elements = calls[s].result.extras.merge_key_hi.size();
    out.shards.push_back(calls[s].outcome);
    all_ok = all_ok && calls[s].ok;
  }
  if (!all_ok) {
    std::string detail;
    for (const ShardOutcome& o : out.shards) {
      if (o.client_status != net::ClientStatus::kOk ||
          o.error != net::ErrorCode::kNone) {
        detail = "shard " + std::to_string(o.shard) + ": " +
                 (o.detail.empty() ? net::ClientStatusName(o.client_status)
                                   : o.detail);
        break;
      }
    }
    fail(Status(CodeOfFailures(out.shards,
                               cancelled_.load(std::memory_order_acquire)),
                std::move(detail)));
    return out;
  }

  // Structural validation before the merge: every shard must have shipped
  // coherent merge-key sections.
  const size_t num_specs = spec.aggregates.size();
  for (size_t s = 0; s < calls.size(); ++s) {
    const net::RemoteResult& r = calls[s].result;
    const size_t elems = r.extras.merge_key_hi.size();
    bool bad = r.extras.merge_key_lo.size() != elems;
    if (per_group) {
      bad = bad || elems != r.summary.num_groups;
      bad = bad || r.extras.group_sizes.size() != elems;
      bad = bad || r.aggregate_values.size() != num_specs;
      for (const auto& v : r.aggregate_values) {
        bad = bad || v.size() != elems;
      }
    } else {
      bad = bad || elems != r.result_oids.size();
    }
    if (bad) {
      fail(Status::Internal("shard " + std::to_string(s) +
                            " answered without coherent merge-key sections"));
      return out;
    }
  }

  // Gather: loser-tree merge with group-boundary stitching.
  Timer merge_timer;
  std::vector<MergeRun> runs;
  runs.reserve(calls.size());
  bool all_global_oids = true;
  for (const ShardCall& c : calls) {
    runs.push_back({c.result.extras.merge_key_hi.data(),
                    c.result.extras.merge_key_lo.data(),
                    c.result.extras.merge_key_hi.size()});
    all_global_oids =
        all_global_oids && (c.result.extras.global_oids.size() ==
                            c.result.extras.merge_key_hi.size());
  }
  OvcLoserTree tree(std::move(runs));

  std::vector<Key128> merged_keys;  // per merged group, for result_order
  if (per_group) {
    out.aggregate_values.resize(num_specs);
    MergeElem e;
    while (tree.Next(&e)) {
      const net::RemoteResult& r = calls[e.run].result;
      const size_t i = e.index;
      if (e.code != 0 || merged_keys.empty()) {
        // New group.
        merged_keys.push_back({r.extras.merge_key_hi[i],
                               r.extras.merge_key_lo[i]});
        out.group_sizes.push_back(r.extras.group_sizes[i]);
        for (size_t a = 0; a < num_specs; ++a) {
          out.aggregate_values[a].push_back(r.aggregate_values[a][i]);
        }
      } else {
        // Same key as the previous output element: a group split across
        // shards — stitch.
        out.group_sizes.back() += r.extras.group_sizes[i];
        for (size_t a = 0; a < num_specs; ++a) {
          int64_t& acc = out.aggregate_values[a].back();
          const int64_t v = r.aggregate_values[a][i];
          switch (spec.aggregates[a].op) {
            case AggOp::kSum:
            case AggOp::kCount:
            case AggOp::kAvg:  // values hold per-group sums
              acc += v;
              break;
            case AggOp::kMin:
              acc = std::min(acc, v);
              break;
            case AggOp::kMax:
              acc = std::max(acc, v);
              break;
          }
        }
      }
    }
    out.num_groups = merged_keys.size();
    // Averages from the stitched sums and sizes (wire layout: per kAvg
    // spec, groups concatenated).
    for (size_t a = 0; a < num_specs; ++a) {
      if (spec.aggregates[a].op != AggOp::kAvg) continue;
      for (size_t g = 0; g < out.num_groups; ++g) {
        out.aggregate_avg.push_back(
            static_cast<double>(out.aggregate_values[a][g]) /
            static_cast<double>(out.group_sizes[g]));
      }
    }
  } else {
    // ORDER BY: a straight row interleave; oids are the partitioner's
    // global ids when every shard has them, raw shard-local oids
    // otherwise (only comparable within one shard in that case).
    MergeElem e;
    while (tree.Next(&e)) {
      const net::RemoteResult& r = calls[e.run].result;
      out.result_oids.push_back(all_global_oids
                                    ? r.extras.global_oids[e.index]
                                    : r.result_oids[e.index]);
    }
  }
  out.merge_emitted = tree.counters().emitted;
  out.merge_full_compares = tree.counters().full_compares;

  // Re-apply the stripped result ordering over the merged groups: a
  // stable sort on the same values single-node ordering encodes (kAvg
  // orders by its sums there too, so ties and order match).
  if (per_group && !spec.result_order.empty()) {
    std::vector<std::vector<int64_t>> keys;
    std::vector<SortOrder> key_orders;
    std::vector<int> widths;
    for (const ResultOrderSpec& ros : spec.result_order) {
      std::vector<int64_t> values(out.num_groups);
      if (ros.key.rfind("agg:", 0) == 0) {
        const size_t idx = static_cast<size_t>(std::stoi(ros.key.substr(4)));
        if (idx >= num_specs) {
          fail(Status::InvalidArgument("result_order references aggregate " +
                                       ros.key));
          return out;
        }
        values = out.aggregate_values[idx];
      } else {
        size_t j = spec.group_by.size();
        for (size_t i = 0; i < spec.group_by.size(); ++i) {
          if (spec.group_by[i] == ros.key) j = i;
        }
        if (j == spec.group_by.size()) {
          fail(Status::InvalidArgument(
              "result_order key is not a group-by column: " + ros.key));
          return out;
        }
        std::string error;
        if (widths.empty() && !FetchWidths(spec.group_by, &widths, &error)) {
          fail(Status::Internal(std::move(error)));
          return out;
        }
        for (size_t g = 0; g < out.num_groups; ++g) {
          values[g] =
              static_cast<int64_t>(SliceKey(merged_keys[g], widths, j));
        }
      }
      keys.push_back(std::move(values));
      key_orders.push_back(ros.order);
    }
    out.result_group_order.resize(out.num_groups);
    for (size_t g = 0; g < out.num_groups; ++g) {
      out.result_group_order[g] = static_cast<uint32_t>(g);
    }
    std::stable_sort(out.result_group_order.begin(),
                     out.result_group_order.end(),
                     [&](uint32_t a, uint32_t b) {
                       for (size_t k = 0; k < keys.size(); ++k) {
                         if (keys[k][a] == keys[k][b]) continue;
                         const bool less = keys[k][a] < keys[k][b];
                         return key_orders[k] == SortOrder::kAscending
                                    ? less
                                    : !less;
                       }
                       return false;
                     });
  }

  out.merge_seconds = merge_timer.Seconds();
  if (options_.metrics != nullptr) {
    options_.metrics->histogram("dist.merge_seconds")
        ->Record(out.merge_seconds);
    options_.metrics->counter("dist.merge_emitted")->Add(out.merge_emitted);
    options_.metrics->counter("dist.merge_full_compares")
        ->Add(out.merge_full_compares);
  }
  Count("dist.queries_ok");
  return out;
}

}  // namespace dist
}  // namespace mcsort
