// mcsort_coord — command-line front-end of McsortCoordinator: registers
// shard endpoints, runs a distributed query, prints the per-shard and
// merge breakdown (`dist status=<StatusCodeName>` names the fan-out's
// outcome), and (with --verify) diffs the merged answer against a
// single-node server holding the unsharded table, exiting nonzero on a
// failed fan-out or any mismatch.
//
//   mcsort_coord [options]
//
//   --shard H:P[,H:P...]  one logical shard: primary endpoint then
//                         replicas (repeat once per shard)
//   --table NAME          table name on the shards (default: server default)
//   --query group|order   group: GROUP BY a,b with sum/count/avg/min/max
//                         aggregates and ORDER BY sum(m) DESC;
//                         order: ORDER BY c,b,a,m (default: group)
//   --deadline S          whole-call deadline in seconds
//   --attempts N          max attempts per shard across replicas (default 3)
//   --verify H:P          single-node server with the full table to diff
//                         against (bit-identical group stream required)
//   --metrics             print the coordinator's dist.* metrics dump
//
// scripts/cluster_smoke.sh drives this binary in CI, including the
// induced-shard-failure / replica-failover pass and a fan-out whose only
// shard-0 endpoint is dead.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "mcsort/dist/coordinator.h"
#include "mcsort/engine/query.h"
#include "mcsort/net/client.h"
#include "mcsort/service/metrics.h"

namespace {

using namespace mcsort;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --shard H:P[,H:P...] [--shard ...] [--table NAME]\n"
               "          [--query group|order] [--deadline S] [--attempts N]\n"
               "          [--verify H:P] [--metrics]\n",
               argv0);
  return 2;
}

bool ParseEndpoint(const std::string& text, dist::ShardEndpoint* endpoint) {
  const size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon + 1 >= text.size()) return false;
  endpoint->host = text.substr(0, colon);
  endpoint->port = static_cast<uint16_t>(
      std::strtoul(text.c_str() + colon + 1, nullptr, 10));
  return endpoint->port != 0;
}

bool ParseShard(const std::string& arg, dist::ShardSpec* spec) {
  size_t start = 0;
  while (start <= arg.size()) {
    size_t comma = arg.find(',', start);
    if (comma == std::string::npos) comma = arg.size();
    dist::ShardEndpoint endpoint;
    if (!ParseEndpoint(arg.substr(start, comma - start), &endpoint)) {
      return false;
    }
    spec->endpoints.push_back(endpoint);
    start = comma + 1;
  }
  return !spec->endpoints.empty();
}

QuerySpec BuildSpec(const std::string& query) {
  if (query == "order") {
    // All four demo columns: the composite key is (nearly always) unique,
    // so the merged row order is fully determined.
    return QuerySpecBuilder("dist-order")
        .OrderBy("c")
        .OrderBy("b")
        .OrderBy("a")
        .OrderBy("m")
        .Build();
  }
  return QuerySpecBuilder("dist-group")
      .GroupBy({"a", "b"})
      .Sum("m")
      .Count()
      .Aggregate(AggOp::kAvg, "m")
      .Aggregate(AggOp::kMin, "c")
      .Aggregate(AggOp::kMax, "c")
      .ResultOrder("agg:0", SortOrder::kDescending)
      .Build();
}

template <typename T>
bool DiffVectors(const char* what, const std::vector<T>& dist_v,
                 const std::vector<T>& single_v) {
  if (dist_v == single_v) return true;
  std::fprintf(stderr, "verify: %s differs (dist %zu elems, single %zu)\n",
               what, dist_v.size(), single_v.size());
  const size_t n = std::min(dist_v.size(), single_v.size());
  for (size_t i = 0; i < n; ++i) {
    if (dist_v[i] != single_v[i]) {
      std::fprintf(stderr, "verify: first mismatch at index %zu\n", i);
      break;
    }
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<dist::ShardSpec> shards;
  std::string table;
  std::string query = "group";
  std::string verify_endpoint;
  double deadline = 0;
  bool dump_metrics = false;
  dist::CoordinatorOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--shard" && i + 1 < argc) {
      dist::ShardSpec spec;
      if (!ParseShard(argv[++i], &spec)) return Usage(argv[0]);
      shards.push_back(std::move(spec));
    } else if (arg == "--table" && i + 1 < argc) {
      table = argv[++i];
    } else if (arg == "--query" && i + 1 < argc) {
      query = argv[++i];
      if (query != "group" && query != "order") return Usage(argv[0]);
    } else if (arg == "--deadline" && i + 1 < argc) {
      deadline = std::atof(argv[++i]);
    } else if (arg == "--attempts" && i + 1 < argc) {
      options.max_attempts_per_shard = std::atoi(argv[++i]);
    } else if (arg == "--verify" && i + 1 < argc) {
      verify_endpoint = argv[++i];
    } else if (arg == "--metrics") {
      dump_metrics = true;
    } else {
      return Usage(argv[0]);
    }
  }
  if (shards.empty()) return Usage(argv[0]);

  MetricsRegistry metrics;
  options.metrics = &metrics;
  dist::McsortCoordinator coordinator(options);
  for (dist::ShardSpec& spec : shards) {
    spec.table = table;
    coordinator.AddShard(std::move(spec));
  }

  const QuerySpec spec = BuildSpec(query);
  dist::DistCallOptions call;
  call.deadline_seconds = deadline;
  const dist::DistResult result = coordinator.Execute(spec, call);

  for (const dist::ShardOutcome& o : result.shards) {
    std::printf(
        "shard %d: endpoint=%d attempts=%d status=%s error=%s %llu elems "
        "in %.3f s%s%s\n",
        o.shard, o.endpoint_used, o.attempts,
        net::ClientStatusName(o.client_status), net::ErrorCodeName(o.error),
        static_cast<unsigned long long>(o.elements), o.seconds,
        o.detail.empty() ? "" : " -- ", o.detail.c_str());
  }
  std::printf("dist status=%s fanout=%.3f s merge=%.3f s emitted=%llu "
              "full_compares=%llu\n",
              result.status.name(), result.fanout_seconds,
              result.merge_seconds,
              static_cast<unsigned long long>(result.merge_emitted),
              static_cast<unsigned long long>(result.merge_full_compares));
  if (!result.ok()) {
    std::fprintf(stderr, "mcsort_coord: %s\n",
                 result.status.ToString().c_str());
    return 1;
  }
  if (query == "group") {
    std::printf("merged %zu groups\n", result.num_groups);
  } else {
    std::printf("merged %zu rows\n", result.result_oids.size());
  }

  int exit_code = 0;
  if (!verify_endpoint.empty()) {
    dist::ShardEndpoint endpoint;
    if (!ParseEndpoint(verify_endpoint, &endpoint)) return Usage(argv[0]);
    net::ClientOptions copts;
    copts.host = endpoint.host;
    copts.port = endpoint.port;
    net::McsortClient client(copts);
    std::string error;
    if (!client.Connect(&error)) {
      std::fprintf(stderr, "verify: connect: %s\n", error.c_str());
      return 1;
    }
    // Pin the column order on the single-node run too, so its canonical
    // group stream matches the order the coordinator merged in.
    QuerySpec single = spec;
    single.fixed_column_order = true;
    net::QueryCallOptions qopts;
    qopts.table = table;
    qopts.want_merge_keys = true;
    net::RemoteResult want;
    if (client.TryQuery(single, qopts, &want) != net::ClientStatus::kOk ||
        !want.ok()) {
      std::fprintf(stderr, "verify: single-node query failed: %s\n",
                   want.error_detail.c_str());
      return 1;
    }
    bool same = true;
    if (query == "group") {
      if (result.num_groups != want.summary.num_groups) {
        std::fprintf(stderr, "verify: group count differs (%zu vs %llu)\n",
                     result.num_groups,
                     static_cast<unsigned long long>(
                         want.summary.num_groups));
        same = false;
      }
      same = DiffVectors("group_sizes", result.group_sizes,
                         want.extras.group_sizes) && same;
      for (size_t a = 0; a < result.aggregate_values.size(); ++a) {
        char label[32];
        std::snprintf(label, sizeof(label), "aggregate %zu", a);
        same = DiffVectors(label, result.aggregate_values[a],
                           want.aggregate_values[a]) && same;
      }
      // Result ordering: compare the ordering key's value sequence (ties
      // between equal keys may legally permute, so raw permutation diffs
      // would be noise).
      if (!spec.result_order.empty() &&
          spec.result_order[0].key == "agg:0") {
        std::vector<int64_t> dist_seq, single_seq;
        for (const uint32_t g : result.result_group_order) {
          dist_seq.push_back(result.aggregate_values[0][g]);
        }
        for (const uint32_t g : want.result_group_order) {
          single_seq.push_back(want.aggregate_values[0][g]);
        }
        same = DiffVectors("result-order key sequence", dist_seq,
                           single_seq) && same;
      }
    } else {
      // The full table's raw oids ARE the global ids the shards carry.
      same = DiffVectors("result_oids", result.result_oids,
                         want.result_oids) && same;
    }
    if (same) {
      std::printf("verify: distributed result is bit-identical to "
                  "single-node\n");
    } else {
      exit_code = 1;
    }
  }

  if (dump_metrics) {
    std::printf("%s", metrics.Dump().c_str());
  }
  return exit_code;
}
