// Remote query: the network front-end end to end in one process.
//
// Boots a McsortServer on a loopback ephemeral port over a QueryService
// holding a small sales table, then drives it with the blocking
// McsortClient exactly as an out-of-process client would: HELLO
// handshake, SCHEMA introspection, a GROUP BY aggregate, an ORDER BY
// with a server-side deadline, a PING round-trip, and a METRICS scrape.
// Every byte crosses a real TCP socket through the length-prefixed
// binary protocol (wire.h) — nothing is short-circuited in-process.
//
// Set MCSORT_HOST (and MCSORT_PORT) to point the client at an already
// running `mcsort_server` instead of the embedded one; the queries take
// their column names from the server's SCHEMA reply, so they run against
// whatever default table it serves. A MCSORT_PORT that is not a port
// exits 2 naming it, as the tools do.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/examples/example_remote_query
#include <cstdio>
#include <cstdlib>
#include <string>

#include "mcsort/common/env.h"
#include "mcsort/common/random.h"
#include "mcsort/net/client.h"
#include "mcsort/net/process_options.h"
#include "mcsort/net/server.h"
#include "mcsort/service/query_service.h"

using namespace mcsort;
using namespace mcsort::net;

namespace {

// A toy sales table: region (4 values), quarter (4), units (0..99).
Table SalesTable(size_t n) {
  Rng rng(7);
  Table table;
  EncodedColumn region(2, n), quarter(2, n), units(7, n);
  for (size_t r = 0; r < n; ++r) {
    region.Set(r, rng.NextBounded(4));
    quarter.Set(r, rng.NextBounded(4));
    units.Set(r, rng.NextBounded(100));
  }
  table.AddColumn("region", std::move(region));
  table.AddColumn("quarter", std::move(quarter));
  table.AddColumn("units", std::move(units));
  return table;
}

}  // namespace

int main() {
  // The process options validate MCSORT_PORT; "remote" means MCSORT_HOST
  // is set, which the parsed tree cannot tell from its default host.
  ProcessOptions env;
  const Status parsed = ProcessOptions::FromEnv(&env);
  if (!parsed.ok()) {
    std::fprintf(stderr, "example_remote_query: %s\n",
                 parsed.ToString().c_str());
    return 2;
  }
  const bool remote = !EnvStr("MCSORT_HOST", "").empty();
  const size_t n = static_cast<size_t>(EnvU64("MCSORT_N", 100000));

  // 1. Server side: a QueryService with one registered table, fronted by
  //    the epoll server. Port 0 asks the kernel for an ephemeral port.
  const Table table = SalesTable(n);
  ServiceOptions service_options;
  service_options.threads = 2;
  QueryService service(service_options);
  service.RegisterTable("sales", table);

  McsortServer server(&service, ServerOptions{});
  if (!remote) {
    std::string error;
    if (!server.Start(&error)) {
      std::fprintf(stderr, "server start failed: %s\n", error.c_str());
      return 1;
    }
    std::printf("embedded server on 127.0.0.1:%u (%zu rows)\n",
                server.port(), n);
  }

  // 2. Client side: connect and shake hands. Connect() exchanges HELLO
  //    frames and negotiates the protocol version.
  ClientOptions client_options;
  client_options.host = remote ? env.server.host : "127.0.0.1";
  client_options.port = env.server.port > 0 ? env.server.port : server.port();
  client_options.client_name = "example_remote_query";
  McsortClient client(client_options);
  std::string error;
  if (!client.Connect(&error)) {
    std::fprintf(stderr, "connect failed: %s\n", error.c_str());
    return 1;
  }
  std::printf("connected: server=%s default_table=%s\n",
              client.hello().server_name.c_str(),
              client.hello().default_table.c_str());

  // 3. Introspect the schema before writing queries against it.
  SchemaReply schema;
  if (!client.GetSchema(&schema)) {
    std::fprintf(stderr, "SCHEMA failed\n");
    return 1;
  }
  for (const TableSchema& t : schema.tables) {
    std::printf("table %-8s %8llu rows:", t.name.c_str(),
                static_cast<unsigned long long>(t.row_count));
    for (const ColumnInfo& c : t.columns) {
      std::printf(" %s(%d-bit)", c.name.c_str(), c.width);
    }
    std::printf("\n");
  }

  // The queries below name the default table's columns as SCHEMA reports
  // them: its first two columns are the GROUP BY keys and its last column
  // the measure (region, quarter and units on the embedded sales table).
  const TableSchema* target = nullptr;
  for (const TableSchema& t : schema.tables) {
    if (t.name == client.hello().default_table) target = &t;
  }
  if (target == nullptr || target->columns.size() < 3) {
    std::fprintf(stderr, "default table '%s' needs three columns\n",
                 client.hello().default_table.c_str());
    return 1;
  }
  const std::string& key1 = target->columns[0].name;
  const std::string& key2 = target->columns[1].name;
  const std::string& measure = target->columns.back().name;

  // 4. A GROUP BY aggregate. The spec is the same QuerySpecBuilder used
  //    in-process; the client encodes it into a QUERY frame and streams
  //    the chunked RESULT back.
  const QuerySpec per_cell =
      QuerySpecBuilder().GroupBy({key1, key2}).Sum(measure).Count().Build();
  RemoteResult result = client.Query(per_cell);
  if (!result.ok()) {
    std::fprintf(stderr, "query failed: %s\n", result.error_detail.c_str());
    return 1;
  }
  // aggregate_values[k][g] is the k-th aggregate (here: 0=SUM, 1=COUNT)
  // evaluated on group g, groups in sorted (key1, key2) order.
  const std::vector<int64_t>& sums = result.aggregate_values[0];
  const std::vector<int64_t>& counts = result.aggregate_values[1];
  std::printf("\nSELECT %s, %s, SUM(%s), COUNT(*) GROUP BY %s, %s\n"
              "-> %zu groups, first rows:\n",
              key1.c_str(), key2.c_str(), measure.c_str(), key1.c_str(),
              key2.c_str(), sums.size());
  for (size_t g = 0; g < sums.size() && g < 6; ++g) {
    std::printf("  group %zu: sum=%lld count=%lld\n", g,
                static_cast<long long>(sums[g]),
                static_cast<long long>(counts[g]));
  }

  // 5. An ORDER BY with a deadline. On this small table it finishes well
  //    inside the budget; against a huge table the server would stop the
  //    sort at the deadline and return a typed DEADLINE_EXCEEDED error
  //    instead of holding the connection hostage.
  QueryCallOptions deadline_call;
  deadline_call.deadline_seconds = 5.0;
  result = client.Query(QuerySpecBuilder()
                            .OrderBy(key1)
                            .OrderBy(measure, SortOrder::kDescending)
                            .Build(),
                        deadline_call);
  std::printf("\nORDER BY %s, %s DESC (5s deadline): %s, %zu oids\n",
              key1.c_str(), measure.c_str(),
              result.ok() ? "ok" : result.error_detail.c_str(),
              result.result_oids.size());

  // 6. Liveness and observability.
  double rtt = 0;
  if (client.Ping(&rtt)) std::printf("\nping: %.3f ms\n", rtt * 1e3);
  std::string metrics;
  if (client.GetMetrics(&metrics)) {
    const size_t pos = metrics.find("net.queries ");
    std::printf("server metrics excerpt: %s\n",
                pos == std::string::npos
                    ? "(no net.queries counter?)"
                    : metrics.substr(pos, metrics.find('\n', pos) - pos)
                          .c_str());
  }

  client.Close();
  if (!remote) server.Shutdown();
  return 0;
}
