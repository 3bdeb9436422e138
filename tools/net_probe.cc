// net_probe — the protocol conformance checker CI runs against a live
// mcsort_server (scripts/net_smoke.sh): handshake, ping, schema, metrics,
// a real GROUP BY query, then the full malformed-frame fuzz corpus — each
// case on a fresh connection, each expected to produce the exact typed
// ERROR from src/mcsort/net/fuzz_corpus.h — and finally one more good
// query proving the server survived all of it. Exits nonzero naming the
// first failing check.
//
// Environment: MCSORT_HOST / MCSORT_PORT select the server (port is
// required; parsed with the rest of net::ProcessOptions, so an
// out-of-range value exits 2), MCSORT_CONNECT_RETRIES (default 50 x
// 100ms) tolerates a server still starting up. MCSORT_PROBE_TABLE targets
// the queries at a named catalog table instead of the server default (the
// ingest smoke test points this at a table mcsort_ingest wrote), and
// MCSORT_PROBE_SAVE_LOAD=1 additionally exercises the SAVE_TABLE /
// LOAD_TABLE opcodes (requires the server to have MCSORT_DATA_DIR set).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "mcsort/common/env.h"
#include "mcsort/net/client.h"
#include "mcsort/net/fuzz_corpus.h"
#include "mcsort/net/process_options.h"

namespace mcsort {
namespace net {
namespace {

int g_failures = 0;

void Fail(const std::string& what) {
  std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  ++g_failures;
}

void Check(bool ok, const std::string& what) {
  if (!ok) Fail(what);
}

// Raw blocking connection for the fuzz cases (the client library refuses
// to send malformed bytes, which is rather the point of it).
class RawConn {
 public:
  RawConn(const std::string& host, uint16_t port, double recv_timeout) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, host.c_str(), &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
        0) {
      ::close(fd_);
      fd_ = -1;
      return;
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    struct timeval tv;
    tv.tv_sec = static_cast<time_t>(recv_timeout);
    tv.tv_usec = static_cast<suseconds_t>(
        (recv_timeout - static_cast<double>(tv.tv_sec)) * 1e6);
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool ok() const { return fd_ >= 0; }
  bool Send(const std::string& bytes) { return SendAll(fd_, bytes); }

  // Next frame within the receive timeout; false on timeout/EOF/bad frame.
  bool Recv(Frame* frame) {
    ErrorCode error;
    bool fatal;
    return RecvFrame(fd_, &assembler_, frame, &error, &fatal) ==
           FrameAssembler::Next::kFrame;
  }

  // True when the peer closes (EOF) within the receive timeout.
  bool WaitForClose() {
    std::string buf;
    while (RecvSome(fd_, &buf)) {
      if (buf.size() > 1 << 20) return false;  // server babbling, not closing
    }
    // RecvSome returns false on both EOF and timeout; distinguish via a
    // zero-byte read: EOF reads 0, timeout errors EAGAIN.
    char byte;
    const ssize_t n = ::read(fd_, &byte, 1);
    return n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK);
  }

  bool Handshake() {
    HelloRequest hello;
    hello.client_name = "net_probe";
    if (!Send(SealFrame(FrameType::kHello, 0, 1, EncodeHello(hello)))) {
      return false;
    }
    Frame frame;
    return Recv(&frame) && frame.type() == FrameType::kHelloAck;
  }

 private:
  int fd_ = -1;
  FrameAssembler assembler_;
};

bool RunFuzzCase(const std::string& host, uint16_t port,
                 const FuzzCase& fuzz) {
  RawConn conn(host, port, /*recv_timeout=*/2.0);
  if (!conn.ok()) {
    Fail(std::string(fuzz.name) + ": connect failed");
    return false;
  }
  if (fuzz.hello_first && !conn.Handshake()) {
    Fail(std::string(fuzz.name) + ": handshake failed");
    return false;
  }
  if (!conn.Send(fuzz.bytes)) {
    Fail(std::string(fuzz.name) + ": send failed");
    return false;
  }

  Frame frame;
  switch (fuzz.expect) {
    case FuzzExpect::kError:
    case FuzzExpect::kErrorClose: {
      if (!conn.Recv(&frame) || frame.type() != FrameType::kError) {
        Fail(std::string(fuzz.name) + ": expected an ERROR frame");
        return false;
      }
      ErrorInfo info;
      if (!DecodeError(frame.payload, &info) || info.code != fuzz.code) {
        Fail(std::string(fuzz.name) + ": expected code " +
             ErrorCodeName(fuzz.code) + ", got " + ErrorCodeName(info.code));
        return false;
      }
      if (fuzz.expect == FuzzExpect::kErrorClose && !conn.WaitForClose()) {
        Fail(std::string(fuzz.name) + ": expected the server to close");
        return false;
      }
      return true;
    }
    case FuzzExpect::kNoReply: {
      // Any frame within the receive-timeout window is a failure; a
      // timeout (or the server closing) is the expected silence.
      if (conn.Recv(&frame)) {
        Fail(std::string(fuzz.name) + ": expected silence, got a frame");
        return false;
      }
      return true;
    }
  }
  return true;
}

}  // namespace
}  // namespace net
}  // namespace mcsort

int main() {
  using namespace mcsort;
  using namespace mcsort::net;

  ProcessOptions env;
  if (const Status parsed = ProcessOptions::FromEnv(&env); !parsed.ok()) {
    std::fprintf(stderr, "net_probe: %s\n", parsed.ToString().c_str());
    return 2;
  }
  const std::string host = env.server.host;
  const uint16_t port = env.server.port;
  if (port == 0) {
    std::fprintf(stderr, "net_probe: set MCSORT_PORT to the server port\n");
    return 2;
  }

  // Connect with retries — the server may still be binding.
  ClientOptions client_options;
  client_options.host = host;
  client_options.port = port;
  client_options.io_timeout_seconds = 10;
  client_options.client_name = "net_probe";
  McsortClient client(client_options);
  const int retries =
      static_cast<int>(EnvU64("MCSORT_CONNECT_RETRIES", 50));
  std::string error;
  bool connected = false;
  for (int i = 0; i < retries; ++i) {
    if (client.Connect(&error)) {
      connected = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  if (!connected) {
    std::fprintf(stderr, "net_probe: cannot connect to %s:%u: %s\n",
                 host.c_str(), port, error.c_str());
    return 2;
  }
  std::printf("connected: server=%s default_table=%s\n",
              client.hello().server_name.c_str(),
              client.hello().default_table.c_str());

  // --- Round trips over the client library --------------------------------
  double rtt = 0;
  Check(client.Ping(&rtt), "ping round trip");
  std::printf("ping: %.3f ms\n", rtt * 1e3);

  SchemaReply schema;
  Check(client.GetSchema(&schema) && !schema.tables.empty(),
        "schema reply with at least one table");
  if (!schema.tables.empty()) {
    const TableSchema& t = schema.tables.front();
    std::printf("schema: table %s, %llu rows, %zu columns\n", t.name.c_str(),
                static_cast<unsigned long long>(t.row_count),
                t.columns.size());
    Check(t.columns.size() >= 4, "demo table has >= 4 columns");
  }

  const std::string probe_table = EnvStr("MCSORT_PROBE_TABLE", "");
  QueryCallOptions call;
  call.table = probe_table;
  const QuerySpec good = QuerySpecBuilder("probe")
                             .Filter("c", CompareOp::kLess, 60000)
                             .GroupBy({"a", "b"})
                             .Sum("m")
                             .Count()
                             .Build();
  RemoteResult result = client.Query(good, call);
  Check(result.ok(), "good query executes (" + result.error_detail + ")");
  Check(result.summary.num_groups > 0, "good query produced groups");
  Check(result.aggregate_values.size() == 2,
        "good query returned both aggregates");
  std::printf("query: %llu rows -> %llu groups in %.3f ms\n",
              static_cast<unsigned long long>(result.summary.input_rows),
              static_cast<unsigned long long>(result.summary.num_groups),
              (result.summary.mcs_seconds + result.summary.post_seconds +
               result.summary.scan_seconds +
               result.summary.materialize_seconds +
               result.summary.plan_seconds) *
                  1e3);

  std::string metrics;
  Check(client.GetMetrics(&metrics) &&
            metrics.find("net.queries") != std::string::npos,
        "metrics dump includes net.* counters");

  // --- SAVE_TABLE / LOAD_TABLE opcodes ------------------------------------
  // A bogus load must come back as a typed failure reply, never a hang or
  // a dropped connection — with or without a catalog attached.
  TableOpResult bogus = client.LoadTable("__no_such_table__");
  Check(bogus.transport_ok, "LOAD_TABLE of a bogus name gets a reply");
  Check(!bogus.ok(), "LOAD_TABLE of a bogus name reports failure");
  if (EnvU64("MCSORT_PROBE_SAVE_LOAD", 0) != 0) {
    TableOpResult saved = client.SaveTable(probe_table);
    Check(saved.ok(), "SAVE_TABLE succeeds (" + saved.error_detail +
                          saved.reply.detail + ")");
    const std::string load_name =
        probe_table.empty() ? client.hello().default_table : probe_table;
    TableOpResult loaded = client.LoadTable(load_name);
    Check(loaded.ok(), "LOAD_TABLE succeeds (" + loaded.error_detail +
                           loaded.reply.detail + ")");
    Check(loaded.reply.rows > 0, "LOAD_TABLE reports the row count");
    RemoteResult reloaded = client.Query(good, call);
    Check(reloaded.ok() &&
              reloaded.summary.num_groups == result.summary.num_groups,
          "query against the reloaded table matches");
    std::printf("save/load: table '%s' saved and reloaded, %llu rows\n",
                load_name.c_str(),
                static_cast<unsigned long long>(loaded.reply.rows));
  }

  // --- The malformed-frame corpus -----------------------------------------
  const std::vector<FuzzCase> corpus = BuildFuzzCorpus();
  int passed = 0;
  for (const FuzzCase& fuzz : corpus) {
    if (RunFuzzCase(host, port, fuzz)) ++passed;
  }
  std::printf("fuzz corpus: %d/%zu cases behaved\n", passed, corpus.size());

  // --- The server must still be fully functional --------------------------
  RemoteResult after = client.Query(good, call);
  Check(after.ok(), "server still serves after the fuzz corpus");
  Check(after.summary.num_groups == result.summary.num_groups,
        "post-fuzz query result matches pre-fuzz");

  if (g_failures > 0) {
    std::fprintf(stderr, "net_probe: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("net_probe: all checks passed\n");
  return 0;
}
