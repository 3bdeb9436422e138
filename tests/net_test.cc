// Network front-end tests: the wire codec (CRC, header, payload encodings,
// chunked-result reassembly), the frame assembler's recoverable-vs-fatal
// error split, and a live McsortServer on a loopback ephemeral port —
// round trips of every frame type, the malformed-frame fuzz corpus
// (typed ERROR, server survives), wire CANCEL aborting an in-flight
// multi-million-row sort with bounded latency, QUERY deadlines expiring
// mid-sort, typed BUSY under both per-connection pipelining and the
// connection cap, metrics consistency, and graceful drain. Also the
// process options tree: each MCSORT_* spelling lands in exactly its field.
//
// Latency bounds are generous (seconds): the suite must also pass under
// TSan/ASan, where everything runs an order of magnitude slower. Tests
// accept "completed before the stop landed" on fast machines — the
// property under test is bounded unwinding, not an SLO.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "gtest/gtest.h"
#include "mcsort/common/random.h"
#include "mcsort/common/timer.h"
#include "mcsort/net/client.h"
#include "mcsort/net/fuzz_corpus.h"
#include "mcsort/net/process_options.h"
#include "mcsort/net/server.h"
#include "mcsort/service/query_service.h"

namespace mcsort {
namespace net {
namespace {

Table TestTable(size_t n, uint64_t seed = 7) {
  Rng rng(seed);
  Table table;
  EncodedColumn a(6, n), b(11, n), c(19, n), m(10, n);
  for (size_t r = 0; r < n; ++r) {
    a.Set(r, rng.NextBounded(20));
    b.Set(r, rng.NextBounded(500));
    c.Set(r, rng.NextBounded(100000));
    m.Set(r, rng.NextBounded(1000));
  }
  table.AddColumn("a", std::move(a));
  table.AddColumn("b", std::move(b));
  table.AddColumn("c", std::move(c));
  table.AddColumn("m", std::move(m));
  return table;
}

// --------------------------------------------------------------------------
// Wire codec
// --------------------------------------------------------------------------

TEST(WireTest, Crc32cKnownAnswers) {
  // The canonical CRC32C check value.
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
  // Seeding with a prefix's CRC must equal the one-shot CRC.
  const std::string text = "the quick brown fox";
  const uint32_t whole = Crc32c(text.data(), text.size());
  const uint32_t prefix = Crc32c(text.data(), 10);
  EXPECT_EQ(Crc32c(text.data() + 10, text.size() - 10, prefix), whole);
}

TEST(WireTest, HeaderRoundTrip) {
  FrameHeader header;
  header.type = static_cast<uint8_t>(FrameType::kQuery);
  header.flags = kFlagLastChunk;
  header.payload_len = 12345;
  header.payload_crc = 0xDEADBEEF;
  header.request_id = 0x1122334455667788ull;
  uint8_t raw[kHeaderSize];
  EncodeHeader(header, raw);
  const FrameHeader back = DecodeHeader(raw);
  EXPECT_EQ(back.magic, kMagic);
  EXPECT_EQ(back.version, kProtocolVersion);
  EXPECT_EQ(back.type, header.type);
  EXPECT_EQ(back.flags, header.flags);
  EXPECT_EQ(back.payload_len, header.payload_len);
  EXPECT_EQ(back.payload_crc, header.payload_crc);
  EXPECT_EQ(back.request_id, header.request_id);
}

TEST(WireTest, AssemblerReassemblesByteAtATime) {
  const std::string sealed = SealFrame(FrameType::kPing, 0, 42, "payload");
  FrameAssembler assembler;
  Frame frame;
  ErrorCode error;
  bool fatal;
  for (size_t i = 0; i < sealed.size(); ++i) {
    // Before the last byte, every pull must report an incomplete frame.
    EXPECT_EQ(assembler.Pull(&frame, &error, &fatal),
              FrameAssembler::Next::kNeedMore);
    assembler.Append(sealed.data() + i, 1);
  }
  ASSERT_EQ(assembler.Pull(&frame, &error, &fatal),
            FrameAssembler::Next::kFrame);
  EXPECT_EQ(frame.type(), FrameType::kPing);
  EXPECT_EQ(frame.header.request_id, 42u);
  EXPECT_EQ(frame.payload, "payload");
  EXPECT_EQ(assembler.pending_bytes(), 0u);
}

TEST(WireTest, AssemblerCrcMismatchIsRecoverable) {
  std::string corrupt = SealFrame(FrameType::kPing, 0, 1, "payload");
  corrupt.back() ^= 0xFF;
  const std::string good = SealFrame(FrameType::kPing, 0, 2, "follow-up");
  FrameAssembler assembler;
  assembler.Append(corrupt.data(), corrupt.size());
  assembler.Append(good.data(), good.size());
  Frame frame;
  ErrorCode error;
  bool fatal = true;
  EXPECT_EQ(assembler.Pull(&frame, &error, &fatal),
            FrameAssembler::Next::kBadFrame);
  EXPECT_EQ(error, ErrorCode::kCrcMismatch);
  EXPECT_FALSE(fatal);  // framing intact: the stream must stay usable
  ASSERT_EQ(assembler.Pull(&frame, &error, &fatal),
            FrameAssembler::Next::kFrame);
  EXPECT_EQ(frame.header.request_id, 2u);
}

TEST(WireTest, AssemblerBadMagicIsFatal) {
  std::string bad = SealFrame(FrameType::kPing, 0, 1, "x");
  bad[0] = 'Z';
  FrameAssembler assembler;
  assembler.Append(bad.data(), bad.size());
  Frame frame;
  ErrorCode error;
  bool fatal = false;
  EXPECT_EQ(assembler.Pull(&frame, &error, &fatal),
            FrameAssembler::Next::kBadFrame);
  EXPECT_EQ(error, ErrorCode::kMalformedFrame);
  EXPECT_TRUE(fatal);
}

TEST(WireTest, AssemblerOversizedLengthIsFatal) {
  FrameHeader header;
  header.type = static_cast<uint8_t>(FrameType::kPing);
  header.payload_len = 1u << 20;
  uint8_t raw[kHeaderSize];
  EncodeHeader(header, raw);
  FrameAssembler assembler(/*max_payload=*/1 << 16);
  assembler.Append(raw, kHeaderSize);
  Frame frame;
  ErrorCode error;
  bool fatal = false;
  EXPECT_EQ(assembler.Pull(&frame, &error, &fatal),
            FrameAssembler::Next::kBadFrame);
  EXPECT_EQ(error, ErrorCode::kOversizedFrame);
  EXPECT_TRUE(fatal);
}

// --------------------------------------------------------------------------
// Payload codecs
// --------------------------------------------------------------------------

TEST(ProtocolTest, QueryEnvelopeRoundTrip) {
  QueryEnvelope envelope;
  envelope.deadline_micros = 2'500'000;
  envelope.table = "lineitem";
  envelope.spec = QuerySpecBuilder("q16")
                      .Filter("c", CompareOp::kLess, 30000)
                      .FilterBetween("b", 10, 400)
                      .GroupBy({"a", "b"})
                      .Sum("m")
                      .Count()
                      .ResultOrder("agg:0", SortOrder::kDescending)
                      .ResultOrder("a")
                      .Build();

  QueryEnvelope back;
  ASSERT_TRUE(DecodeQuery(EncodeQuery(envelope), &back));
  EXPECT_EQ(back.deadline_micros, envelope.deadline_micros);
  EXPECT_EQ(back.table, envelope.table);
  EXPECT_EQ(back.spec.id, "q16");
  ASSERT_EQ(back.spec.filters.size(), 2u);
  EXPECT_EQ(back.spec.filters[0].column, "c");
  EXPECT_EQ(back.spec.filters[0].op, CompareOp::kLess);
  EXPECT_EQ(back.spec.filters[0].literal, Code{30000});
  EXPECT_TRUE(back.spec.filters[1].is_between);
  EXPECT_EQ(back.spec.filters[1].literal2, Code{400});
  EXPECT_EQ(back.spec.group_by, (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(back.spec.aggregates.size(), 2u);
  EXPECT_EQ(back.spec.aggregates[0].op, AggOp::kSum);
  EXPECT_EQ(back.spec.aggregates[1].op, AggOp::kCount);
  ASSERT_EQ(back.spec.result_order.size(), 2u);
  EXPECT_EQ(back.spec.result_order[0].key, "agg:0");
  EXPECT_EQ(back.spec.result_order[0].order, SortOrder::kDescending);
}

TEST(ProtocolTest, DecodeQueryRejectsMalformations) {
  QueryEnvelope envelope;
  envelope.spec.group_by = {"a"};
  std::string payload = EncodeQuery(envelope);
  QueryEnvelope out;
  ASSERT_TRUE(DecodeQuery(payload, &out));

  // Trailing garbage after a well-formed spec.
  EXPECT_FALSE(DecodeQuery(payload + "x", &out));
  // Truncation anywhere.
  EXPECT_FALSE(DecodeQuery(payload.substr(0, payload.size() - 1), &out));
  // Random bytes.
  EXPECT_FALSE(DecodeQuery("garbage bytes here", &out));
  EXPECT_FALSE(DecodeQuery("", &out));
}

TEST(ProtocolTest, ErrorAndHelloRoundTrip) {
  ErrorInfo error{ErrorCode::kBusy, "queue full"};
  ErrorInfo error_back;
  ASSERT_TRUE(DecodeError(EncodeError(error), &error_back));
  EXPECT_EQ(error_back.code, ErrorCode::kBusy);
  EXPECT_EQ(error_back.detail, "queue full");

  HelloReply reply;
  reply.server_name = "mcsort";
  reply.default_table = "demo";
  HelloReply reply_back;
  ASSERT_TRUE(DecodeHelloReply(EncodeHelloReply(reply), &reply_back));
  EXPECT_EQ(reply_back.server_name, "mcsort");
  EXPECT_EQ(reply_back.default_table, "demo");
}

TEST(ProtocolTest, TableOpReplyCarriesStatusCode) {
  TableOpReply reply;
  reply.status_code = static_cast<uint8_t>(StatusCode::kDataLoss);
  reply.detail = "section 2 checksum mismatch";
  reply.seconds = 0.25;
  reply.rows = 42;
  TableOpReply back;
  ASSERT_TRUE(DecodeTableOpReply(EncodeTableOpReply(reply), &back));
  EXPECT_FALSE(back.ok);
  EXPECT_EQ(back.status_code, reply.status_code);
  EXPECT_EQ(back.detail, reply.detail);
  EXPECT_EQ(back.seconds, 0.25);
  EXPECT_EQ(back.rows, 42u);

  // A byte past the last StatusCode is a malformed reply.
  reply.status_code = static_cast<uint8_t>(StatusCode::kInternal) + 1;
  EXPECT_FALSE(DecodeTableOpReply(EncodeTableOpReply(reply), &back));
}

TEST(ProtocolTest, SchemaRoundTrip) {
  const Table table = TestTable(128);
  SchemaReply reply;
  reply.tables.push_back(SchemaOf("demo", table));
  SchemaReply back;
  ASSERT_TRUE(DecodeSchemaReply(EncodeSchemaReply(reply), &back));
  ASSERT_EQ(back.tables.size(), 1u);
  EXPECT_EQ(back.tables[0].name, "demo");
  EXPECT_EQ(back.tables[0].row_count, 128u);
  ASSERT_EQ(back.tables[0].columns.size(), 4u);
  EXPECT_EQ(back.tables[0].columns[0].name, "a");
  EXPECT_EQ(back.tables[0].columns[0].width, 6);
}

TEST(ProtocolTest, ChunkedResultRoundTrip) {
  QueryResult result;
  result.input_rows = 1000;
  result.filtered_rows = 600;
  result.num_groups = 300;
  result.mcs_seconds = 0.125;
  result.degraded = true;
  result.bank_cap = 16;
  result.aggregate_values.resize(2);
  for (int i = 0; i < 300; ++i) {
    result.aggregate_values[0].push_back(i * 3);
    result.aggregate_values[1].push_back(-i);
    result.result_group_order.push_back(299 - i);
  }
  for (int i = 0; i < 600; ++i) {
    result.ranks.push_back(i % 7);
    result.result_oids.push_back(i * 2);
  }

  // A 64-byte chunk ceiling forces every section into many chunks.
  std::vector<std::string> frames;
  BuildResultFrames(77, result, /*chunk_bytes=*/64, &frames);
  ASSERT_GT(frames.size(), 10u);

  // Feed the sealed frames back through an assembler + result assembler.
  FrameAssembler assembler;
  for (const std::string& f : frames) assembler.Append(f.data(), f.size());
  ResultAssembler reassembled;
  Frame frame;
  ErrorCode error;
  bool fatal;
  size_t seen = 0;
  while (assembler.Pull(&frame, &error, &fatal) ==
         FrameAssembler::Next::kFrame) {
    ASSERT_EQ(frame.type(), FrameType::kResult);
    EXPECT_EQ(frame.header.request_id, 77u);
    ASSERT_TRUE(reassembled.Consume(frame.payload, frame.last_chunk()));
    ++seen;
  }
  EXPECT_EQ(seen, frames.size());
  ASSERT_TRUE(reassembled.done());

  const ResultPayload& payload = reassembled.result();
  EXPECT_EQ(payload.summary.input_rows, 1000u);
  EXPECT_EQ(payload.summary.filtered_rows, 600u);
  EXPECT_EQ(payload.summary.num_groups, 300u);
  EXPECT_DOUBLE_EQ(payload.summary.mcs_seconds, 0.125);
  EXPECT_TRUE(payload.summary.degraded);
  EXPECT_EQ(payload.summary.bank_cap, 16);
  EXPECT_EQ(payload.aggregate_values, result.aggregate_values);
  EXPECT_EQ(payload.ranks, result.ranks);
  EXPECT_EQ(payload.result_oids, result.result_oids);
  EXPECT_EQ(payload.result_group_order, result.result_group_order);
}

TEST(ProtocolTest, ResultAssemblerRejectsMalformedChunks) {
  ResultAssembler assembler;
  // A length lie: count says 4 elements but only 1 element of bytes.
  std::string payload;
  WireWriter w(&payload);
  w.U8(static_cast<uint8_t>(ResultSection::kRanks));
  w.U16(0);
  w.U32(4);
  w.U32(123);
  EXPECT_FALSE(assembler.Consume(payload, true));

  // Unknown section id.
  std::string bad_section = "\xEE";
  EXPECT_FALSE(assembler.Consume(bad_section, true));
}

TEST(ProtocolTest, ValidateSpecScreensEngineCheckFailures) {
  const Table table = TestTable(64);
  std::string detail;

  EXPECT_EQ(ValidateSpec(
                table, QuerySpecBuilder().GroupBy({"a"}).Count().Build(),
                &detail),
            ErrorCode::kNone);

  // No sort clause at all.
  EXPECT_EQ(ValidateSpec(table, QuerySpec(), &detail), ErrorCode::kBadQuery);
  // Two clauses at once.
  EXPECT_EQ(ValidateSpec(
                table,
                QuerySpecBuilder().GroupBy({"a"}).OrderBy("b").Build(),
                &detail),
            ErrorCode::kBadQuery);
  // Unknown columns anywhere.
  EXPECT_EQ(
      ValidateSpec(table, QuerySpecBuilder().GroupBy({"zz"}).Build(), &detail),
      ErrorCode::kBadQuery);
  EXPECT_EQ(ValidateSpec(table,
                         QuerySpecBuilder()
                             .Filter("zz", CompareOp::kLess, 1)
                             .GroupBy({"a"})
                             .Build(),
                         &detail),
            ErrorCode::kBadQuery);
  // Aggregates without GROUP BY.
  EXPECT_EQ(ValidateSpec(
                table, QuerySpecBuilder().OrderBy("a").Sum("m").Build(),
                &detail),
            ErrorCode::kBadQuery);
  // Result order referencing a nonexistent aggregate.
  EXPECT_EQ(ValidateSpec(table,
                         QuerySpecBuilder()
                             .GroupBy({"a"})
                             .Count()
                             .ResultOrder("agg:7")
                             .Build(),
                         &detail),
            ErrorCode::kBadQuery);
  // Window order column without PARTITION BY and vice versa.
  EXPECT_EQ(ValidateSpec(
                table, QuerySpecBuilder().PartitionBy({"a"}).Build(), &detail),
            ErrorCode::kBadQuery);
}

// --------------------------------------------------------------------------
// Live-server fixture
// --------------------------------------------------------------------------

// Raw socket for protocol-level tests the client library won't express
// (malformed bytes, pipelined queries, reading typed rejects).
class RawConn {
 public:
  explicit RawConn(uint16_t port, double recv_timeout = 10.0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
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
  bool Recv(Frame* frame) {
    ErrorCode error;
    bool fatal;
    return RecvFrame(fd_, &assembler_, frame, &error, &fatal) ==
           FrameAssembler::Next::kFrame;
  }
  bool Handshake() {
    HelloRequest hello;
    hello.client_name = "net_test";
    if (!Send(SealFrame(FrameType::kHello, 0, 1, EncodeHello(hello)))) {
      return false;
    }
    Frame frame;
    return Recv(&frame) && frame.type() == FrameType::kHelloAck;
  }
  // True when the peer closes within the receive timeout.
  bool WaitForClose() {
    std::string buf;
    while (RecvSome(fd_, &buf)) {
      if (buf.size() > 1 << 20) return false;
    }
    char byte;
    const ssize_t n = ::read(fd_, &byte, 1);
    return n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK);
  }

 private:
  int fd_ = -1;
  FrameAssembler assembler_;
};

// One shared server over a moderate table for the functional tests.
class NetServerTest : public ::testing::Test {
 protected:
  static constexpr size_t kRows = 200'000;

  void SetUp() override {
    table_ = TestTable(kRows);
    ServiceOptions service_options;
    service_options.threads = 2;
    service_options.admission.max_inflight = 4;
    service_ = std::make_unique<QueryService>(service_options);
    service_->RegisterTable("demo", table_);

    ServerOptions options;
    options.port = 0;  // ephemeral
    options.exec_threads = 2;
    options.max_inflight_queries = 4;
    server_ = std::make_unique<McsortServer>(service_.get(), options);
    std::string error;
    ASSERT_TRUE(server_->Start(&error)) << error;
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Shutdown();
  }

  std::unique_ptr<McsortClient> Connect() {
    ClientOptions options;
    options.port = server_->port();
    options.io_timeout_seconds = 60;  // sanitizer builds are slow
    auto client = std::make_unique<McsortClient>(options);
    std::string error;
    EXPECT_TRUE(client->Connect(&error)) << error;
    return client;
  }

  Table table_;
  std::unique_ptr<QueryService> service_;
  std::unique_ptr<McsortServer> server_;
};

TEST_F(NetServerTest, HelloPingSchemaMetricsRoundTrip) {
  auto client = Connect();
  EXPECT_EQ(client->hello().server_name, "mcsort");
  EXPECT_EQ(client->hello().default_table, "demo");

  double rtt = -1;
  EXPECT_TRUE(client->Ping(&rtt));
  EXPECT_GE(rtt, 0);

  SchemaReply schema;
  ASSERT_TRUE(client->GetSchema(&schema));
  ASSERT_EQ(schema.tables.size(), 1u);
  EXPECT_EQ(schema.tables[0].name, "demo");
  EXPECT_EQ(schema.tables[0].row_count, kRows);
  ASSERT_EQ(schema.tables[0].columns.size(), 4u);
  EXPECT_EQ(schema.tables[0].columns[2].name, "c");
  EXPECT_EQ(schema.tables[0].columns[2].width, 19);

  std::string metrics;
  ASSERT_TRUE(client->GetMetrics(&metrics));
  EXPECT_NE(metrics.find("net.accepted"), std::string::npos);
  EXPECT_NE(metrics.find("net.active"), std::string::npos);
  EXPECT_NE(metrics.find("plan_cache."), std::string::npos);
}

TEST_F(NetServerTest, GroupByQueryMatchesInProcessExecution) {
  const QuerySpec spec = QuerySpecBuilder("remote-vs-local")
                             .Filter("c", CompareOp::kLess, 50000)
                             .GroupBy({"a", "b"})
                             .Sum("m")
                             .Count()
                             .Build();

  auto client = Connect();
  const RemoteResult remote = client->Query(spec);
  ASSERT_TRUE(remote.ok()) << remote.error_detail;

  auto session = service_->OpenSession(table_);
  const ExecResult local = session->Execute(spec, ExecContext::Default());
  ASSERT_TRUE(local.ok());

  EXPECT_EQ(remote.summary.input_rows, local.result.input_rows);
  EXPECT_EQ(remote.summary.filtered_rows, local.result.filtered_rows);
  EXPECT_EQ(remote.summary.num_groups, local.result.num_groups);
  // Aggregates are per-group in group order, which Lemma 1 pins to the
  // sorted key order — identical across executions of the same spec.
  EXPECT_EQ(remote.aggregate_values, local.result.aggregate_values);
}

TEST_F(NetServerTest, OrderByQueryReturnsSortedOids) {
  const QuerySpec spec = QuerySpecBuilder()
                             .Filter("c", CompareOp::kLess, 30000)
                             .OrderBy("a")
                             .OrderBy("b", SortOrder::kDescending)
                             .Build();
  auto client = Connect();
  const RemoteResult remote = client->Query(spec);
  ASSERT_TRUE(remote.ok()) << remote.error_detail;
  ASSERT_EQ(remote.result_oids.size(), remote.summary.filtered_rows);
  ASSERT_GT(remote.result_oids.size(), 0u);

  const EncodedColumn& a = table_.column("a");
  const EncodedColumn& b = table_.column("b");
  for (size_t i = 1; i < remote.result_oids.size(); ++i) {
    const uint32_t prev = remote.result_oids[i - 1];
    const uint32_t cur = remote.result_oids[i];
    ASSERT_LE(a.Get(prev), a.Get(cur)) << "row " << i;
    if (a.Get(prev) == a.Get(cur)) {
      ASSERT_GE(b.Get(prev), b.Get(cur)) << "row " << i;
    }
  }
}

TEST_F(NetServerTest, WindowQueryReturnsRanks) {
  const QuerySpec spec = QuerySpecBuilder()
                             .Filter("c", CompareOp::kLess, 20000)
                             .PartitionBy({"a"})
                             .WindowOrder("m")
                             .Build();
  auto client = Connect();
  const RemoteResult remote = client->Query(spec);
  ASSERT_TRUE(remote.ok()) << remote.error_detail;
  EXPECT_EQ(remote.ranks.size(), remote.summary.filtered_rows);
  EXPECT_GT(remote.summary.num_groups, 0u);
}

TEST_F(NetServerTest, MalformedFrameCorpusGetsTypedErrors) {
  for (const FuzzCase& fuzz : BuildFuzzCorpus()) {
    SCOPED_TRACE(fuzz.name);
    RawConn conn(server_->port(), /*recv_timeout=*/5.0);
    ASSERT_TRUE(conn.ok());
    if (fuzz.hello_first) {
      ASSERT_TRUE(conn.Handshake());
    }
    ASSERT_TRUE(conn.Send(fuzz.bytes));

    Frame frame;
    switch (fuzz.expect) {
      case FuzzExpect::kError:
      case FuzzExpect::kErrorClose: {
        ASSERT_TRUE(conn.Recv(&frame)) << "no reply frame";
        ASSERT_EQ(frame.type(), FrameType::kError);
        ErrorInfo info;
        ASSERT_TRUE(DecodeError(frame.payload, &info));
        EXPECT_EQ(info.code, fuzz.code)
            << "got " << ErrorCodeName(info.code);
        if (fuzz.expect == FuzzExpect::kErrorClose) {
          EXPECT_TRUE(conn.WaitForClose());
        }
        break;
      }
      case FuzzExpect::kNoReply:
        // Nothing to read; the health check below is the assertion.
        break;
    }
  }

  // The server must still serve perfectly after the whole corpus.
  auto client = Connect();
  const RemoteResult after =
      client->Query(QuerySpecBuilder().GroupBy({"a"}).Count().Build());
  ASSERT_TRUE(after.ok()) << after.error_detail;
  EXPECT_EQ(after.summary.num_groups, 20u);
}

TEST_F(NetServerTest, PipelinedSecondQueryGetsTypedBusy) {
  RawConn conn(server_->port(), /*recv_timeout=*/120.0);
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn.Handshake());

  QueryEnvelope envelope;
  envelope.spec = QuerySpecBuilder()
                      .OrderBy("a")
                      .OrderBy("b")
                      .OrderBy("c")
                      .Build();
  const std::string payload = EncodeQuery(envelope);
  // Two QUERY frames back-to-back on one connection: the server must
  // reject the second with typed BUSY (one query per connection in
  // flight), never queue it unboundedly.
  ASSERT_TRUE(conn.Send(SealFrame(FrameType::kQuery, 0, 100, payload) +
                        SealFrame(FrameType::kQuery, 0, 101, payload)));

  bool saw_busy = false;
  bool saw_result = false;
  Frame frame;
  while ((!saw_busy || !saw_result) && conn.Recv(&frame)) {
    if (frame.header.request_id == 101) {
      ASSERT_EQ(frame.type(), FrameType::kError);
      ErrorInfo info;
      ASSERT_TRUE(DecodeError(frame.payload, &info));
      EXPECT_EQ(info.code, ErrorCode::kBusy);
      saw_busy = true;
    } else if (frame.header.request_id == 100) {
      // The first query must still complete normally.
      ASSERT_EQ(frame.type(), FrameType::kResult);
      if (frame.last_chunk()) saw_result = true;
    }
  }
  EXPECT_TRUE(saw_busy);
  EXPECT_TRUE(saw_result);
}

TEST_F(NetServerTest, MetricsCountersMatchClientSideCounts) {
  auto client = Connect();
  const QuerySpec spec = QuerySpecBuilder().GroupBy({"a"}).Count().Build();
  constexpr int kQueries = 5;
  for (int i = 0; i < kQueries; ++i) {
    ASSERT_TRUE(client->Query(spec).ok());
  }
  std::string metrics;
  ASSERT_TRUE(client->GetMetrics(&metrics));

  const auto counter = [&metrics](const std::string& name) -> long {
    const size_t pos = metrics.find(name + " ");
    if (pos == std::string::npos) return -1;
    return std::strtol(metrics.c_str() + pos + name.size() + 1, nullptr, 10);
  };
  EXPECT_EQ(counter("net.queries"), kQueries);
  EXPECT_EQ(counter("net.queries_ok"), kQueries);
  EXPECT_GE(counter("net.accepted"), 1);
  EXPECT_GE(counter("net.frames_in"), kQueries + 1);  // + HELLO
  EXPECT_EQ(counter("net.frame_errors"), 0);
}

// --------------------------------------------------------------------------
// Robustness under load: cancel, deadline, connection caps, drain. These
// use their own servers so cap/table sizes can differ from the fixture.
// --------------------------------------------------------------------------

class NetRobustnessTest : public ::testing::Test {
 protected:
  // Big enough that a three-column ORDER BY sort is comfortably in flight
  // when the cancel/deadline lands (the acceptance bar's 4M-row sort).
  static constexpr size_t kBigRows = 4'000'000;

  static Table& BigTable() {
    static Table table = TestTable(kBigRows, 11);
    return table;
  }

  static QuerySpec SlowSpec() {
    return QuerySpecBuilder()
        .OrderBy("a")
        .OrderBy("b")
        .OrderBy("c")
        .Build();
  }

  std::unique_ptr<McsortServer> StartServer(QueryService* service,
                                            ServerOptions options) {
    options.port = 0;
    auto server = std::make_unique<McsortServer>(service, options);
    std::string error;
    EXPECT_TRUE(server->Start(&error)) << error;
    return server;
  }
};

TEST_F(NetRobustnessTest, WireCancelAbortsRunningSortBounded) {
  ServiceOptions service_options;
  service_options.threads = 2;
  QueryService service(service_options);
  service.RegisterTable("big", BigTable());
  auto server = StartServer(&service, ServerOptions());

  ClientOptions client_options;
  client_options.port = server->port();
  client_options.io_timeout_seconds = 120;
  McsortClient client(client_options);
  ASSERT_TRUE(client.Connect());

  RemoteResult result;
  std::thread runner(
      [&] { result = client.Query(SlowSpec()); });
  // Let the sort get going, then cancel over the wire.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Timer timer;
  client.Cancel();
  runner.join();
  const double latency = timer.Seconds();

  ASSERT_TRUE(result.transport_ok) << result.error_detail;
  if (result.error == ErrorCode::kNone) {
    // The sort beat the cancel — acceptable on a fast machine, but then
    // the payload must be complete.
    EXPECT_EQ(result.result_oids.size(), kBigRows);
  } else {
    EXPECT_EQ(result.error, ErrorCode::kCancelled);
    EXPECT_EQ(result.ToStatus().code, StatusCode::kCancelled);
    // Unwind latency is bounded by morsel granularity, not sort size.
    EXPECT_LT(latency, 10.0);
  }
}

TEST_F(NetRobustnessTest, QueryDeadlineExpiresMidSort) {
  ServiceOptions service_options;
  service_options.threads = 2;
  QueryService service(service_options);
  service.RegisterTable("big", BigTable());
  auto server = StartServer(&service, ServerOptions());

  ClientOptions client_options;
  client_options.port = server->port();
  client_options.io_timeout_seconds = 120;
  McsortClient client(client_options);
  ASSERT_TRUE(client.Connect());

  QueryCallOptions call;
  call.deadline_seconds = 0.02;  // expires while the 4M-row sort runs
  const RemoteResult result = client.Query(SlowSpec(), call);
  ASSERT_TRUE(result.transport_ok) << result.error_detail;
  if (result.error == ErrorCode::kNone) {
    EXPECT_EQ(result.result_oids.size(), kBigRows);  // ok on a fast machine
  } else {
    EXPECT_EQ(result.error, ErrorCode::kDeadlineExceeded);
    EXPECT_EQ(result.ToStatus().code, StatusCode::kDeadlineExceeded);
  }
}

TEST_F(NetRobustnessTest, SpillIoFailureReachesTheWireAsIoError) {
  // Over budget with massaging off, the query must spill; the spill
  // directory cannot be created, and the ERROR frame must say so instead
  // of reporting a scratch shortage.
  Table table = TestTable(10'000);
  ServiceOptions service_options;
  service_options.use_massage = false;
  service_options.spill.dir = "/dev/null/spill";
  QueryService service(service_options);
  service.RegisterTable("t", table);
  ServerOptions options;
  options.scratch_budget_bytes = 64 << 10;
  auto server = StartServer(&service, options);

  ClientOptions client_options;
  client_options.port = server->port();
  McsortClient client(client_options);
  ASSERT_TRUE(client.Connect());
  const RemoteResult result = client.Query(SlowSpec());
  ASSERT_TRUE(result.transport_ok) << result.error_detail;
  EXPECT_EQ(result.error, ErrorCode::kIoError)
      << ErrorCodeName(result.error) << ": " << result.error_detail;
  EXPECT_NE(result.error_detail.find("spill directory"), std::string::npos)
      << result.error_detail;
  EXPECT_EQ(service.metrics().counter("net.query_error.io_error")->value(),
            1u);
}

TEST_F(NetRobustnessTest, ConnectionCapRejectsWithTypedBusy) {
  Table table = TestTable(10'000);
  ServiceOptions service_options;
  QueryService service(service_options);
  service.RegisterTable("small", table);
  ServerOptions options;
  options.max_connections = 2;
  auto server = StartServer(&service, options);

  // Fill the cap with two healthy connections.
  ClientOptions client_options;
  client_options.port = server->port();
  McsortClient first(client_options), second(client_options);
  ASSERT_TRUE(first.Connect());
  ASSERT_TRUE(second.Connect());

  // The third must be answered with ERROR kBusy and closed, not queued.
  RawConn third(server->port(), /*recv_timeout=*/10.0);
  ASSERT_TRUE(third.ok());
  Frame frame;
  ASSERT_TRUE(third.Recv(&frame));
  ASSERT_EQ(frame.type(), FrameType::kError);
  ErrorInfo info;
  ASSERT_TRUE(DecodeError(frame.payload, &info));
  EXPECT_EQ(info.code, ErrorCode::kBusy);
  EXPECT_TRUE(third.WaitForClose());

  // Freeing a slot re-opens the door.
  first.Close();
  // The loop notices the close on its next poll; retry briefly.
  bool reconnected = false;
  for (int i = 0; i < 100 && !reconnected; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    McsortClient retry(client_options);
    reconnected = retry.Connect();
  }
  EXPECT_TRUE(reconnected);
}

TEST_F(NetRobustnessTest, GracefulDrainFinishesInFlightQueries) {
  Table table = TestTable(100'000);
  ServiceOptions service_options;
  service_options.threads = 2;
  QueryService service(service_options);
  service.RegisterTable("t", table);
  ServerOptions options;
  options.drain_timeout_seconds = 60;
  auto server = StartServer(&service, options);

  ClientOptions client_options;
  client_options.port = server->port();
  client_options.io_timeout_seconds = 120;
  McsortClient client(client_options);
  ASSERT_TRUE(client.Connect());

  RemoteResult result;
  std::thread runner([&] {
    result = client.Query(
        QuerySpecBuilder().OrderBy("a").OrderBy("b").OrderBy("c").Build());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  server->RequestDrain();
  runner.join();

  // The in-flight query either completed before the drain cut it off or
  // was typed-rejected (kShuttingDown when it had not started yet) — never
  // a hang, never an untyped connection reset mid-result.
  if (result.transport_ok && result.error == ErrorCode::kNone) {
    EXPECT_EQ(result.result_oids.size(), 100'000u);
  }
  server->WaitUntilStopped();
  EXPECT_FALSE(server->running());
  EXPECT_EQ(server->active_connections(), 0);

  // New connections are refused outright once draining.
  McsortClient late(client_options);
  EXPECT_FALSE(late.Connect());
}

// --------------------------------------------------------------------------
// ProcessOptions: the one environment parser
// --------------------------------------------------------------------------

// Every spelling ProcessOptions::FromEnv reads.
constexpr const char* kKnobs[] = {
    "MCSORT_THREADS",       "MCSORT_RHO",
    "MCSORT_SPILL",         "MCSORT_SPILL_DIR",
    "MCSORT_DATA_DIR",      "MCSORT_MMAP",
    "MCSORT_MEMORY_BUDGET", "MCSORT_COMPACT",
    "MCSORT_COMPACT_INTERVAL_MS",
    "MCSORT_COMPACT_MIN_ROWS",
    "MCSORT_HOST",          "MCSORT_PORT",
    "MCSORT_MAX_CONNS",     "MCSORT_SCRATCH_BUDGET",
    "MCSORT_N",
};

// Unsets every knob for the test's lifetime, then restores each one's
// prior state, so a variable set around the test binary survives it.
class ScopedKnobs {
 public:
  ScopedKnobs() {
    for (const char* name : kKnobs) {
      const char* value = std::getenv(name);
      saved_.emplace_back(value != nullptr, value != nullptr ? value : "");
      unsetenv(name);
    }
  }
  ~ScopedKnobs() {
    for (size_t i = 0; i < saved_.size(); ++i) {
      if (saved_[i].first) setenv(kKnobs[i], saved_[i].second.c_str(), 1);
    }
  }
  ScopedKnobs(const ScopedKnobs&) = delete;
  ScopedKnobs& operator=(const ScopedKnobs&) = delete;

 private:
  std::vector<std::pair<bool, std::string>> saved_;  // {was set, value}
};

// Parses with exactly one knob set.
Status ParseWith(const char* name, const char* value, ProcessOptions* out) {
  setenv(name, value, 1);
  const Status status = ProcessOptions::FromEnv(out);
  unsetenv(name);
  return status;
}

// The tree's settable values plus the layer fields next to them, one
// "name=value" string each, so a mismatch names the field.
std::vector<std::string> Fields(const ProcessOptions& o) {
  char rho[32];
  std::snprintf(rho, sizeof(rho), "%.17g", o.service.rho);
  const auto u = [](uint64_t v) { return std::to_string(v); };
  return {
      "service.threads=" + u(o.service.threads),
      std::string("service.rho=") + rho,
      "service.use_calibration=" + u(o.service.use_calibration),
      "service.spill.enabled=" + u(o.service.spill.enabled),
      "service.spill.dir=" + o.service.spill.dir,
      "service.spill.block_rows=" + u(o.service.spill.block_rows),
      "catalog.dir=" + o.catalog.dir,
      "catalog.load.mode=" + u(static_cast<int>(o.catalog.load.mode)),
      "catalog.memory_budget_bytes=" + u(o.catalog.memory_budget_bytes),
      "compaction.enabled=" + u(o.compaction.enabled),
      "compaction.interval_ms=" + u(o.compaction.interval_ms),
      "compaction.min_delta_rows=" + u(o.compaction.min_delta_rows),
      "server.host=" + o.server.host,
      "server.port=" + u(o.server.port),
      "server.max_connections=" + u(o.server.max_connections),
      "server.max_inflight_queries=" + u(o.server.max_inflight_queries),
      "server.exec_threads=" + u(o.server.exec_threads),
      "server.scratch_budget_bytes=" + u(o.server.scratch_budget_bytes),
      "demo_rows=" + u(o.demo_rows),
  };
}

TEST(ProcessOptionsTest, UnsetEnvironmentGivesLayerDefaults) {
  ScopedKnobs knobs;
  ProcessOptions parsed;
  parsed.service.threads = 99;  // FromEnv starts over from the defaults
  parsed.server.host = "stale";
  ASSERT_TRUE(ProcessOptions::FromEnv(&parsed).ok());

  ProcessOptions layers;
  layers.service = ServiceOptions{};
  layers.catalog = CatalogOptions{};
  layers.compaction = delta::CompactionOptions{};
  layers.server = ServerOptions{};
  EXPECT_EQ(Fields(parsed), Fields(layers));
}

TEST(ProcessOptionsTest, EachSpellingLandsInExactlyItsField) {
  struct Case {
    const char* name;
    const char* value;
    void (*apply)(ProcessOptions*);  // the one field the knob must change
  };
  const Case cases[] = {
      {"MCSORT_THREADS", "7",
       [](ProcessOptions* o) { o->service.threads = 7; }},
      {"MCSORT_RHO", "0.05",
       [](ProcessOptions* o) { o->service.rho = 0.05; }},
      {"MCSORT_SPILL", "0",
       [](ProcessOptions* o) { o->service.spill.enabled = false; }},
      {"MCSORT_SPILL_DIR", "/tmp/knob-spill",
       [](ProcessOptions* o) { o->service.spill.dir = "/tmp/knob-spill"; }},
      {"MCSORT_DATA_DIR", "/tmp/knob-data",
       [](ProcessOptions* o) { o->catalog.dir = "/tmp/knob-data"; }},
      {"MCSORT_MMAP", "1",
       [](ProcessOptions* o) {
         o->catalog.load.mode = SnapshotLoadMode::kMmap;
       }},
      {"MCSORT_MEMORY_BUDGET", "12345",
       [](ProcessOptions* o) { o->catalog.memory_budget_bytes = 12345; }},
      {"MCSORT_COMPACT", "1",
       [](ProcessOptions* o) { o->compaction.enabled = true; }},
      {"MCSORT_COMPACT_INTERVAL_MS", "250",
       [](ProcessOptions* o) { o->compaction.interval_ms = 250; }},
      {"MCSORT_COMPACT_MIN_ROWS", "77",
       [](ProcessOptions* o) { o->compaction.min_delta_rows = 77; }},
      {"MCSORT_HOST", "10.1.2.3",
       [](ProcessOptions* o) { o->server.host = "10.1.2.3"; }},
      {"MCSORT_PORT", "65535",
       [](ProcessOptions* o) { o->server.port = 65535; }},
      {"MCSORT_MAX_CONNS", "9",
       [](ProcessOptions* o) { o->server.max_connections = 9; }},
      {"MCSORT_SCRATCH_BUDGET", "65536",
       [](ProcessOptions* o) { o->server.scratch_budget_bytes = 65536; }},
      {"MCSORT_N", "4096", [](ProcessOptions* o) { o->demo_rows = 4096; }},
  };
  ASSERT_EQ(std::size(cases), std::size(kKnobs));
  ScopedKnobs knobs;
  for (const Case& c : cases) {
    ProcessOptions parsed;
    const Status status = ParseWith(c.name, c.value, &parsed);
    ASSERT_TRUE(status.ok()) << c.name << ": " << status.ToString();
    ProcessOptions expected;
    c.apply(&expected);
    EXPECT_NE(Fields(expected), Fields(ProcessOptions{})) << c.name;
    EXPECT_EQ(Fields(parsed), Fields(expected)) << c.name << "=" << c.value;
  }

  // A malformed number or 0 means unset, and a switch set to its default
  // changes nothing.
  const std::pair<const char*, const char*> unchanged[] = {
      {"MCSORT_PORT", "abc"}, {"MCSORT_THREADS", "0"},
      {"MCSORT_MAX_CONNS", "x"}, {"MCSORT_SPILL", "1"},
      {"MCSORT_COMPACT", "0"}, {"MCSORT_MMAP", "0"},
  };
  for (const auto& [name, value] : unchanged) {
    ProcessOptions parsed;
    ASSERT_TRUE(ParseWith(name, value, &parsed).ok()) << name;
    EXPECT_EQ(Fields(parsed), Fields(ProcessOptions{})) << name << "=" << value;
  }
}

TEST(ProcessOptionsTest, OutOfRangeValueIsAnErrorNamingTheVariable) {
  const std::pair<const char*, const char*> cases[] = {
      {"MCSORT_PORT", "65536"},
      {"MCSORT_PORT", "70000"},
      {"MCSORT_MAX_CONNS", "4294967296"},
      {"MCSORT_MAX_CONNS", "3000000000"},
      {"MCSORT_THREADS", "4294967297"},
  };
  ScopedKnobs knobs;
  for (const auto& [name, value] : cases) {
    ProcessOptions parsed;
    parsed.demo_rows = 1;  // left as is on error
    const Status status = ParseWith(name, value, &parsed);
    EXPECT_EQ(status.code, StatusCode::kInvalidArgument)
        << name << "=" << value;
    EXPECT_NE(status.detail.find(name), std::string::npos) << status.detail;
    EXPECT_EQ(parsed.demo_rows, 1u);
  }
}

}  // namespace
}  // namespace net
}  // namespace mcsort
