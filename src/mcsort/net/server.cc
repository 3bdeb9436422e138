#include "mcsort/net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <utility>

#include "mcsort/common/timer.h"
#include "mcsort/dist/merge_keys.h"

namespace mcsort {
namespace net {

using Clock = std::chrono::steady_clock;

// Per-connection limits, fixed for every server. The payload cap and the
// two timeouts guard against peers that send too much or stall.
constexpr size_t kMaxPayloadBytes = size_t{16} << 20;
// Element bytes per RESULT frame.
constexpr size_t kResultChunkBytes = size_t{256} << 10;
// A connection with an incomplete inbound frame or unflushed outbound
// bytes that makes no progress this long is closed (net.timeouts).
constexpr double kIoTimeoutSeconds = 30;
// A fully idle connection (no in-flight query, empty buffers) is closed
// after this long.
constexpr double kIdleTimeoutSeconds = 600;
constexpr char kServerName[] = "mcsort";

// ---------------------------------------------------------------------------
// Internal state
// ---------------------------------------------------------------------------

struct McsortServer::Conn {
  explicit Conn(size_t max_payload) : assembler(max_payload) {}

  int fd = -1;
  uint64_t id = 0;
  FrameAssembler assembler;
  bool hello_done = false;
  // Loop-thread-only: close once the outbound queue drains.
  bool close_after_flush = false;
  bool want_write = false;  // current epoll interest includes EPOLLOUT
  Clock::time_point last_activity{};

  // Everything below is shared with executor workers, under out_mu.
  std::mutex out_mu;
  bool closed = false;               // tombstone: drop late worker output
  std::deque<std::string> out;       // sealed frames awaiting write
  size_t out_offset = 0;             // sent prefix of out.front()
  bool query_running = false;
  uint64_t inflight_request = 0;
  CancellationSource cancel;         // replaced per query
};

struct McsortServer::Job {
  // What the worker should do. Table ops (snapshot save/load) and DML run
  // on the same worker pool as queries so the event loop never touches a
  // disk or a version mutex.
  enum class Kind { kQuery, kSaveTable, kLoadTable, kDml };

  Kind kind = Kind::kQuery;
  std::shared_ptr<Conn> conn;
  uint64_t request_id = 0;
  // Catalog name the worker resolves (empty = default table). Resolution
  // happens on the worker, not the loop thread, because an unloaded
  // catalog table materializes from disk on first use.
  std::string table_name;
  QuerySpec spec;
  delta::DmlCommand dml;
  bool want_merge_keys = false;
  bool has_deadline = false;
  Clock::time_point deadline{};
  CancellationSource cancel;
};

struct McsortServer::NetCounters {
  Counter* accepted;
  Counter* closed;
  Counter* busy_rejects;
  Counter* bytes_in;
  Counter* bytes_out;
  Counter* frames_in;
  Counter* frames_out;
  Counter* frame_errors;
  Counter* timeouts;
  Counter* queries;
  Counter* queries_ok;
  Counter* cancels;
  Histogram* query_seconds;

  explicit NetCounters(MetricsRegistry* metrics)
      : accepted(metrics->counter("net.accepted")),
        closed(metrics->counter("net.closed")),
        busy_rejects(metrics->counter("net.busy_rejects")),
        bytes_in(metrics->counter("net.bytes_in")),
        bytes_out(metrics->counter("net.bytes_out")),
        frames_in(metrics->counter("net.frames_in")),
        frames_out(metrics->counter("net.frames_out")),
        frame_errors(metrics->counter("net.frame_errors")),
        timeouts(metrics->counter("net.timeouts")),
        queries(metrics->counter("net.queries")),
        queries_ok(metrics->counter("net.queries_ok")),
        cancels(metrics->counter("net.cancels")),
        query_seconds(metrics->histogram("net.query_seconds")) {}
};

namespace {

bool ColumnsExist(const Table& table, const std::vector<std::string>& names,
                  std::string* detail) {
  for (const std::string& name : names) {
    if (!table.HasColumn(name)) {
      *detail = "unknown column: " + name;
      return false;
    }
  }
  return true;
}

}  // namespace

// The engine CHECK-aborts on clause combinations ResolveSortAttrs rejects
// and on unknown column names; network input must be screened here so a
// hostile frame degrades to a typed ERROR instead of killing the process.
ErrorCode ValidateSpec(const Table& table, const QuerySpec& spec,
                       std::string* detail) {
  const bool has_group = !spec.group_by.empty();
  const bool has_order = !spec.order_by.empty();
  const bool has_partition = !spec.partition_by.empty();
  if (has_group + has_order + has_partition != 1) {
    *detail = "exactly one of GROUP BY / ORDER BY / PARTITION BY required";
    return ErrorCode::kBadQuery;
  }
  if (has_partition && spec.window_order_column.empty()) {
    *detail = "PARTITION BY requires a window order column";
    return ErrorCode::kBadQuery;
  }
  if (!has_partition && !spec.window_order_column.empty()) {
    *detail = "window order column without PARTITION BY";
    return ErrorCode::kBadQuery;
  }

  std::vector<std::string> filter_columns;
  for (const FilterSpec& f : spec.filters) filter_columns.push_back(f.column);
  if (!ColumnsExist(table, filter_columns, detail) ||
      !ColumnsExist(table, spec.group_by, detail) ||
      !ColumnsExist(table, spec.partition_by, detail)) {
    return ErrorCode::kBadQuery;
  }
  for (const auto& [column, order] : spec.order_by) {
    (void)order;
    if (!table.HasColumn(column)) {
      *detail = "unknown column: " + column;
      return ErrorCode::kBadQuery;
    }
  }
  if (has_partition && !table.HasColumn(spec.window_order_column)) {
    *detail = "unknown column: " + spec.window_order_column;
    return ErrorCode::kBadQuery;
  }

  if (!spec.aggregates.empty() && !has_group) {
    *detail = "aggregates require GROUP BY";
    return ErrorCode::kBadQuery;
  }
  for (const AggregateSpec& agg : spec.aggregates) {
    if (agg.op == AggOp::kCount && agg.column.empty()) continue;
    if (!table.HasColumn(agg.column)) {
      *detail = "unknown aggregate column: " + agg.column;
      return ErrorCode::kBadQuery;
    }
  }

  if (!spec.result_order.empty() && !has_group) {
    *detail = "result ordering requires GROUP BY";
    return ErrorCode::kBadQuery;
  }
  for (const ResultOrderSpec& ro : spec.result_order) {
    if (ro.key.rfind("agg:", 0) == 0) {
      char* end = nullptr;
      const long index = std::strtol(ro.key.c_str() + 4, &end, 10);
      if (end == ro.key.c_str() + 4 || *end != '\0' || index < 0 ||
          static_cast<size_t>(index) >= spec.aggregates.size()) {
        *detail = "bad result-order aggregate key: " + ro.key;
        return ErrorCode::kBadQuery;
      }
    } else if (std::find(spec.group_by.begin(), spec.group_by.end(), ro.key) ==
               spec.group_by.end()) {
      *detail = "result-order key not in GROUP BY: " + ro.key;
      return ErrorCode::kBadQuery;
    }
  }
  return ErrorCode::kNone;
}

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

McsortServer::McsortServer(QueryService* service, const ServerOptions& options)
    : service_(service),
      options_(options),
      counters_(std::make_unique<NetCounters>(&service->metrics())) {
  options_.max_connections = std::max(1, options_.max_connections);
  options_.max_inflight_queries = std::max(1, options_.max_inflight_queries);
  options_.exec_threads = std::max(1, options_.exec_threads);
}

McsortServer::~McsortServer() { Shutdown(); }

bool McsortServer::Start(std::string* error) {
  const auto fail = [&](const char* what) {
    if (error != nullptr) {
      *error = std::string(what) + ": " + std::strerror(errno);
    }
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    listen_fd_ = epoll_fd_ = wake_fd_ = -1;
    return false;
  };

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return fail("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    errno = EINVAL;
    return fail("inet_pton");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return fail("bind");
  }
  if (::listen(listen_fd_, 128) < 0) return fail("listen");
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) <
      0) {
    return fail("getsockname");
  }
  port_ = ntohs(addr.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return fail("epoll_create1");
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) return fail("eventfd");

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) < 0) {
    return fail("epoll_ctl(listen)");
  }
  ev.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) < 0) {
    return fail("epoll_ctl(wake)");
  }

  running_.store(true, std::memory_order_release);
  stop_workers_.store(false, std::memory_order_release);
  workers_.reserve(options_.exec_threads);
  for (int i = 0; i < options_.exec_threads; ++i) {
    workers_.emplace_back([this] { WorkerThread(); });
  }
  loop_thread_ = std::thread([this] { LoopThread(); });
  return true;
}

void McsortServer::RequestDrain() {
  drain_requested_.store(true, std::memory_order_release);
  if (wake_fd_ >= 0) {
    const uint64_t one = 1;
    // write(2) to an eventfd is async-signal-safe; a short/failed write
    // only delays the drain until the next epoll timeout tick.
    [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  }
}

void McsortServer::Shutdown() {
  if (loop_thread_.joinable()) {
    RequestDrain();
    loop_thread_.join();
  }
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    stop_workers_.store(true, std::memory_order_release);
  }
  jobs_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  epoll_fd_ = wake_fd_ = -1;
  running_.store(false, std::memory_order_release);
}

void McsortServer::WaitUntilStopped() {
  while (running_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

void McsortServer::WakeLoop() {
  const uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

// ---------------------------------------------------------------------------
// Event loop
// ---------------------------------------------------------------------------

void McsortServer::LoopThread() {
  epoll_event events[64];
  Clock::time_point last_sweep = Clock::now();
  bool stop = false;
  while (!stop) {
    const int n = ::epoll_wait(epoll_fd_, events, 64, 50);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        uint64_t drained;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      if (fd == listen_fd_) {
        HandleAccept();
        continue;
      }
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;  // closed earlier in this batch
      std::shared_ptr<Conn> conn = it->second;
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        CloseConn(conn);
        continue;
      }
      if (events[i].events & EPOLLIN) HandleReadable(conn);
      if (conns_.count(fd) != 0 && (events[i].events & EPOLLOUT)) {
        HandleWritable(conn);
      }
    }

    // Flush queues workers filled since the last pass (the eventfd only
    // says "something changed", not which connection).
    std::vector<std::shared_ptr<Conn>> flushable;
    for (const auto& [fd, conn] : conns_) {
      std::lock_guard<std::mutex> lock(conn->out_mu);
      if (!conn->out.empty() || conn->close_after_flush) {
        flushable.push_back(conn);
      }
    }
    for (const std::shared_ptr<Conn>& conn : flushable) {
      if (conns_.count(conn->fd) != 0) HandleWritable(conn);
    }

    if (drain_requested_.load(std::memory_order_acquire) && !draining_) {
      BeginDrain();
    }
    const Clock::time_point now = Clock::now();
    if (now - last_sweep > std::chrono::milliseconds(100)) {
      last_sweep = now;
      SweepTimeouts();
    }
    if (draining_) {
      // Retire connections with nothing left to say; cut everyone off at
      // the drain deadline (cancelling their queries on the way out).
      std::vector<std::shared_ptr<Conn>> idle;
      const bool expired = now >= drain_deadline_;
      for (const auto& [fd, conn] : conns_) {
        std::lock_guard<std::mutex> lock(conn->out_mu);
        if (expired || (!conn->query_running && conn->out.empty())) {
          idle.push_back(conn);
        }
      }
      for (const std::shared_ptr<Conn>& conn : idle) CloseConn(conn);
      if (conns_.empty()) stop = true;
    }
  }
  for (const auto& [fd, conn] : conns_) {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    conn->closed = true;
    if (conn->query_running) conn->cancel.Cancel();
    ::close(conn->fd);
  }
  conns_.clear();
  active_conns_.store(0, std::memory_order_relaxed);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  running_.store(false, std::memory_order_release);
}

void McsortServer::BeginDrain() {
  draining_ = true;
  drain_deadline_ =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             std::max(0.0, options_.drain_timeout_seconds)));
  if (listen_fd_ >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void McsortServer::HandleAccept() {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or transient accept failure
    }
    if (static_cast<int>(conns_.size()) >= options_.max_connections) {
      // Typed rejection: the socket buffer of a fresh connection always
      // has room for one small frame, so this best-effort write lands.
      const std::string frame =
          SealFrame(FrameType::kError, 0, 0,
                    EncodeError({ErrorCode::kBusy, "connection limit"}));
      [[maybe_unused]] const ssize_t w =
          ::write(fd, frame.data(), frame.size());
      ::close(fd);
      counters_->busy_rejects->Increment();
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Conn>(kMaxPayloadBytes);
    conn->fd = fd;
    conn->id = next_conn_id_++;
    conn->last_activity = Clock::now();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      ::close(fd);
      continue;
    }
    conns_.emplace(fd, std::move(conn));
    active_conns_.fetch_add(1, std::memory_order_relaxed);
    counters_->accepted->Increment();
  }
}

void McsortServer::CloseConn(const std::shared_ptr<Conn>& conn) {
  if (conns_.erase(conn->fd) == 0) return;  // already closed
  {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    conn->closed = true;
    // A client that vanishes mid-query must not keep burning CPU.
    if (conn->query_running) conn->cancel.Cancel();
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  active_conns_.fetch_sub(1, std::memory_order_relaxed);
  counters_->closed->Increment();
}

void McsortServer::UpdateEpoll(const std::shared_ptr<Conn>& conn) {
  bool want_write;
  {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    want_write = !conn->out.empty();
  }
  if (want_write == conn->want_write) return;
  conn->want_write = want_write;
  epoll_event ev{};
  ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
  ev.data.fd = conn->fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

void McsortServer::HandleReadable(const std::shared_ptr<Conn>& conn) {
  char buf[1 << 16];
  for (;;) {
    const ssize_t got = ::read(conn->fd, buf, sizeof(buf));
    if (got > 0) {
      conn->assembler.Append(buf, static_cast<size_t>(got));
      conn->last_activity = Clock::now();
      counters_->bytes_in->Add(static_cast<uint64_t>(got));
      if (got < static_cast<ssize_t>(sizeof(buf))) break;
      continue;
    }
    if (got == 0) {
      CloseConn(conn);
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConn(conn);
    return;
  }

  Frame frame;
  ErrorCode error;
  bool fatal;
  for (;;) {
    if (conns_.count(conn->fd) == 0) return;  // closed while dispatching
    const FrameAssembler::Next next =
        conn->assembler.Pull(&frame, &error, &fatal);
    if (next == FrameAssembler::Next::kNeedMore) break;
    if (next == FrameAssembler::Next::kBadFrame) {
      counters_->frame_errors->Increment();
      SendError(conn, 0, error, "frame rejected", /*close_after=*/fatal);
      if (fatal) return;  // length prefix untrustworthy: stop parsing
      continue;
    }
    counters_->frames_in->Increment();
    DispatchFrame(conn, frame);
  }
}

void McsortServer::HandleWritable(const std::shared_ptr<Conn>& conn) {
  bool close_now = false;
  {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    while (!conn->out.empty()) {
      const std::string& front = conn->out.front();
      const ssize_t written =
          ::write(conn->fd, front.data() + conn->out_offset,
                  front.size() - conn->out_offset);
      if (written < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        close_now = true;  // broken pipe etc.
        break;
      }
      conn->out_offset += static_cast<size_t>(written);
      conn->last_activity = Clock::now();
      counters_->bytes_out->Add(static_cast<uint64_t>(written));
      if (conn->out_offset == front.size()) {
        conn->out.pop_front();
        conn->out_offset = 0;
        counters_->frames_out->Increment();
      }
    }
    if (conn->out.empty() && conn->close_after_flush) close_now = true;
  }
  if (close_now) {
    CloseConn(conn);
    return;
  }
  UpdateEpoll(conn);
}

void McsortServer::EnqueueFrames(const std::shared_ptr<Conn>& conn,
                                 std::vector<std::string> frames,
                                 bool close_after) {
  {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    if (conn->closed) return;
    for (std::string& frame : frames) conn->out.push_back(std::move(frame));
    if (close_after) conn->close_after_flush = true;
  }
  // Called from the loop thread: flush immediately (usually succeeds in
  // one write and avoids an extra epoll round-trip).
  HandleWritable(conn);
}

void McsortServer::SendError(const std::shared_ptr<Conn>& conn,
                             uint64_t request_id, ErrorCode code,
                             const std::string& detail, bool close_after) {
  std::vector<std::string> frames;
  frames.push_back(SealFrame(FrameType::kError, 0, request_id,
                             EncodeError({code, detail})));
  EnqueueFrames(conn, std::move(frames), close_after);
}

void McsortServer::SweepTimeouts() {
  const Clock::time_point now = Clock::now();
  std::vector<std::shared_ptr<Conn>> timed_out;
  std::vector<std::shared_ptr<Conn>> idle_out;
  for (const auto& [fd, conn] : conns_) {
    bool io_pending;
    bool running;
    {
      std::lock_guard<std::mutex> lock(conn->out_mu);
      io_pending = conn->assembler.pending_bytes() > 0 || !conn->out.empty();
      running = conn->query_running;
    }
    const double idle =
        std::chrono::duration<double>(now - conn->last_activity).count();
    if (io_pending && idle > kIoTimeoutSeconds) {
      timed_out.push_back(conn);
    } else if (!io_pending && !running && idle > kIdleTimeoutSeconds) {
      idle_out.push_back(conn);
    }
  }
  for (const std::shared_ptr<Conn>& conn : timed_out) {
    counters_->timeouts->Increment();
    CloseConn(conn);
  }
  for (const std::shared_ptr<Conn>& conn : idle_out) CloseConn(conn);
}

// ---------------------------------------------------------------------------
// Frame dispatch
// ---------------------------------------------------------------------------

std::string McsortServer::MetricsText() {
  std::string text = service_->DumpMetrics();
  char line[64];
  std::snprintf(line, sizeof(line), "net.active %d\n",
                active_conns_.load(std::memory_order_relaxed));
  text += line;
  std::snprintf(line, sizeof(line), "net.inflight %d\n",
                inflight_.load(std::memory_order_relaxed));
  text += line;
  return text;
}

std::string McsortServer::SchemaText() {
  SchemaReply reply;
  for (const std::string& name : service_->ListTables()) {
    const Table* table = service_->FindTable(name);
    if (table == nullptr) continue;
    TableSchema schema = SchemaOf(name, *table);
    // Write-path introspection: a written table reports its live row
    // count (base minus tombstones plus delta), its epoch, and how many
    // delta rows await compaction — the signal dml_smoke polls to watch
    // compaction progress.
    const QueryService::DeltaInfo info = service_->GetDeltaInfo(name);
    if (info.has_version) {
      schema.row_count = info.live_rows;
      schema.epoch = info.epoch;
      schema.delta_rows = info.delta_rows;
    }
    reply.tables.push_back(std::move(schema));
  }
  return EncodeSchemaReply(reply);
}

void McsortServer::DispatchFrame(const std::shared_ptr<Conn>& conn,
                                 const Frame& frame) {
  const uint64_t id = frame.header.request_id;
  if (!IsClientFrameType(frame.header.type)) {
    counters_->frame_errors->Increment();
    SendError(conn, id, ErrorCode::kUnknownType, "not a client frame type");
    return;
  }
  switch (frame.type()) {
    case FrameType::kHello: {
      HelloRequest hello;
      if (!DecodeHello(frame.payload, &hello)) {
        SendError(conn, id, ErrorCode::kMalformedQuery, "bad HELLO payload");
        return;
      }
      if (hello.version < kMinProtocolVersion ||
          hello.version > kProtocolVersion) {
        char detail[64];
        std::snprintf(detail, sizeof(detail),
                      "server speaks versions %d..%d, peer sent %d",
                      kMinProtocolVersion, kProtocolVersion, hello.version);
        SendError(conn, id, ErrorCode::kUnsupportedVersion, detail,
                  /*close_after=*/true);
        return;
      }
      if (conn->hello_done) {
        SendError(conn, id, ErrorCode::kProtocolViolation, "duplicate HELLO");
        return;
      }
      conn->hello_done = true;
      HelloReply reply;
      reply.capabilities = kCapMergeKeys;
      reply.server_name = kServerName;
      reply.default_table = service_->DefaultTableName();
      std::vector<std::string> frames;
      frames.push_back(SealFrame(FrameType::kHelloAck, 0, id,
                                 EncodeHelloReply(reply)));
      EnqueueFrames(conn, std::move(frames));
      return;
    }
    case FrameType::kPing: {
      std::vector<std::string> frames;
      frames.push_back(SealFrame(FrameType::kPong, 0, id, frame.payload));
      EnqueueFrames(conn, std::move(frames));
      return;
    }
    case FrameType::kMetricsRequest: {
      std::vector<std::string> frames;
      frames.push_back(
          SealFrame(FrameType::kMetricsReply, 0, id, MetricsText()));
      EnqueueFrames(conn, std::move(frames));
      return;
    }
    case FrameType::kSchemaRequest: {
      std::vector<std::string> frames;
      frames.push_back(SealFrame(FrameType::kSchemaReply, 0, id, SchemaText()));
      EnqueueFrames(conn, std::move(frames));
      return;
    }
    case FrameType::kCancel: {
      CancellationSource cancel;
      bool fire = false;
      {
        std::lock_guard<std::mutex> lock(conn->out_mu);
        if (conn->query_running && conn->inflight_request == id) {
          cancel = conn->cancel;
          fire = true;
        }
      }
      if (fire) {
        cancel.Cancel();
        counters_->cancels->Increment();
      }
      return;  // fire-and-forget: the query's reply carries the outcome
    }
    case FrameType::kGoodbye:
      EnqueueFrames(conn, {}, /*close_after=*/true);
      return;
    case FrameType::kQuery:
      HandleQueryFrame(conn, frame);
      return;
    case FrameType::kSaveTable:
    case FrameType::kLoadTable:
      HandleTableOpFrame(conn, frame);
      return;
    case FrameType::kDml:
      HandleDmlFrame(conn, frame);
      return;
    default:
      SendError(conn, id, ErrorCode::kUnknownType, "unhandled frame type");
      return;
  }
}

void McsortServer::HandleQueryFrame(const std::shared_ptr<Conn>& conn,
                                    const Frame& frame) {
  const uint64_t id = frame.header.request_id;
  counters_->queries->Increment();
  if (!conn->hello_done) {
    SendError(conn, id, ErrorCode::kProtocolViolation, "QUERY before HELLO");
    return;
  }
  if (draining_) {
    SendError(conn, id, ErrorCode::kShuttingDown, "server draining");
    return;
  }
  bool already_running;
  {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    already_running = conn->query_running;
  }
  if (already_running) {
    counters_->busy_rejects->Increment();
    SendError(conn, id, ErrorCode::kBusy, "a query is already in flight");
    return;
  }
  if (inflight_.load(std::memory_order_relaxed) >=
      options_.max_inflight_queries) {
    counters_->busy_rejects->Increment();
    SendError(conn, id, ErrorCode::kBusy, "server at max in-flight queries");
    return;
  }

  QueryEnvelope envelope;
  if (!DecodeQuery(frame.payload, &envelope)) {
    SendError(conn, id, ErrorCode::kMalformedQuery,
              "QUERY payload did not decode");
    return;
  }

  // Table resolution and spec validation happen on the worker: resolving
  // an unloaded catalog table does disk IO, which must never block the
  // event loop. The worker answers kUnknownTable / kBadQuery the same way
  // it answers execution errors.
  Job job;
  job.conn = conn;
  job.request_id = id;
  job.table_name = std::move(envelope.table);
  job.spec = std::move(envelope.spec);
  job.want_merge_keys = envelope.want_merge_keys;
  if (envelope.deadline_micros > 0) {
    job.has_deadline = true;
    job.deadline =
        Clock::now() + std::chrono::microseconds(envelope.deadline_micros);
  }
  EnqueueJob(std::move(job));
}

void McsortServer::HandleTableOpFrame(const std::shared_ptr<Conn>& conn,
                                      const Frame& frame) {
  const uint64_t id = frame.header.request_id;
  if (!conn->hello_done) {
    SendError(conn, id, ErrorCode::kProtocolViolation,
              "table op before HELLO");
    return;
  }
  if (draining_) {
    SendError(conn, id, ErrorCode::kShuttingDown, "server draining");
    return;
  }
  bool already_running;
  {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    already_running = conn->query_running;
  }
  if (already_running) {
    counters_->busy_rejects->Increment();
    SendError(conn, id, ErrorCode::kBusy, "a request is already in flight");
    return;
  }
  if (inflight_.load(std::memory_order_relaxed) >=
      options_.max_inflight_queries) {
    counters_->busy_rejects->Increment();
    SendError(conn, id, ErrorCode::kBusy, "server at max in-flight requests");
    return;
  }
  TableOpRequest request;
  if (!DecodeTableOp(frame.payload, &request)) {
    SendError(conn, id, ErrorCode::kMalformedQuery,
              "table op payload did not decode");
    return;
  }
  Job job;
  job.kind = frame.type() == FrameType::kSaveTable ? Job::Kind::kSaveTable
                                                   : Job::Kind::kLoadTable;
  job.conn = conn;
  job.request_id = id;
  job.table_name = std::move(request.table);
  EnqueueJob(std::move(job));
}

void McsortServer::HandleDmlFrame(const std::shared_ptr<Conn>& conn,
                                  const Frame& frame) {
  const uint64_t id = frame.header.request_id;
  if (!conn->hello_done) {
    SendError(conn, id, ErrorCode::kProtocolViolation, "DML before HELLO");
    return;
  }
  if (draining_) {
    SendError(conn, id, ErrorCode::kShuttingDown, "server draining");
    return;
  }
  bool already_running;
  {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    already_running = conn->query_running;
  }
  if (already_running) {
    counters_->busy_rejects->Increment();
    SendError(conn, id, ErrorCode::kBusy, "a request is already in flight");
    return;
  }
  if (inflight_.load(std::memory_order_relaxed) >=
      options_.max_inflight_queries) {
    SendError(conn, id, ErrorCode::kBusy, "server at max in-flight requests");
    counters_->busy_rejects->Increment();
    return;
  }
  Job job;
  job.kind = Job::Kind::kDml;
  if (!DecodeDml(frame.payload, &job.dml)) {
    SendError(conn, id, ErrorCode::kMalformedQuery,
              "DML payload did not decode");
    return;
  }
  job.conn = conn;
  job.request_id = id;
  job.table_name = job.dml.table;
  EnqueueJob(std::move(job));
}

void McsortServer::EnqueueJob(Job job) {
  {
    std::lock_guard<std::mutex> lock(job.conn->out_mu);
    job.conn->query_running = true;
    job.conn->inflight_request = job.request_id;
    job.conn->cancel = job.cancel;
  }
  inflight_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    jobs_.push_back(std::move(job));
  }
  jobs_cv_.notify_one();
}

// ---------------------------------------------------------------------------
// Executor workers
// ---------------------------------------------------------------------------

void McsortServer::WorkerThread() {
  // One session per (worker, table name): QuerySession is single-threaded
  // by contract, and a worker runs one query at a time. The cached
  // shared_ptr pins the table across catalog eviction while its session
  // lives; a LOAD_TABLE that rebinds the name is picked up on the next
  // query because the cached pointer no longer matches the resolution.
  struct CachedSession {
    std::shared_ptr<const Table> table;
    std::unique_ptr<QuerySession> session;
  };
  std::unordered_map<std::string, CachedSession> sessions;
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(jobs_mu_);
      jobs_cv_.wait(lock, [this] {
        return stop_workers_.load(std::memory_order_acquire) ||
               !jobs_.empty();
      });
      if (jobs_.empty()) {
        if (stop_workers_.load(std::memory_order_acquire)) return;
        continue;
      }
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }

    std::vector<std::string> frames;
    if (job.kind == Job::Kind::kDml) {
      const delta::DmlOutcome outcome = service_->ApplyDml(job.dml);
      service_->metrics().counter("net.dml")->Increment();
      if (outcome.status.code == StatusCode::kNotFound) {
        frames.push_back(
            SealFrame(FrameType::kError, 0, job.request_id,
                      EncodeError({ErrorCode::kUnknownTable,
                                   outcome.status.detail})));
      } else if (!outcome.status.ok()) {
        // Op-level rejection (bad column list, bad predicate): nothing was
        // applied; answer a typed ERROR like an invalid query.
        frames.push_back(SealFrame(
            FrameType::kError, 0, job.request_id,
            EncodeError({ErrorCode::kBadQuery, outcome.status.detail})));
      } else {
        DmlReply reply;
        reply.ok = true;
        reply.status_code = static_cast<uint8_t>(outcome.status.code);
        reply.detail = outcome.status.detail;
        reply.rows_affected = outcome.rows_affected;
        reply.rows_rejected = outcome.rows_rejected;
        reply.delta_rows = outcome.delta_rows;
        reply.epoch = outcome.epoch;
        reply.row_errors = outcome.row_errors;
        frames.push_back(SealFrame(FrameType::kDmlReply, 0, job.request_id,
                                   EncodeDmlReply(reply)));
      }
      FinishJob(job, std::move(frames));
      continue;
    }
    if (job.kind != Job::Kind::kQuery) {
      Timer timer;
      const bool is_save = job.kind == Job::Kind::kSaveTable;
      const Status status = is_save ? service_->SaveTable(job.table_name)
                                    : service_->LoadTable(job.table_name);
      TableOpReply reply;
      reply.ok = status.ok();
      reply.status_code = static_cast<uint8_t>(status.code);
      reply.detail = status.detail;
      reply.seconds = timer.Seconds();
      if (status.ok()) {
        if (const Table* table = service_->FindTable(job.table_name)) {
          reply.rows = table->row_count();
        }
      }
      service_->metrics()
          .counter(is_save ? "net.save_table" : "net.load_table")
          ->Increment();
      frames.push_back(SealFrame(FrameType::kTableOpReply, 0, job.request_id,
                                 EncodeTableOpReply(reply)));
      FinishJob(job, std::move(frames));
      continue;
    }

    Timer timer;
    const std::shared_ptr<const Table> table =
        service_->FindTableShared(job.table_name);
    if (table == nullptr) {
      frames.push_back(
          SealFrame(FrameType::kError, 0, job.request_id,
                    EncodeError({ErrorCode::kUnknownTable,
                                 "unknown table: " + job.table_name})));
      FinishJob(job, std::move(frames));
      continue;
    }
    std::string detail;
    const ErrorCode invalid = ValidateSpec(*table, job.spec, &detail);
    if (invalid != ErrorCode::kNone) {
      frames.push_back(SealFrame(FrameType::kError, 0, job.request_id,
                                 EncodeError({invalid, detail})));
      FinishJob(job, std::move(frames));
      continue;
    }

    CachedSession& cached = sessions[job.table_name];
    if (cached.session == nullptr || cached.table != table) {
      cached.table = table;
      cached.session = service_->OpenSession(*table);
    }
    ExecContext ctx;
    ctx.WithToken(job.cancel.token());
    if (job.has_deadline) ctx.WithDeadline(job.deadline);
    if (options_.scratch_budget_bytes > 0) {
      ctx.WithScratchBudget(options_.scratch_budget_bytes);
    }
    const ExecResult run = cached.session->Execute(job.spec, ctx);
    counters_->query_seconds->Record(timer.Seconds());

    if (run.ok()) {
      if (job.want_merge_keys) {
        dist::MergeKeys keys =
            dist::ComputeMergeKeys(*table, job.spec, run.result);
        if (!keys.ok) {
          frames.push_back(
              SealFrame(FrameType::kError, 0, job.request_id,
                        EncodeError({ErrorCode::kBadQuery, keys.error})));
          FinishJob(job, std::move(frames));
          continue;
        }
        counters_->queries_ok->Increment();
        ResultExtras extras;
        extras.merge_key_hi = std::move(keys.hi);
        extras.merge_key_lo = std::move(keys.lo);
        extras.group_sizes = std::move(keys.group_sizes);
        extras.global_oids = std::move(keys.global_oids);
        BuildResultFrames(job.request_id, run.result,
                          kResultChunkBytes, &frames, &extras);
        FinishJob(job, std::move(frames));
        continue;
      }
      counters_->queries_ok->Increment();
      BuildResultFrames(job.request_id, run.result,
                        kResultChunkBytes, &frames);
    } else {
      // The query's own Status, serialized with the one wire mapping, so a
      // remote peer sees exactly what a local caller would.
      const ErrorCode code = ToErrorCode(run.status);
      service_->metrics()
          .counter(std::string("net.query_error.") + ErrorCodeName(code))
          ->Increment();
      frames.push_back(
          SealFrame(FrameType::kError, 0, job.request_id,
                    EncodeError({code, run.status.detail})));
    }
    FinishJob(job, std::move(frames));
  }
}

void McsortServer::FinishJob(Job& job, std::vector<std::string> frames) {
  {
    // One critical section for reply + state clear: a pipelined next
    // request can only be admitted after this reply is fully queued, so
    // responses on a connection never interleave.
    std::lock_guard<std::mutex> lock(job.conn->out_mu);
    if (!job.conn->closed) {
      for (std::string& frame : frames) {
        job.conn->out.push_back(std::move(frame));
      }
    }
    job.conn->query_running = false;
    job.conn->inflight_request = 0;
  }
  inflight_.fetch_sub(1, std::memory_order_relaxed);
  WakeLoop();
}

}  // namespace net
}  // namespace mcsort
