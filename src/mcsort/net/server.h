// McsortServer — the network front-end over QueryService: a non-blocking
// epoll TCP server speaking the length-prefixed binary protocol of
// wire.h/protocol.h.
//
// Threading model: one event-loop thread owns every socket (accept, read,
// frame dispatch, write, timeouts); `exec_threads` executor workers run
// the blocking QuerySession::Execute calls. A worker never touches a
// socket — it appends sealed frames to the connection's outbound queue
// and wakes the loop through an eventfd. Connections are shared_ptr-held
// so a worker finishing after its client vanished writes into a tombstone,
// not freed memory.
//
// Robustness contract (the reason this layer exists):
//   * per-connection stalled-I/O timeout (partial inbound frame or unsent
//     outbound bytes make no progress) and a separate idle timeout;
//   * QUERY deadlines: the frame's relative deadline becomes an absolute
//     ExecContext deadline at receipt, so it bounds queue wait + execution;
//   * CANCEL frames fire the in-flight query's CancellationSource — the
//     executor unwinds at its next morsel boundary, the client gets ERROR
//     kCancelled;
//   * backpressure is typed, never an unbounded queue: connections beyond
//     max_connections and queries beyond max_inflight_queries are answered
//     with ERROR kBusy immediately (admission inside QueryService still
//     provides its own bounded FIFO below this cap);
//   * graceful drain: RequestDrain (async-signal-safe, SIGTERM-friendly)
//     stops accepting, lets in-flight queries finish within
//     drain_timeout_seconds, then cancels stragglers and exits the loop.
//
// Metrics: net.* counters (accepted, rejected, bytes/frames in and out,
// frame errors, timeouts, busy rejects, queries, cancels) are registered
// in the service's MetricsRegistry, so DumpMetrics — and therefore the
// METRICS frame — reports them alongside exec.*/plan_cache.* rows.
#ifndef MCSORT_NET_SERVER_H_
#define MCSORT_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "mcsort/common/exec_context.h"
#include "mcsort/net/frame_io.h"
#include "mcsort/net/protocol.h"
#include "mcsort/service/query_service.h"

namespace mcsort {
namespace net {

struct ServerOptions {
  std::string host = "127.0.0.1";
  // 0 binds an ephemeral port; read it back via McsortServer::port().
  uint16_t port = 0;
  // Connection cap: accepts beyond it get ERROR kBusy and an immediate
  // close (counted in net.busy_rejects), never a silent backlog.
  int max_connections = 64;
  // Server-wide cap on queries executing or queued for the workers; QUERY
  // frames beyond it get ERROR kBusy. Keep >= the service's admission
  // max_inflight — admission provides the bounded FIFO underneath.
  int max_inflight_queries = 8;
  // Blocking executor workers (each runs one QuerySession::Execute at a
  // time; intra-query parallelism comes from the service's morsel pool).
  int exec_threads = 2;
  // Grace period RequestDrain allows in-flight queries before cancelling.
  double drain_timeout_seconds = 10;
  // Per-query scratch budget (bytes) threaded into every ExecContext;
  // over-budget plans degrade or spill (engine/query.h). 0 = unlimited.
  uint64_t scratch_budget_bytes = 0;
};

class McsortServer {
 public:
  // `service` is borrowed and must outlive the server. Tables must be
  // registered on the service (QueryService::RegisterTable) — QUERY frames
  // address them by name and SCHEMA lists them.
  McsortServer(QueryService* service, const ServerOptions& options);
  ~McsortServer();

  McsortServer(const McsortServer&) = delete;
  McsortServer& operator=(const McsortServer&) = delete;

  // Binds, listens, and spawns the loop + worker threads. False (with
  // *error filled) if the socket setup fails; the server is then inert.
  bool Start(std::string* error = nullptr);

  // The bound port (after Start) — the ephemeral port when options.port=0.
  uint16_t port() const { return port_; }

  // Begins graceful drain. Async-signal-safe (an atomic store and one
  // write(2) to an eventfd), so it may be called from a SIGTERM handler.
  void RequestDrain();

  // RequestDrain + join everything. Idempotent; called by the destructor.
  void Shutdown();

  // Blocks until the loop exits (drain completed). For server binaries.
  void WaitUntilStopped();

  bool running() const { return running_.load(std::memory_order_acquire); }
  int active_connections() const {
    return active_conns_.load(std::memory_order_relaxed);
  }
  const ServerOptions& options() const { return options_; }

 private:
  struct Conn;
  struct Job;

  void LoopThread();
  void WorkerThread();
  // Worker-side epilogue: queue the reply frames, clear the connection's
  // in-flight state, decrement inflight_, and wake the loop.
  void FinishJob(Job& job, std::vector<std::string> frames);

  // Loop-thread handlers.
  void HandleAccept();
  void HandleReadable(const std::shared_ptr<Conn>& conn);
  void HandleWritable(const std::shared_ptr<Conn>& conn);
  void DispatchFrame(const std::shared_ptr<Conn>& conn, const Frame& frame);
  void HandleQueryFrame(const std::shared_ptr<Conn>& conn,
                        const Frame& frame);
  void HandleTableOpFrame(const std::shared_ptr<Conn>& conn,
                          const Frame& frame);
  void HandleDmlFrame(const std::shared_ptr<Conn>& conn, const Frame& frame);
  // Marks the connection busy and hands the job to the executor workers.
  void EnqueueJob(Job job);
  void SweepTimeouts();
  void BeginDrain();
  bool DrainComplete() const;
  void CloseConn(const std::shared_ptr<Conn>& conn);
  void UpdateEpoll(const std::shared_ptr<Conn>& conn);

  // Thread-safe enqueue of sealed frames on a connection + loop wakeup;
  // drops silently when the connection is already closed. `close_after`
  // marks the connection to close once the bytes are flushed.
  void EnqueueFrames(const std::shared_ptr<Conn>& conn,
                     std::vector<std::string> frames,
                     bool close_after = false);
  void SendError(const std::shared_ptr<Conn>& conn, uint64_t request_id,
                 ErrorCode code, const std::string& detail,
                 bool close_after = false);
  void WakeLoop();

  std::string MetricsText();
  std::string SchemaText();

  QueryService* service_;
  ServerOptions options_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  uint16_t port_ = 0;

  std::thread loop_thread_;
  std::vector<std::thread> workers_;
  std::atomic<bool> running_{false};
  std::atomic<bool> drain_requested_{false};
  std::atomic<bool> stop_workers_{false};
  bool draining_ = false;  // loop-thread state
  std::chrono::steady_clock::time_point drain_deadline_{};

  // Connections, owned by the loop thread (workers hold shared_ptrs only).
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;
  uint64_t next_conn_id_ = 0;
  std::atomic<int> active_conns_{0};

  // Executor job queue. Bounded by max_inflight_queries via inflight_.
  std::mutex jobs_mu_;
  std::condition_variable jobs_cv_;
  std::deque<Job> jobs_;
  std::atomic<int> inflight_{0};

  // Hot-path counters resolved once at construction (the registry lookup
  // takes a lock; per-event updates must not).
  struct NetCounters;
  std::unique_ptr<NetCounters> counters_;
};

// Spec-vs-table validation shared by the server's QUERY path and the
// tests: rejects specs the engine would CHECK-fail on (clause-combination
// rules, unknown columns, bad result-order keys) with a typed code.
// Returns kNone when the spec is executable against `table`.
ErrorCode ValidateSpec(const Table& table, const QuerySpec& spec,
                       std::string* detail);

}  // namespace net
}  // namespace mcsort

#endif  // MCSORT_NET_SERVER_H_
