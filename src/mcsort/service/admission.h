// AdmissionController — bounds the work the service lets in flight at
// once: a hard cap on concurrent queries plus a soft budget on the scratch
// memory they are predicted to allocate (sort keys, gathered columns, oid
// arrays). Sessions beyond the bound queue FIFO on a condition variable;
// nothing is rejected, only delayed — the morsel-driven pool keeps the
// machine saturated with the admitted set.
//
// The memory budget is *soft*: a query whose estimate alone exceeds the
// whole budget is admitted once nothing else is in flight (otherwise it
// could never run), which bounds overshoot to one oversized query.
//
// Waiting is cancellable: Admit takes an ExecContext, and a waiter whose
// context stops (cancellation, deadline, injected fault) abandons its
// queue position and returns an unadmitted ticket carrying the typed
// status. The wait set is an ordered set rather than a served-ticket
// counter precisely so an abandoning head waiter hands FIFO headship to
// the next arrival instead of deadlocking the queue.
#ifndef MCSORT_SERVICE_ADMISSION_H_
#define MCSORT_SERVICE_ADMISSION_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <set>

#include "mcsort/common/exec_context.h"

namespace mcsort {

struct AdmissionOptions {
  // Maximum queries executing concurrently (>= 1).
  int max_inflight = 4;
  // Soft scratch-memory budget across in-flight queries; 0 = unlimited.
  size_t memory_budget_bytes = 0;
};

class AdmissionController {
 public:
  explicit AdmissionController(const AdmissionOptions& options);

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  // RAII admission ticket; releases the slot and budget on destruction —
  // including every error path: a session that unwinds with a non-ok
  // Status (or throws past the ticket) frees its slot the moment the
  // ticket goes out of scope, never by an explicit call the error path
  // could skip.
  class Ticket {
   public:
    Ticket() = default;
    Ticket(Ticket&& other) noexcept { *this = std::move(other); }
    Ticket& operator=(Ticket&& other) noexcept;
    ~Ticket() { Release(); }
    void Release();
    bool admitted() const { return controller_ != nullptr; }
    // kOk when admitted; the stop code when the wait was abandoned.
    const Status& status() const { return status_; }
    // Seconds spent queued before admission (or before abandoning).
    double wait_seconds() const { return wait_seconds_; }

   private:
    friend class AdmissionController;
    AdmissionController* controller_ = nullptr;
    size_t bytes_ = 0;
    double wait_seconds_ = 0;
    Status status_;
  };

  // Blocks until a slot (and budget) frees up, FIFO. A stoppable `ctx`
  // turns the block into a poll: when the context stops, the waiter
  // abandons its place and the returned ticket is unadmitted with the
  // stop's status (check ticket.status()).
  Ticket Admit(size_t estimated_bytes,
               const ExecContext& ctx = ExecContext::Default());

  struct Stats {
    int inflight = 0;            // currently admitted
    size_t inflight_bytes = 0;   // their summed estimates
    int queue_depth = 0;         // currently waiting
    int peak_inflight = 0;
    int peak_queue_depth = 0;
    uint64_t admitted_total = 0;
    uint64_t abandoned_total = 0;  // waits given up on a stopped context
  };
  Stats GetStats() const;
  const AdmissionOptions& options() const { return options_; }

 private:
  void Release(size_t bytes);

  AdmissionOptions options_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  uint64_t next_ticket_ = 0;     // FIFO order: issued on arrival
  std::set<uint64_t> waiting_;   // arrival order of everyone still queued;
                                 // *begin() is the FIFO head
  int inflight_ = 0;
  size_t inflight_bytes_ = 0;
  int peak_inflight_ = 0;
  int peak_queue_depth_ = 0;
  uint64_t admitted_total_ = 0;
  uint64_t abandoned_total_ = 0;
};

}  // namespace mcsort

#endif  // MCSORT_SERVICE_ADMISSION_H_
