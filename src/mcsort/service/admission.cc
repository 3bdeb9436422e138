#include "mcsort/service/admission.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "mcsort/common/logging.h"
#include "mcsort/common/timer.h"

namespace mcsort {

AdmissionController::AdmissionController(const AdmissionOptions& options)
    : options_(options) {
  MCSORT_CHECK(options_.max_inflight >= 1);
}

AdmissionController::Ticket& AdmissionController::Ticket::operator=(
    Ticket&& other) noexcept {
  if (this != &other) {
    Release();
    controller_ = std::exchange(other.controller_, nullptr);
    bytes_ = other.bytes_;
    wait_seconds_ = other.wait_seconds_;
    status_ = std::move(other.status_);
  }
  return *this;
}

void AdmissionController::Ticket::Release() {
  if (controller_ != nullptr) {
    controller_->Release(bytes_);
    controller_ = nullptr;
  }
}

AdmissionController::Ticket AdmissionController::Admit(
    size_t estimated_bytes, const ExecContext& ctx) {
  Timer timer;
  const bool stoppable = ctx.stoppable();
  std::unique_lock<std::mutex> lock(mu_);
  const uint64_t my_turn = next_ticket_++;
  waiting_.insert(my_turn);
  peak_queue_depth_ =
      std::max(peak_queue_depth_, static_cast<int>(waiting_.size()));
  const auto runnable = [&] {
    // FIFO: only the oldest waiter is admitted, once a slot and (soft)
    // budget are free. A query bigger than the whole budget is admitted
    // when it is alone, so it cannot starve.
    if (*waiting_.begin() != my_turn) return false;
    if (inflight_ >= options_.max_inflight) return false;
    if (options_.memory_budget_bytes > 0 && inflight_ > 0 &&
        inflight_bytes_ + estimated_bytes > options_.memory_budget_bytes) {
      return false;
    }
    return true;
  };
  while (!runnable()) {
    if (stoppable) {
      if (ctx.StopRequested()) {
        // Abandon: drop out of the wait set so headship passes to the
        // next arrival, and report the stop instead of a slot.
        waiting_.erase(my_turn);
        ++abandoned_total_;
        lock.unlock();
        cv_.notify_all();
        Ticket ticket;
        ticket.status_ = ctx.StopStatus();
        ticket.wait_seconds_ = timer.Seconds();
        return ticket;
      }
      // Bounded naps instead of an open-ended wait: the stop flag has no
      // condition variable hooked to it, so abandon latency is one nap.
      cv_.wait_for(lock, std::chrono::milliseconds(1));
    } else {
      cv_.wait(lock);
    }
  }
  waiting_.erase(my_turn);
  ++inflight_;
  inflight_bytes_ += estimated_bytes;
  peak_inflight_ = std::max(peak_inflight_, inflight_);
  ++admitted_total_;
  lock.unlock();
  // Wake the next-in-line waiter (it may also be runnable now).
  cv_.notify_all();

  Ticket ticket;
  ticket.controller_ = this;
  ticket.bytes_ = estimated_bytes;
  ticket.wait_seconds_ = timer.Seconds();
  return ticket;
}

void AdmissionController::Release(size_t bytes) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    --inflight_;
    inflight_bytes_ -= bytes;
  }
  cv_.notify_all();
}

AdmissionController::Stats AdmissionController::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats stats;
  stats.inflight = inflight_;
  stats.inflight_bytes = inflight_bytes_;
  stats.queue_depth = static_cast<int>(waiting_.size());
  stats.peak_inflight = peak_inflight_;
  stats.peak_queue_depth = peak_queue_depth_;
  stats.admitted_total = admitted_total_;
  stats.abandoned_total = abandoned_total_;
  return stats;
}

}  // namespace mcsort
