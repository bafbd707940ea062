#ifndef DVMS_GOVERNOR_GOVERNOR_H_
#define DVMS_GOVERNOR_GOVERNOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "common/request_context.h"
#include "common/status.h"

namespace dvms {

/// Per-request resource envelope: an absolute deadline on an injectable
/// clock, a cancel flag another thread may raise, and a transient-memory
/// budget. A request installs its QueryContext in the calling thread's
/// RequestContext (concurrent snapshot readers each govern their own
/// request); work that fans out onto pool threads carries the submitter's
/// RequestContext through ThreadPool::ParallelFor and reads the envelope
/// through governor::CheckPoint() / ChargeMemory().
///
/// All hot-path members are relaxed atomics: a check is one thread-local
/// load of the installed pointer (nullptr when unarmed) plus, when armed,
/// a cancel-flag load and a clock read.
class QueryContext {
 public:
  using Clock = std::function<int64_t()>;  // microseconds, monotonic

  QueryContext();

  /// Arms the deadline `deadline_ms` milliseconds from now on `clock`
  /// (nullptr = steady clock). 0 disables the deadline.
  void ArmDeadline(int64_t deadline_ms, Clock clock);
  /// Arms the transient-memory budget in bytes. 0 disables it.
  void ArmMemoryBudget(int64_t budget_bytes);
  /// Shares `flag` as the cancel flag (raised by Dvms::RequestCancel from
  /// any thread; observed by the next CheckPoint).
  void ShareCancelFlag(std::shared_ptr<std::atomic<bool>> flag);

  /// The cooperative check, called at bounded-work intervals (once per
  /// morsel / band / batch / ~1k inner-loop rows). Returns Cancelled,
  /// DeadlineExceeded, or ResourceExhausted on the first violated limit;
  /// the same terminal status on every later call (aborts are sticky so a
  /// request unwinds once, not per-morsel).
  Status Check();

  /// Charges `bytes` of request-transient memory against the budget.
  /// Returns ResourceExhausted once the running total would exceed it; the
  /// charge is still recorded so peak accounting matches allocation order.
  Status Charge(int64_t bytes);
  /// Returns previously charged bytes (scratch freed mid-request).
  void Release(int64_t bytes);

  int64_t charged_bytes() const {
    return charged_.load(std::memory_order_relaxed);
  }
  int64_t peak_bytes() const { return peak_.load(std::memory_order_relaxed); }
  uint64_t checkpoints() const {
    return checks_.load(std::memory_order_relaxed);
  }
  int64_t deadline_us() const { return deadline_us_; }
  int64_t budget_bytes() const { return budget_bytes_; }
  bool aborted() const {
    return abort_code_.load(std::memory_order_relaxed) !=
           static_cast<int>(StatusCode::kOk);
  }
  /// kOk when not aborted, else the sticky terminal code.
  StatusCode abort_code() const {
    return static_cast<StatusCode>(abort_code_.load(std::memory_order_relaxed));
  }

 private:
  Status Abort(StatusCode code, const char* what);

  Clock clock_;                       // set iff deadline armed
  int64_t deadline_us_ = INT64_MAX;   // absolute, on clock_
  int64_t budget_bytes_ = INT64_MAX;  // INT64_MAX = unlimited
  std::shared_ptr<std::atomic<bool>> cancel_;
  std::atomic<int64_t> charged_{0};
  std::atomic<int64_t> peak_{0};
  std::atomic<uint64_t> checks_{0};
  std::atomic<int> abort_code_{static_cast<int>(StatusCode::kOk)};
};

namespace governor {

/// Null-safe cooperative check against the calling thread's installed
/// QueryContext: one thread-local load when none is installed, skipped
/// inside an InternalScope (the code undoing an aborted request must not
/// itself be aborted). This is the call sites thread through inner loops.
Status CheckPoint();

/// Null-safe memory accounting against the installed context. Unarmed or
/// internal charges are free.
Status ChargeMemory(int64_t bytes);
void ReleaseMemory(int64_t bytes);

}  // namespace governor

/// RAII: installs a QueryContext in the calling thread's RequestContext for
/// the lifetime of a request and restores the previous one.
class GovernorRequestScope {
 public:
  explicit GovernorRequestScope(QueryContext* ctx)
      : prev_(std::exchange(CurrentRequest().query, ctx)) {}
  ~GovernorRequestScope() { CurrentRequest().query = prev_; }
  GovernorRequestScope(const GovernorRequestScope&) = delete;
  GovernorRequestScope& operator=(const GovernorRequestScope&) = delete;

 private:
  QueryContext* prev_;
};

/// Bounded in-flight admission: at most `max_inflight` requests execute at
/// once; excess arrivals wait up to `queue_us` and are then shed with
/// ResourceExhausted. Sheds load at the front door instead of letting the
/// engine mutex queue grow without bound.
class AdmissionGate {
 public:
  AdmissionGate(int max_inflight, int64_t queue_us)
      : max_inflight_(max_inflight), queue_us_(queue_us) {}

  /// Blocks until admitted or the queue wait expires. OK admits (caller
  /// must Leave()); ResourceExhausted sheds.
  Status Enter();
  void Leave();

  int64_t admitted() const {
    return admitted_.load(std::memory_order_relaxed);
  }
  int64_t rejected() const {
    return rejected_.load(std::memory_order_relaxed);
  }
  int in_flight() const { return in_flight_.load(std::memory_order_relaxed); }
  int max_inflight() const { return max_inflight_; }
  int64_t queue_us() const { return queue_us_; }

 private:
  const int max_inflight_;
  const int64_t queue_us_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::atomic<int> in_flight_{0};
  std::atomic<int64_t> admitted_{0};
  std::atomic<int64_t> rejected_{0};
};

/// Engine-level governor configuration, resolved from Dvms::Options with
/// DVMS_DEADLINE_MS / DVMS_MEM_BUDGET / DVMS_MAX_INFLIGHT / DVMS_QUEUE_MS /
/// DVMS_MAX_READERS environment fallbacks (see GovernorConfig::FromEnv).
struct GovernorConfig {
  int64_t deadline_ms = 0;   // 0 = no deadline
  int64_t mem_budget = 0;    // bytes; 0 = no budget
  int max_inflight = 0;      // mutation slots; 0 = no admission control
  int64_t queue_ms = 0;      // wait before shedding when at capacity
  int max_readers = 0;       // concurrent read slots; 0 = unlimited
  QueryContext::Clock clock; // injectable for tests; nullptr = steady clock

  bool armed() const {
    return deadline_ms > 0 || mem_budget > 0 || max_inflight > 0;
  }

  /// Overlays unset (zero) fields from the environment. A malformed value
  /// prints a diagnostic to stderr and aborts, mirroring DVMS_FAULTS: a
  /// typo silently disarming the governor would un-protect the process.
  void FromEnv();
};

}  // namespace dvms

#endif  // DVMS_GOVERNOR_GOVERNOR_H_
