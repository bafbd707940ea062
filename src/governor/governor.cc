#include "governor/governor.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace dvms {
namespace {

int64_t SteadyNowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Fail-loud env parsing (same rationale as DVMS_FAULTS): a governor knob
// that silently parses to zero would leave the process unprotected while
// the operator believes it is governed.
int64_t EnvInt64OrDie(const char* name) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || raw[0] == '\0') return 0;
  char* end = nullptr;
  long long v = std::strtoll(raw, &end, 10);
  if (end == raw || *end != '\0' || v < 0) {
    std::fprintf(stderr, "dvms: invalid %s=\"%s\" (expected a non-negative integer)\n",
                 name, raw);
    std::abort();
  }
  return static_cast<int64_t>(v);
}

}  // namespace

QueryContext::QueryContext() = default;

void QueryContext::ArmDeadline(int64_t deadline_ms, Clock clock) {
  if (deadline_ms <= 0) return;
  clock_ = clock ? std::move(clock) : Clock(&SteadyNowMicros);
  deadline_us_ = clock_() + deadline_ms * 1000;
}

void QueryContext::ArmMemoryBudget(int64_t budget_bytes) {
  if (budget_bytes <= 0) return;
  budget_bytes_ = budget_bytes;
}

void QueryContext::ShareCancelFlag(std::shared_ptr<std::atomic<bool>> flag) {
  cancel_ = std::move(flag);
}

Status QueryContext::Abort(StatusCode code, const char* what) {
  // First violation wins; later checks re-report it so every morsel on
  // every worker unwinds with the same terminal status.
  int expected = static_cast<int>(StatusCode::kOk);
  abort_code_.compare_exchange_strong(expected, static_cast<int>(code),
                                      std::memory_order_relaxed);
  return Status(abort_code(), what);
}

Status QueryContext::Check() {
  checks_.fetch_add(1, std::memory_order_relaxed);
  int aborted = abort_code_.load(std::memory_order_relaxed);
  if (aborted != static_cast<int>(StatusCode::kOk)) {
    return Status(static_cast<StatusCode>(aborted), "request aborted");
  }
  if (cancel_ && cancel_->load(std::memory_order_relaxed)) {
    return Abort(StatusCode::kCancelled, "request cancelled");
  }
  if (deadline_us_ != INT64_MAX && clock_() >= deadline_us_) {
    return Abort(StatusCode::kDeadlineExceeded, "deadline exceeded");
  }
  return Status::OK();
}

Status QueryContext::Charge(int64_t bytes) {
  if (bytes <= 0) return Status::OK();
  int64_t now =
      charged_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  int64_t peak = peak_.load(std::memory_order_relaxed);
  while (now > peak &&
         !peak_.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
  }
  // Sticky abort first (the charge above is still recorded so peak
  // accounting matches allocation order while workers unwind).
  int aborted = abort_code_.load(std::memory_order_relaxed);
  if (aborted != static_cast<int>(StatusCode::kOk)) {
    return Status(static_cast<StatusCode>(aborted), "request aborted");
  }
  if (now > budget_bytes_) {
    return Abort(StatusCode::kResourceExhausted, "memory budget exceeded");
  }
  return Status::OK();
}

void QueryContext::Release(int64_t bytes) {
  if (bytes <= 0) return;
  charged_.fetch_sub(bytes, std::memory_order_relaxed);
}

namespace governor {

Status CheckPoint() {
  const RequestContext& request = CurrentRequest();
  if (request.query == nullptr || request.is_internal()) return Status::OK();
  return request.query->Check();
}

Status ChargeMemory(int64_t bytes) {
  const RequestContext& request = CurrentRequest();
  if (request.query == nullptr || request.is_internal()) return Status::OK();
  return request.query->Charge(bytes);
}

void ReleaseMemory(int64_t bytes) {
  const RequestContext& request = CurrentRequest();
  if (request.query == nullptr || request.is_internal()) return;
  request.query->Release(bytes);
}

}  // namespace governor

Status AdmissionGate::Enter() {
  std::unique_lock<std::mutex> lock(mu_);
  auto has_slot = [this] {
    return in_flight_.load(std::memory_order_relaxed) < max_inflight_;
  };
  if (!has_slot()) {
    if (queue_us_ <= 0 ||
        !cv_.wait_for(lock, std::chrono::microseconds(queue_us_), has_slot)) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return Status::ResourceExhausted(
          "admission rejected: " + std::to_string(max_inflight_) +
          " requests already in flight");
    }
  }
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  admitted_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

void AdmissionGate::Leave() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
  }
  cv_.notify_one();
}

void GovernorConfig::FromEnv() {
  if (deadline_ms == 0) deadline_ms = EnvInt64OrDie("DVMS_DEADLINE_MS");
  if (mem_budget == 0) mem_budget = EnvInt64OrDie("DVMS_MEM_BUDGET");
  if (max_inflight == 0) {
    max_inflight = static_cast<int>(EnvInt64OrDie("DVMS_MAX_INFLIGHT"));
  }
  if (queue_ms == 0) queue_ms = EnvInt64OrDie("DVMS_QUEUE_MS");
  if (max_readers == 0) {
    max_readers = static_cast<int>(EnvInt64OrDie("DVMS_MAX_READERS"));
  }
}

}  // namespace dvms
