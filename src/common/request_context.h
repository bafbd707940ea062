#ifndef DVMS_COMMON_REQUEST_CONTEXT_H_
#define DVMS_COMMON_REQUEST_CONTEXT_H_

#include <cstdint>

namespace dvms {

class QueryContext;

/// The state of the request the calling thread is working on. One per
/// thread: concurrent snapshot readers and the serialized writer each see
/// their own. ThreadPool::ParallelFor copies the submitter's whole context
/// onto every participant, so morsel work runs as part of the request that
/// fanned it out: under its governor envelope, with its internal flag, and
/// with spans parented to its innermost open span.
struct RequestContext {
  /// Governor envelope (deadline, cancel flag, memory budget) that
  /// governor::CheckPoint() / ChargeMemory() consult; nullptr = ungoverned.
  QueryContext* query = nullptr;
  /// Depth of open InternalScopes. While positive the thread runs
  /// engine-internal work (recovery and replica replay, promotion,
  /// rollback, cleanup): faults are not injected, governor checks and
  /// charges are skipped, entry points skip admission, log nothing and do
  /// not publish per record, and writes are allowed on a replica.
  int internal = 0;
  /// Innermost open obs::Span id; 0 = root.
  uint64_t span = 0;
  /// Nesting depth of public Dvms entry points (Execute -> Insert,
  /// PushEvents -> PushEvent, auto_render -> Render): nested calls join
  /// the outermost request instead of being admitted and governed again.
  int entry_depth = 0;

  bool is_internal() const { return internal > 0; }
};

namespace request_detail {
// constinit lets every translation unit read it without a TLS init call.
extern constinit thread_local RequestContext t_request;
}  // namespace request_detail

/// The calling thread's request context.
inline RequestContext& CurrentRequest() { return request_detail::t_request; }

/// RAII: installs `ctx` as the calling thread's whole request context and
/// restores the previous one on destruction.
class RequestContextSwap {
 public:
  explicit RequestContextSwap(const RequestContext& ctx)
      : prev_(CurrentRequest()) {
    CurrentRequest() = ctx;
  }
  ~RequestContextSwap() { CurrentRequest() = prev_; }
  RequestContextSwap(const RequestContextSwap&) = delete;
  RequestContextSwap& operator=(const RequestContextSwap&) = delete;

 private:
  RequestContext prev_;
};

/// RAII: marks the calling thread's request as engine-internal while alive
/// (see RequestContext::internal). The code undoing or replaying work must
/// not itself be faulted, aborted, admitted or re-logged.
class InternalScope {
 public:
  InternalScope() { ++CurrentRequest().internal; }
  ~InternalScope() { --CurrentRequest().internal; }
  InternalScope(const InternalScope&) = delete;
  InternalScope& operator=(const InternalScope&) = delete;
};

}  // namespace dvms

#endif  // DVMS_COMMON_REQUEST_CONTEXT_H_
