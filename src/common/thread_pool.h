#ifndef DVMS_COMMON_THREAD_POOL_H_
#define DVMS_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dvms {

/// One fixed-size chunk of a larger iteration space. Morsel boundaries are
/// a pure function of (total, grain) — never of thread count — so any
/// computation whose result depends on how work was chunked (e.g. partial
/// floating-point sums merged by morsel index) produces identical bits at
/// every thread count.
struct MorselRange {
  size_t index;  // 0-based morsel number
  size_t begin;  // first item (inclusive)
  size_t end;    // last item (exclusive)
};

/// Number of morsels covering [0, total) at `grain` items per morsel.
size_t MorselCount(size_t total, size_t grain);

/// The `index`-th morsel of [0, total) at `grain` items per morsel.
MorselRange MorselAt(size_t total, size_t grain, size_t index);

/// A work-stealing thread pool for morsel-driven parallel execution.
///
/// A pool of total parallelism N owns N-1 worker threads; the thread that
/// calls ParallelFor always participates as the N-th worker, so a pool of
/// size 1 runs everything inline with zero synchronization. Each
/// ParallelFor partitions its morsels into one contiguous segment per
/// participant; a participant first drains its own segment, then steals
/// morsels one at a time from the busiest-looking victim until no work
/// remains anywhere. Completion order is nondeterministic — callers that
/// need determinism index their outputs by MorselRange::index and merge
/// after ParallelFor returns.
class ThreadPool {
 public:
  /// `parallelism` is the total worker count including the caller; 0 and 1
  /// both mean "inline, no threads".
  explicit ThreadPool(size_t parallelism);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallelism including the calling thread.
  size_t num_threads() const { return workers_.size() + 1; }

  /// The process-default parallelism: the DVMS_THREADS environment
  /// variable when set to a positive integer, otherwise
  /// std::thread::hardware_concurrency() (at least 1).
  static size_t DefaultThreadCount();

  /// Lazily constructed process-wide pool of DefaultThreadCount() threads.
  static ThreadPool* Global();

  using MorselFn = std::function<void(const MorselRange&)>;

  /// Runs `fn` once per morsel of [0, total) split at `grain` items.
  /// Blocks until every morsel has run. `max_threads` caps the number of
  /// participants (0 = use the whole pool); with an effective parallelism
  /// of 1 — or when called from inside another ParallelFor — all morsels
  /// run inline on the calling thread in index order. Every participant
  /// runs under a copy of the caller's RequestContext, so morsels belong to
  /// the caller's request. `fn` must not throw.
  void ParallelFor(size_t total, size_t grain, size_t max_threads,
                   const MorselFn& fn);

 private:
  struct ForState;

  void WorkerLoop();
  static void RunParticipant(ForState* state, size_t self);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::function<void()>> queue_;
  bool stop_ = false;
};

}  // namespace dvms

#endif  // DVMS_COMMON_THREAD_POOL_H_
