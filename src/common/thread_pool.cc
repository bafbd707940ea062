#include "common/thread_pool.h"

#include <atomic>
#include <cstdlib>
#include <string>

#include "common/fault.h"
#include "common/request_context.h"
#include "obs/trace.h"

namespace dvms {

namespace {

/// True while the current thread is executing inside a ParallelFor; nested
/// parallel regions degrade to inline execution instead of deadlocking the
/// pool on itself.
thread_local bool t_in_parallel_region = false;

}  // namespace

size_t MorselCount(size_t total, size_t grain) {
  if (total == 0) return 0;
  if (grain == 0) grain = 1;
  return (total + grain - 1) / grain;
}

MorselRange MorselAt(size_t total, size_t grain, size_t index) {
  if (grain == 0) grain = 1;
  size_t begin = index * grain;
  size_t end = begin + grain;
  if (end > total) end = total;
  return {index, begin, end};
}

size_t ThreadPool::DefaultThreadCount() {
  const char* env = std::getenv("DVMS_THREADS");
  if (env != nullptr && *env != '\0') {
    char* end = nullptr;
    long parsed = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && parsed > 0) {
      return static_cast<size_t>(parsed);
    }
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

ThreadPool* ThreadPool::Global() {
  static ThreadPool pool(DefaultThreadCount());
  return &pool;
}

ThreadPool::ThreadPool(size_t parallelism) {
  size_t workers = parallelism > 1 ? parallelism - 1 : 0;
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.back());
      queue_.pop_back();
    }
    task();
  }
}

/// Shared state for one ParallelFor call. Lives on the caller's stack; the
/// caller does not return until `joined` participants reach `expected`, so
/// worker tasks never outlive it.
struct ThreadPool::ForState {
  size_t total = 0;
  size_t grain = 1;
  const MorselFn* fn = nullptr;
  /// The submitting thread's request context, installed around each
  /// participant: pool work runs as part of the submitter's request (its
  /// governor envelope, internal flag and open span).
  RequestContext request;

  /// Per-participant contiguous run of morsel indices. `next` is bumped by
  /// the owner and by thieves; claims at or past `end` are no-ops.
  struct Segment {
    std::atomic<size_t> next{0};
    size_t end = 0;
  };
  std::vector<Segment> segments;

  std::mutex done_mu;
  std::condition_variable done_cv;
  size_t joined = 0;
  size_t expected = 0;
};

void ThreadPool::RunParticipant(ForState* state, size_t self) {
  t_in_parallel_region = true;
  RequestContextSwap request(state->request);
  auto run = [state](size_t morsel) {
    // Transient task-start faults are absorbed here with bounded retry:
    // the morsel then runs exactly once, so results stay bit-identical.
    fault::RetryTransient(FaultSite::kThreadPoolTask, 3);
    (*state->fn)(MorselAt(state->total, state->grain, morsel));
  };
  // Drain the participant's own segment.
  ForState::Segment& own = state->segments[self];
  for (size_t i = own.next.fetch_add(1); i < own.end; i = own.next.fetch_add(1)) {
    run(i);
  }
  // Steal: sweep the other segments until a full pass finds no morsel left.
  const size_t p = state->segments.size();
  size_t stolen = 0;
  bool found = true;
  while (found) {
    found = false;
    for (size_t k = 1; k < p; ++k) {
      ForState::Segment& victim = state->segments[(self + k) % p];
      size_t i = victim.next.fetch_add(1);
      if (i < victim.end) {
        run(i);
        found = true;
        ++stolen;
      }
    }
  }
  if (stolen > 0) obs::Count("pool.steals", stolen);
  t_in_parallel_region = false;
}

void ThreadPool::ParallelFor(size_t total, size_t grain, size_t max_threads,
                             const MorselFn& fn) {
  size_t morsels = MorselCount(total, grain);
  if (morsels == 0) return;
  if (obs::Enabled()) {
    obs::Count("pool.parallel_fors");
    obs::Count("pool.morsels", morsels);
  }
  size_t parallelism = num_threads();
  if (max_threads != 0 && max_threads < parallelism) parallelism = max_threads;
  if (parallelism > morsels) parallelism = morsels;
  if (parallelism <= 1 || t_in_parallel_region) {
    for (size_t i = 0; i < morsels; ++i) {
      fault::RetryTransient(FaultSite::kThreadPoolTask, 3);
      fn(MorselAt(total, grain, i));
    }
    return;
  }

  ForState state;
  state.total = total;
  state.grain = grain == 0 ? 1 : grain;
  state.fn = &fn;
  state.request = CurrentRequest();
  state.segments = std::vector<ForState::Segment>(parallelism);
  // Contiguous partition of morsel indices: participant i owns
  // [i*per + min(i, extra), ...) — balanced to within one morsel.
  size_t per = morsels / parallelism;
  size_t extra = morsels % parallelism;
  size_t cursor = 0;
  for (size_t i = 0; i < parallelism; ++i) {
    size_t len = per + (i < extra ? 1 : 0);
    state.segments[i].next.store(cursor, std::memory_order_relaxed);
    state.segments[i].end = cursor + len;
    cursor += len;
  }
  state.expected = parallelism - 1;

  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 1; i < parallelism; ++i) {
      queue_.emplace_back([&state, i] {
        RunParticipant(&state, i);
        // Notify while holding done_mu: the caller (who owns `state` on its
        // stack) can only observe joined == expected under the mutex, i.e.
        // after this worker's notify has finished touching the cv — so the
        // ForState never dies under a signaling thread.
        std::lock_guard<std::mutex> done_lock(state.done_mu);
        ++state.joined;
        state.done_cv.notify_one();
      });
    }
    // Depth after this enqueue: backlog the workers are facing. The obs
    // registry lock is a leaf, so taking it under mu_ cannot deadlock.
    if (obs::Enabled()) {
      obs::Observe("pool.queue_depth", static_cast<double>(queue_.size()));
    }
  }
  cv_.notify_all();

  RunParticipant(&state, 0);

  std::unique_lock<std::mutex> done_lock(state.done_mu);
  state.done_cv.wait(done_lock,
                     [&state] { return state.joined == state.expected; });
}

}  // namespace dvms
