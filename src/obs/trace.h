#ifndef DVMS_OBS_TRACE_H_
#define DVMS_OBS_TRACE_H_

/// Low-overhead tracing/metrics layer (the PR-4 observability subsystem).
///
/// Design goals, in priority order:
///   1. Near-zero cost when disabled: every instrumentation site guards on
///      `obs::Enabled()`, a single relaxed atomic load. No locks, no
///      allocation, no clock reads on the disabled path.
///   2. Queryable from DeVIL itself: each read that names the system
///      relations `dvms_metrics` / `dvms_spans` builds them from a registry
///      snapshot (see SystemRelationRegistry in concurrency/snapshot.h),
///      dogfooding the paper's "everything is a relation" philosophy.
///   3. Rollback-consistent: a mutation unit that rolls back must not leak
///      counters or spans into `dvms_metrics` (mirrors how UnitState
///      restores `Stats`). `Save()` / `Restore()` capture and rewind the
///      whole registry, so the rollback re-render's own recording is
///      dropped with the failed unit's.
///
/// Span parents follow the calling thread's RequestContext (its innermost
/// open span), which ThreadPool carries onto pool workers, so a span opened
/// in a morsel is a child of the span that submitted the ParallelFor.
///
/// Only standard-library dependencies on purpose: common/thread_pool.cc,
/// events/nfa.cc and durability/wal.cc all include this header.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace dvms {
namespace obs {

/// ---- enablement -------------------------------------------------------

/// True when tracing is on for this process. The hot-path guard: one
/// relaxed atomic load.
bool Enabled();

/// Turns process-wide tracing on/off (Dvms::Options::trace and the
/// DVMS_TRACE env var both route here).
void SetEnabled(bool on);

/// Reads DVMS_TRACE ("1"/"true"/"on", case-insensitive) once and enables
/// tracing if set. Returns the resulting process-wide state.
bool InitFromEnv();

/// ---- recording --------------------------------------------------------

/// Adds `delta` to the named monotonic counter. No-op when disabled.
void Count(const char* name, uint64_t delta = 1);

/// Records one sample into the named histogram (count/sum/min/max + log2
/// buckets; percentiles are estimated from bucket midpoints). No-op when
/// disabled.
void Observe(const char* name, double value);

/// Steady-clock microseconds since process start (spans and EXPLAIN
/// ANALYZE share this clock).
int64_t NowMicros();

/// RAII span: records {id, parent, name, thread, start_us, dur_us} into a
/// bounded ring buffer on destruction. The parent is the innermost span
/// open on the calling thread's RequestContext. When tracing is disabled at
/// construction the span is inert (no clock read, nothing recorded at
/// destruction).
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;  // nullptr == inert
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  int64_t start_us_ = 0;
};

/// ---- snapshots (feed dvms_metrics / dvms_spans) ------------------------

struct MetricRow {
  std::string name;
  std::string kind;  // "counter" | "histogram"
  uint64_t count = 0;
  double sum = 0;
  // Histogram-only; NaN for counters (rendered as NULL in dvms_metrics).
  double min = 0;
  double max = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
};

struct SpanRow {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 == root
  std::string name;
  uint64_t thread = 0;  // small dense id, not the OS tid
  int64_t start_us = 0;
  int64_t dur_us = 0;
};

/// Rows sorted by name. Includes every counter/histogram touched since
/// startup (or the last ResetForTesting), even if tracing is now off.
std::vector<MetricRow> SnapshotMetrics();

/// The span ring's contents in completion order (oldest first). Bounded:
/// at most kSpanRingCapacity most-recent spans are retained.
std::vector<SpanRow> SnapshotSpans();

inline constexpr size_t kSpanRingCapacity = 8192;

/// ---- rollback integration ---------------------------------------------

/// Opaque registry checkpoint. Cheap relative to a mutation unit: copies
/// the counter/histogram maps and remembers the span ring position.
struct SavedState {
  struct Counter {
    std::string name;
    uint64_t value;
  };
  struct Histo {
    std::string name;
    std::string payload;  // packed internal state
  };
  std::vector<Counter> counters;
  std::vector<Histo> histos;
  uint64_t spans_end = 0;  // ring sequence number at capture
  bool valid = false;
};

/// Captures the registry (for UnitState). Cheap no-op ({} with
/// valid=false) when tracing is disabled.
SavedState Save();

/// Rewinds the registry to `s`: counters/histograms revert to their saved
/// values and spans completed after the capture are dropped from the ring.
/// Metrics first touched after the capture are removed entirely. No-op if
/// !s.valid.
void Restore(const SavedState& s);

/// Test hook: clears every counter, histogram and span.
void ResetForTesting();

}  // namespace obs
}  // namespace dvms

#endif  // DVMS_OBS_TRACE_H_
