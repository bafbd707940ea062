#ifndef PERFBENCH_DRIVER_UTIL_H_
#define PERFBENCH_DRIVER_UTIL_H_

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <string>

#include "core/dvms.h"
#include "driver/stats.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// What one benchmark invocation runs.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string work_dir;   // scratch directory, created and removed by main
  std::string spans_out;  // where the traced run writes its spans
};

/// Committed frames between snapshots (automatic, or explicit in the traced
/// run's split mode).
inline constexpr uint64_t kSnapshotFrames = 64;

/// Engine options every workload pins: batched group commit (16 frames per
/// fsync), a snapshot every kSnapshotFrames frames, no fault injection, no
/// scrubber, no in-engine tracing, and no governor limits.
dvms::Dvms::Options PinnedOptions();

/// Deletes `dir` (if present) and creates it empty.
void ResetDir(const std::string& dir);
void RemoveDir(const std::string& dir);
/// Copies the regular files of a durability directory (snapshots are
/// hard-linked); false on any error.
bool CopyDir(const std::string& from, const std::string& to);

/// Bytes of WAL segments plus snapshots in a durability directory.
uint64_t DurableBytes(const std::string& dir);
/// Size of the newest snapshot file in a durability directory (0 if none).
uint64_t NewestSnapshotBytes(const std::string& dir);

/// Sums WAL fsyncs across segment rotations: durability_stats().fsyncs
/// counts the open segment's writer only and restarts after a snapshot
/// rotates the log. Fsyncs between the last sample and a rotation are
/// missed, so sample after every logged op.
class FsyncCounter {
 public:
  explicit FsyncCounter(uint64_t segment_fsyncs = 0) : last_(segment_fsyncs) {}
  void Sample(uint64_t segment_fsyncs) {
    total_ += segment_fsyncs >= last_ ? segment_fsyncs - last_ : segment_fsyncs;
    last_ = segment_fsyncs;
  }
  uint64_t total() const { return total_; }

 private:
  uint64_t last_;
  uint64_t total_ = 0;
};

/// Pins the calling thread, for the life of the object, to CPU number
/// `slice` modulo the count of CPUs the process may use, then restores the
/// thread's mask. On a shared host each CPU slows down on its own when a
/// neighbour loads it, for seconds to minutes; rotating a run's timed
/// slices over every CPU makes the run sample all of them instead of
/// wherever the scheduler kept the thread. Threads started while pinned
/// inherit the pin, so only wrap work that starts none.
class CpuRotation {
 public:
  explicit CpuRotation(size_t slice);
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

/// Peak resident set size of this process, MiB (VmHWM).
double PeakRssMb();

inline constexpr double kMiB = 1024.0 * 1024.0;

/// Compares every non-system relation and the framebuffer of `got` with
/// `want`; "" when identical.
std::string CompareEngineState(dvms::Dvms& got, dvms::Dvms& want);

/// Cold-opens a copy of durability directory `dir` (made at `copy`, removed
/// afterwards) with `options` and returns the open time in seconds. A
/// failed recovery, or a state different from `live` when given, fails the
/// run; `replayed` receives the frames recovery replayed.
double TimedRecovery(dvms::Dvms::Options options, const std::string& dir,
                     const std::string& copy, dvms::Dvms* live,
                     RunResult* result, uint64_t* replayed = nullptr);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_UTIL_H_
