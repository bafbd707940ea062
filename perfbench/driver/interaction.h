#ifndef PERFBENCH_DRIVER_INTERACTION_H_
#define PERFBENCH_DRIVER_INTERACTION_H_

#include <functional>
#include <string>
#include <vector>

#include "core/dvms.h"
#include "driver/stats.h"
#include "driver/util.h"

namespace perfbench {

/// What distinguishes one interaction workload (Fig. 1 brush, Fig. 2 drag)
/// from another; RunInteraction drives both the same way.
struct InteractionSpec {
  /// Pinned options plus the workload's canvas and thread count.
  dvms::Dvms::Options options;
  /// Creates the base tables, loads the data and the DeVIL program.
  std::function<dvms::Status(dvms::Dvms&)> load;
  /// The DeVIL program (its EVENT statement feeds the standalone
  /// recognizer of the traced run).
  std::string program;
  /// Compound-event table the gestures fill.
  std::string event_table;
  /// Warm-up gestures first, then the timed ones: whole gestures that make
  /// whole slices of slice_events events.
  std::vector<dvms::InputEvent> events;
  size_t warmup_events = 0;
  size_t slice_events = 0;
  /// Checks the engine's outputs right after event `i`; "" when correct.
  std::function<std::string(dvms::Dvms&, size_t)> check;
  /// Also compare the final pixels with a non-durable replay.
  bool replay_pixels = false;
  /// Builds whose best is setup_s (more when one build is short).
  size_t setup_builds = 5;
};

RunResult RunInteraction(const RunConfig& config, const InteractionSpec& spec);

/// Slices in the timed phase: enough for `seconds` at the workload's
/// nominal rate on the reference host, and for the p99 reporting rule
/// (1,000 ops), and at least kMinSlices.
size_t TimedSlices(int seconds, double nominal_ops_per_s, size_t slice_ops);

/// Fewest timed slices: the best slice needs enough of them that some fall
/// where the shared host leaves the client's CPU undisturbed.
inline constexpr size_t kMinSlices = 12;

/// Paper §3.3: an interaction should complete within 100 ms.
inline constexpr double kBudgetMs = 100.0;

/// Adds the latency summary of one op population: `<prefix>_p50_ms` (the
/// caller's figure over the run's slices), `<prefix>_p99_ms` (nearest rank
/// over all samples `ms`) and the sample count `<prefix>_samples`. Fails
/// the run when the sample is too small for a p99 under the reporting rule.
void AddLatency(RunResult* result, const std::string& prefix, double p50_ms,
                const std::vector<double>& ms);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_INTERACTION_H_
