#ifndef DVMS_DURABILITY_SNAPSHOT_H_
#define DVMS_DURABILITY_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "durability/codec.h"
#include "events/nfa.h"
#include "storage/versioned_table.h"
#include "streaming/scheduler.h"

namespace dvms {

/// A point-in-time image of the engine at `last_lsn`, from which recovery
/// resumes without replaying the whole interaction log.
///
/// Compiled artifacts (bound plans, NFAs, optimizer cubes, trace defs) are
/// never serialized: the snapshot carries the *definition subsequence* of
/// the log (encoded WalRecords, in log order) and restore re-executes it
/// through the normal DDL path, then overlays the physical state below —
/// so a snapshot stays valid across changes to planner internals, and
/// restore exercises exactly the production compilation code.
///
/// Payload v2 leads with a table pool holding each distinct encoded table
/// once (deduplicated by pointer, then by exact bytes); relation versions
/// and undo entries are u32 pool indexes, and decoding shares one TablePtr
/// per pool entry. v1 payloads (every table inline) still decode.
struct EngineSnapshot {
  uint64_t last_lsn = 0;

  /// Encoded definition WalRecords (WalRecord::IsDefinition()), log order.
  std::vector<std::string> definition_ops;

  /// Physical per-relation state, in catalog creation order. Overlaid after
  /// definition replay; every name must exist by then.
  struct RelationState {
    std::string name;
    VersionedTable::DurableState state;
  };
  std::vector<RelationState> relations;

  /// NFA runtime states in recognizer entry order (deterministic given the
  /// same definition sequence).
  std::vector<PatternMatcher::SavedState> matchers;

  /// Mirror of Dvms::Stats (not included directly to keep durability/
  /// independent of core/).
  struct Counters {
    uint64_t events_processed = 0;
    uint64_t transactions_started = 0;
    uint64_t transactions_committed = 0;
    uint64_t transactions_aborted = 0;
    uint64_t renders = 0;
    uint64_t trace_recomputes = 0;
    uint64_t interactions_rolled_back = 0;
  };
  Counters counters;

  /// Interaction-level undo history: one entry per committed interaction
  /// (oldest first), each a name-sorted set of base/event relation images.
  /// The images are the relations' shared TablePtrs, so an unchanged
  /// relation is one pool entry however many entries name it.
  std::vector<std::vector<std::pair<std::string, TablePtr>>> undo_history;
  uint64_t undo_cursor = 0;

  bool has_scheduler = false;
  StreamScheduler::DurableState scheduler;
};

std::string EncodeEngineSnapshot(const EngineSnapshot& snapshot);
Result<EngineSnapshot> DecodeEngineSnapshot(const std::string& payload);

// ---- Sub-codecs (exposed for tests) ----

/// One relation state, standalone: its own table pool, then the state with
/// pool indexes (the layout a v2 engine payload uses with one shared pool).
void EncodeVersionedTableState(const VersionedTable::DurableState& s,
                               BinaryWriter* w);
Result<VersionedTable::DurableState> DecodeVersionedTableState(BinaryReader* r);

void EncodeMatcherState(const PatternMatcher::SavedState& s, BinaryWriter* w);
Result<PatternMatcher::SavedState> DecodeMatcherState(BinaryReader* r);

void EncodeSchedulerState(const StreamScheduler::DurableState& s,
                          BinaryWriter* w);
Result<StreamScheduler::DurableState> DecodeSchedulerState(BinaryReader* r);

}  // namespace dvms

#endif  // DVMS_DURABILITY_SNAPSHOT_H_
