#ifndef DVMS_CORE_SESSION_H_
#define DVMS_CORE_SESSION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "core/dvms.h"

namespace dvms {

/// A lightweight client handle for concurrent snapshot-isolated reads —
/// the thin session layer in front of the multi-session server.
///
/// Each session carries its own governor envelope (cancel flag plus
/// optional deadline/memory overrides), its own event-stream cursors, and
/// an optional pinned snapshot epoch. Session::Query never acquires the
/// engine write mutex: it executes against an immutable published epoch,
/// concurrently and lock-free with respect to every other session, while
/// mutation units on the engine keep their serialized commit order. It is
/// the engine's only read path: Dvms::Query runs through an internal
/// session that shares the engine's cancel flag.
///
/// Reads are snapshot-isolated: an unpinned query sees the latest epoch
/// published before it started (and never a mid-mutation or rolled-back
/// state); after Pin(), every query sees the pinned epoch until Unpin(),
/// regardless of concurrent commits. The epoch of each read is recorded
/// (last_read_epoch) as the prefix-consistency witness the linearizability
/// harness checks against a serial replay.
///
/// One session serves one client: its methods are not themselves
/// thread-safe (use one Session per thread), except RequestCancel, which
/// any thread may call. Mutations still go through the engine's public
/// entry points. The engine must outlive its sessions.
class Session {
 public:
  struct Options {
    /// Per-query deadline in ms; -1 inherits the engine's governor
    /// deadline, 0 disables it for this session.
    int64_t deadline_ms = -1;
    /// Per-query transient-memory budget in bytes; -1 inherits, 0 disables.
    int64_t mem_budget = -1;
    /// External cancel token adopted by this session instead of allocating
    /// a private flag — the cluster router's per-request context shares one
    /// token into every attempt session it opens, so cancelling the routed
    /// request aborts whichever endpoint's read is currently in flight.
    /// Raising the token behaves exactly like RequestCancel(); an abort
    /// consumes (lowers) it. nullptr = private flag.
    std::shared_ptr<std::atomic<bool>> cancel_flag;
  };

  explicit Session(Dvms* engine);
  Session(Dvms* engine, Options options);
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Snapshot-isolated read (SELECT / EXPLAIN [ANALYZE]). Runs against the
  /// pinned epoch if one is set, else the latest published epoch; system
  /// relations (dvms_metrics, dvms_governor, ...) are built fresh from
  /// thread-safe state for the statement that names them, whether in FROM,
  /// a FROM subquery, or `x IN <relation>`.
  Result<Table> Query(const std::string& select_sql);

  /// Pins the latest published epoch: until Unpin(), every Query executes
  /// against it and the epoch cannot be garbage-collected. Re-pinning
  /// moves the pin to the latest epoch.
  Status Pin();
  void Unpin();
  bool pinned() const { return pinned_ != nullptr; }
  uint64_t pinned_epoch() const {
    return pinned_ == nullptr ? 0 : pinned_->epoch();
  }

  /// Epoch the most recent Query executed against (the linearizability
  /// witness); 0 before the first read.
  uint64_t last_read_epoch() const { return last_read_epoch_; }

  /// Aborts this session's in-flight (or next) query at its next governor
  /// checkpoint with kCancelled. Callable from any thread; other sessions
  /// and engine mutations are unaffected.
  void RequestCancel() {
    cancel_->store(true, std::memory_order_relaxed);
  }

  /// Event-stream cursor: rows of `relation` appended since this session's
  /// previous PollEvents(relation) call, at the epoch a Query would see
  /// (pinned or latest). If the relation shrank (undo / rollback), the
  /// cursor resets to its new end and an empty batch is returned.
  Result<Table> PollEvents(const std::string& relation);

  /// Releases the pinned epoch (making it GC-eligible) and the session's
  /// governor state. Idempotent; later calls on the session error.
  void Close();
  bool closed() const { return closed_; }

 private:
  friend class Dvms;

  Dvms* engine_;
  Options options_;
  std::shared_ptr<std::atomic<bool>> cancel_;
  SnapshotPtr pinned_;
  uint64_t last_read_epoch_ = 0;
  std::unordered_map<std::string, size_t> event_cursors_;  // IdentKey -> rows
  bool closed_ = false;
};

}  // namespace dvms

#endif  // DVMS_CORE_SESSION_H_
