#ifndef DVMS_CORE_DVMS_H_
#define DVMS_CORE_DVMS_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/fault.h"
#include "common/request_context.h"
#include "common/thread_pool.h"
#include "concurrency/snapshot.h"
#include "durability/log_record.h"
#include "durability/manager.h"
#include "durability/tailer.h"
#include "durability/snapshot.h"
#include "events/interaction.h"
#include "events/recognizer.h"
#include "expr/udf_registry.h"
#include "governor/governor.h"
#include "obs/trace.h"
#include "parser/ast.h"
#include "provenance/trace.h"
#include "query/maintenance.h"
#include "query/optimizer.h"
#include "render/pixels.h"
#include "render/rasterizer.h"
#include "render/scale.h"
#include "storage/catalog.h"
#include "streaming/scheduler.h"

namespace dvms {

class Session;

/// The Data Visualization Management System engine of Figure 3.
///
/// The Interaction Management engine translates DeVIL programs into a
/// visualization workflow (views + event patterns + traces), the Event
/// Recognizer matches low-level input against the compiled state machines,
/// the Executor recomputes affected views in dependency order, and marks
/// relations are rasterized into the pixels relation P after every
/// maintenance round.
class Dvms {
 public:
  struct Options {
    size_t canvas_width = 400;
    size_t canvas_height = 300;
    /// Eager row-level lineage on every view recompute (§3.1). Enables
    /// TraceEngine::Mode::kEager; lazy traces work either way.
    bool capture_lineage = false;
    /// Re-render marks views automatically after each event / insert.
    bool auto_render = true;
    /// Enable the Online Optimizer: crossfilter-shaped views refresh from
    /// precomputed marginal cubes instead of fact-table rescans. Ignored
    /// (off) while capture_lineage is set.
    bool enable_online_optimizer = true;
    /// Intra-query parallelism for view recomputation and rasterization.
    /// 0 = process default (DVMS_THREADS env var, else hardware
    /// concurrency) on the shared global pool; k > 0 = a dedicated pool of
    /// k threads owned by this engine (1 = fully serial). Query results
    /// and rendered pixels are bit-identical at every setting.
    size_t num_threads = 0;
    /// All-or-nothing statement batches: every mutating entry point
    /// (PushEvent / Insert / Delete / CreateScale / Undo / Redo / Render)
    /// arms an undo log and rolls the engine back to a bit-identical
    /// pre-call state on any mid-batch error (including injected faults).
    /// Off reproduces the pre-rollback engine for overhead benchmarking.
    bool transactional_rollback = true;
    /// Fault-injection spec `<seed>:<rate>[:site,...]` installed as the
    /// process injector for this engine's lifetime. Empty = the DVMS_FAULTS
    /// environment variable (or no injection when that is unset). A
    /// malformed spec is rejected loudly (stderr warning, injection off).
    std::string fault_spec;
    /// Durability directory for the interaction log and snapshots. Empty =
    /// the DVMS_DATA_DIR environment variable, or no durability when that
    /// is also unset. On construction the engine recovers from whatever
    /// the directory holds (see recovery_status()); every committed
    /// mutation unit is then appended to the log. One engine per
    /// directory.
    std::string data_dir;
    /// When log appends reach disk: "always" (default), "batch" (group
    /// commit), or "off". Empty = the DVMS_WAL_FSYNC environment variable.
    std::string wal_fsync;
    /// Committed frames between automatic snapshots; 0 disables automatic
    /// snapshotting (Checkpoint() still works).
    size_t snapshot_interval = 64;
    /// Open as a read replica of the engine whose durability directory is
    /// this path: bootstrap from its newest snapshot + log suffix, then
    /// continuously tail its WAL, publishing a fresh snapshot epoch after
    /// each applied batch. All mutating entry points return
    /// kReadOnlyReplica; reads (Query / Session / GetTable / EXPLAIN) serve
    /// the last applied state. Empty = the DVMS_REPLICA_OF environment
    /// variable, or primary mode. A replica ignores data_dir (it never
    /// writes the log); Promote() takes ownership of this directory.
    std::string replica_of;
    /// Replica tail-poll cadence in milliseconds. 0 = the
    /// DVMS_REPLICA_POLL_MS environment variable, or 5.
    int64_t replica_poll_ms = 0;
    /// Consecutive failed polls before the replica reports itself stale in
    /// dvms_replication. Staleness is a degraded mode, not a stop: the
    /// replica keeps serving its last applied epoch and keeps retrying with
    /// capped exponential backoff. 0 = DVMS_REPLICA_RETRY_BUDGET, or 8.
    int64_t replica_retry_budget = 0;
    /// Seed for the tail-poll jitter (see durability/tailer.h PollCadence):
    /// each wait is the poll cadence scaled by a seeded uniform draw in
    /// [0.5, 1.5) so N replicas of one primary don't poll in lockstep.
    /// 0 = a per-engine derived seed (distinct per replica in a process);
    /// set explicitly for deterministic schedules in tests.
    uint64_t replica_jitter_seed = 0;
    /// Background integrity-scrub cadence in milliseconds: a low-priority
    /// thread periodically re-reads the sealed WAL segments and snapshots,
    /// re-validating every checksum, so latent disk corruption is found
    /// while an intact snapshot still covers it — not at the next restart.
    /// 0 = the DVMS_SCRUB_MS environment variable, or no background
    /// scrubbing (ScrubNow() works either way).
    int64_t scrub_ms = 0;
    /// Enables the process-wide observability layer (src/obs): tracing
    /// spans + named counters/histograms across executor, IVM, raster,
    /// events, streaming, durability, and the thread pool, queryable as
    /// the system relations dvms_metrics / dvms_spans. The DVMS_TRACE
    /// environment variable also enables it; with both unset the
    /// instrumentation sites cost one relaxed atomic load each.
    bool trace = false;
    /// Per-request deadline in milliseconds; a request still running after
    /// this aborts cooperatively (within one morsel of work), rolls back
    /// via the mutation-unit undo, and returns kDeadlineExceeded. 0 = the
    /// DVMS_DEADLINE_MS environment variable, or no deadline.
    int64_t deadline_ms = 0;
    /// Per-request transient-memory budget in bytes (scan/join/sort/hash
    /// scratch, IVM marginals, decoded mark ops, matcher slots). A request
    /// whose charges exceed it aborts with kResourceExhausted instead of
    /// growing toward an OOM kill. 0 = DVMS_MEM_BUDGET, or no budget.
    int64_t mem_budget = 0;
    /// Admission control: at most this many requests execute at once;
    /// excess arrivals wait up to queue_ms and are then shed with
    /// kResourceExhausted. 0 = DVMS_MAX_INFLIGHT, or unbounded.
    int max_inflight = 0;
    /// How long an arrival may wait for an in-flight slot before being
    /// shed. 0 = DVMS_QUEUE_MS, or shed immediately at capacity.
    int64_t queue_ms = 0;
    /// Concurrent snapshot-read slots (Session queries and read-only
    /// Query/EXPLAIN calls). Readers are accounted separately from the
    /// max_inflight mutation slots so dashboards polling dvms_metrics can
    /// never starve interactions. 0 = DVMS_MAX_READERS, or unbounded.
    int max_readers = 0;
    /// Injectable governor clock (microseconds, monotonic) so deadline
    /// tests are deterministic. nullptr = steady clock.
    QueryContext::Clock governor_clock;
  };

  Dvms() : Dvms(Options()) {}
  explicit Dvms(Options options);
  ~Dvms();
  Dvms(const Dvms&) = delete;
  Dvms& operator=(const Dvms&) = delete;

  // ---- Data loading ----

  Status CreateBaseTable(const std::string& name, Schema schema);

  /// Appends rows and propagates the change through dependent views.
  Status Insert(const std::string& name, std::vector<Row> rows);

  /// Deletes rows matching `predicate` (all rows when null) from a base
  /// relation and propagates — §2.1.3's "removing marks is natively
  /// supported by removing data". Returns the number of rows removed.
  Result<size_t> Delete(const std::string& name, const ExprPtr& predicate);

  /// Creates/updates a single-row scale relation (see render/scale.h).
  Status CreateScale(const std::string& name, double domain_min,
                     double domain_max, double range_min, double range_max);

  /// Current contents of any relation.
  Result<const Table*> GetTable(const std::string& name) const;

  // ---- Programs ----

  /// Parses and executes a DeVIL program, then recomputes all views,
  /// commits the initial visualization state, and renders.
  Status LoadProgram(const std::string& source);

  /// Executes one pre-parsed statement.
  Status Execute(const Statement& statement);

  /// Ad-hoc query evaluation (not registered as a view). Accepts
  /// `SELECT ...` as well as `EXPLAIN [ANALYZE] SELECT ...`; the EXPLAIN
  /// forms return the plan report table (per-operator rows/time/morsels
  /// under ANALYZE) instead of the query result. Runs as a Session read of
  /// the latest published epoch — it never takes the write mutex — under
  /// the engine deadline, memory budget and cancel flag. System relations
  /// (dvms_metrics, dvms_spans, dvms_governor, dvms_replication,
  /// dvms_storage) are built fresh for the statement that names them.
  Result<Table> Query(const std::string& select_sql);

  // ---- Interaction loop ----

  /// Feeds one low-level input event through the Event Recognizer, runs
  /// view maintenance, manages transaction boundaries, and re-renders.
  Status PushEvent(const InputEvent& event);

  Status PushEvents(const std::vector<InputEvent>& events);

  // ---- Rendering ----

  /// Rasterizes every marks view (in definition order) into the pixel
  /// buffer.
  Status Render();

  const PixelBuffer& pixels() const { return pixels_; }

  // ---- Introspection / subsystem access ----

  Catalog* catalog() { return &catalog_; }
  const Catalog& catalog() const { return catalog_; }
  UdfRegistry* udfs() { return &udfs_; }
  ViewMaintainer* maintainer() { return &maintainer_; }
  TraceEngine* traces() { return &traces_; }
  EventRecognizer* recognizer() { return &recognizer_; }
  const CrossfilterOptimizer& optimizer() const { return optimizer_; }

  /// Static-analysis warnings over all defined interactions (ambiguity
  /// detection, Figure 3's Static Analysis box).
  std::vector<std::string> AnalyzeInteractions() const;

  /// The paper's merge(I1, I2): sequentially composes two defined event
  /// patterns into a new one named `merged_name` (with alias renaming on
  /// collision), creating its compound-event table. The developer then
  /// writes views over the merged stream, optionally reading I1's
  /// relations (its merge-function contract).
  Status ComposeInteractions(const std::string& first,
                             const std::string& second,
                             const std::string& merged_name);

  // ---- Undo / redo (§2.1.3: supported by the versioning semantics) ----

  /// Steps the visualization back one committed interaction: base and
  /// event relations are restored to the previous committed version and
  /// all views recompute. Fails when history is exhausted.
  Status Undo();

  /// Steps forward again after Undo(). Fails at the newest state.
  Status Redo();

  bool CanUndo() const;
  bool CanRedo() const;

  // ---- Debugging (§3.1: expose workflow state for inspection) ----

  /// Human-readable listing of every relation: kind, cardinality, version
  /// depth, open transactions — plus defined patterns and trace relations.
  std::string DumpState() const;

  /// The bound plan and dependency lists of a view (the workflow's
  /// input-output dependencies).
  Result<std::string> ExplainView(const std::string& name) const;

  // ---- Durability ----

  /// Outcome of crash recovery run by the constructor when a data
  /// directory is configured. OK when durability is off, the directory was
  /// empty, or recovery restored and replayed cleanly. On failure the
  /// engine stays usable in memory but further logging is disabled
  /// (fail-stop — silent divergence between memory and disk is worse).
  /// Also reports a later runtime fail-stop: when a WAL append fails after
  /// the statement already mutated memory (and the entry point cannot roll
  /// that mutation back), logging shuts down the same way and the cause is
  /// recorded here.
  Status recovery_status() const;

  /// Log/snapshot/recovery counters; zero-valued when durability is off.
  DurabilityStats durability_stats() const;

  /// Flushes the log and writes a snapshot now. Errors when durability is
  /// off or the snapshot cannot be written (the log remains intact).
  Status Checkpoint();

  /// Forces batched group-commit frames to stable storage.
  Status FlushWal();

  /// Registers a stream scheduler whose delivery state rides along in
  /// snapshots. If recovery restored scheduler state, it is applied to
  /// `scheduler` here. Pass nullptr to detach. Not owned.
  void AttachScheduler(StreamScheduler* scheduler);

  /// Newest LSN acknowledged by the log (0 when durability is off). On a
  /// replica this is the newest LSN applied from the primary's log.
  uint64_t wal_lsn() const;

  // ---- Storage health (see DESIGN.md § Storage fault model) ----

  /// True while the engine is in degraded read-only mode: an out-of-space
  /// WAL append or snapshot write was observed, mutations are rejected
  /// with kStorageDegraded, snapshot reads keep serving the last published
  /// epoch, and a bounded-backoff space probe exits the mode once the disk
  /// frees up.
  bool storage_degraded() const {
    return storage_degraded_.load(std::memory_order_relaxed);
  }

  /// Degraded-mode and integrity-scrub counters, also exported as the
  /// dvms_storage system relation. All-zero when durability is off.
  struct StorageStats {
    bool degraded = false;
    uint64_t degraded_entries = 0;  // times degraded mode was entered
    uint64_t degraded_exits = 0;    // successful probe recoveries
    uint64_t space_probes = 0;      // probe attempts (incl. failures)
    uint64_t scrub_passes = 0;
    uint64_t scrub_segments_scanned = 0;
    uint64_t scrub_snapshots_scanned = 0;
    uint64_t scrub_corruptions = 0;   // checksum/format failures found
    uint64_t scrub_quarantined = 0;   // corrupt files set aside (renamed)
    uint64_t scrub_io_errors = 0;     // transient read failures (skipped)
    std::string degraded_reason;      // empty unless degraded
    std::string last_corruption;      // most recent scrub finding, if any
  };
  StorageStats storage_stats() const;

  /// Runs one synchronous integrity-scrub pass over the sealed WAL
  /// segments and snapshots (the same pass the DVMS_SCRUB_MS thread runs
  /// on a cadence). Errors when durability is off; corruption findings are
  /// reported through storage_stats(), not the return status.
  Status ScrubNow();

  // ---- Replication (see DESIGN.md § Replication & failover) ----

  /// True while this engine is a read replica (Options::replica_of).
  bool is_replica() const {
    return role_.load(std::memory_order_relaxed) == Role::kReplica;
  }

  /// Replica-side lag and tailing counters, also exported as the
  /// dvms_replication system relation. All-zero on a plain primary.
  struct ReplicationStats {
    bool replica = false;        // current role
    bool promoted = false;       // became primary via Promote()
    bool stale = false;          // poll failures exceeded the retry budget
    uint64_t replica_lsn = 0;    // newest LSN applied here
    uint64_t primary_lsn = 0;    // newest LSN observed on the primary's disk
    uint64_t lag_frames = 0;     // max(primary_lsn - replica_lsn, 0)
    uint64_t lag_bytes = 0;      // delivered-but-not-yet-applied bytes
    uint64_t batches_applied = 0;
    uint64_t frames_applied = 0;
    uint64_t polls = 0;
    uint64_t poll_errors = 0;    // transient tailing failures (retried)
    uint64_t torn_tail_retries = 0;
    uint64_t rotations = 0;      // segment boundaries drained across
    std::string last_error;      // most recent poll/apply failure, if any
  };
  ReplicationStats replication_stats() const;

  /// Failover: stops the tailer, runs standard crash recovery on the
  /// primary's directory (sealing any torn tail and taking ownership of
  /// it), applies whatever sealed suffix this replica had not yet seen,
  /// and re-opens writable. After OK the engine is a primary whose state
  /// is bit-identical to the clean committed prefix of the dead primary's
  /// log. Fails (and stays a read-only replica) when the engine is not a
  /// replica, the directory cannot be recovered, or the sealed log
  /// contradicts what was already applied here.
  Status Promote();

  /// Blocks until the replica has applied at least `lsn` or `timeout_ms`
  /// elapses; returns the newest applied LSN. For tests and benchmarks; a
  /// primary returns its wal_lsn() immediately.
  uint64_t WaitForReplicaLsn(uint64_t lsn, int64_t timeout_ms);

  // ---- Resource governance ----

  /// Raises the cancel flag observed by the in-flight request's next
  /// governor checkpoint (callable from any thread; takes no lock). The
  /// cancelled request rolls back all-or-nothing and returns kCancelled; a
  /// cancel raised while no request is running aborts the next one at its
  /// first checkpoint. No-op unless the governor is armed (a deadline or
  /// memory budget is configured).
  void RequestCancel();

  /// Abort / admission counters, also exported as the dvms_governor system
  /// relation and governor.* obs counters.
  struct GovernorStats {
    size_t deadline_aborts = 0;
    size_t cancel_aborts = 0;
    size_t mem_aborts = 0;      // memory-budget aborts
    uint64_t checkpoints = 0;   // cooperative checks across all requests
    int64_t peak_mem_bytes = 0; // largest per-request transient footprint
    int64_t admitted = 0;       // mutation slots granted
    int64_t rejected = 0;       // shed with kResourceExhausted at the gate
    // Reader-side accounting (snapshot reads never take mutation slots).
    int64_t readers_admitted = 0;
    int64_t readers_rejected = 0;
    // Snapshot-epoch lifecycle, for pinned-epoch leak checks.
    int64_t snapshot_epoch = 0;    // latest published epoch (0 = none yet)
    int64_t epochs_published = 0;
    int64_t epochs_retired = 0;    // published views since destroyed
    int64_t pinned_snapshots = 0;  // live pins (sessions + in-flight reads)
  };
  GovernorStats governor_stats() const;

  // ---- Concurrent snapshot reads ----

  /// Monotone epoch of the latest published engine snapshot: bumped at the
  /// end of every mutation unit that changed any relation, after the WAL
  /// append — readers can never observe an unpublished (or rolled-back)
  /// state. 0 before the first publish.
  uint64_t published_epoch() const { return snapshots_.current_epoch(); }

  struct Stats {
    size_t events_processed = 0;
    size_t transactions_started = 0;
    size_t transactions_committed = 0;
    size_t transactions_aborted = 0;
    size_t renders = 0;
    size_t trace_recomputes = 0;
    /// Statement batches that failed mid-flight and were rolled back to
    /// the pre-batch state (not restored by the rollback itself).
    size_t interactions_rolled_back = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  friend class Session;

  struct TraceDefEntry {
    std::string name;
    TraceStmt stmt;
    std::vector<std::string> deps;  // current-version trigger relations
  };

  /// Snapshot backing one mutation unit (an all-or-nothing statement
  /// batch). Everything here is cheap to capture: matcher states are small
  /// structs, the undo history holds shared_ptrs, and per-table data
  /// capture is lazy inside VersionedTable.
  struct UnitState {
    std::vector<std::string> relations;  // armed tables (names at begin)
    std::vector<PatternMatcher::SavedState> matchers;
    Stats stats;
    std::vector<std::unordered_map<std::string, TablePtr>> undo_history;
    size_t undo_cursor = 0;
    ViewMaintainer::LineageSnapshot lineage;
    bool render_entered = false;  // the framebuffer may have been touched
    /// Observability checkpoint: counters/spans recorded inside a unit
    /// that rolls back must not leak into dvms_metrics (mirrors `stats`).
    obs::SavedState obs_state;
  };

  /// Opens (or joins) a mutation unit; only the outermost call arms the
  /// undo log.
  void BeginMutationUnit();

  /// Closes the unit: on the outermost call, a non-OK `st` triggers a full
  /// rollback to the pre-unit state; OK disarms the undo log. Returns `st`.
  Status EndMutationUnit(Status st);

  /// Restores tables, matcher states, stats, undo history, view caches,
  /// and (by deterministic re-render) the framebuffer. Runs under an
  /// InternalScope so injected faults cannot cascade into recovery.
  void RollbackMutationUnit();

  /// The Execute() statement switch, sans logging (Execute() logs the
  /// statement as one frame around it).
  Status ExecuteDispatch(const Statement& statement);

  // Bodies of the public mutating entry points, called with the lock held
  // and a mutation unit open.
  Status InsertLocked(const std::string& name, std::vector<Row> rows);
  Result<size_t> DeleteLocked(const std::string& name,
                              const ExprPtr& predicate);
  Status CreateScaleLocked(const std::string& name, double domain_min,
                           double domain_max, double range_min,
                           double range_max);
  Status PushEventLocked(const InputEvent& event);
  Status RenderLocked();
  Status UndoLocked();
  Status RedoLocked();

  /// Propagates relation changes: view maintenance, then trace relations,
  /// iterating until quiescent (bounded rounds).
  Status ProcessChanges(std::vector<std::string> changed);

  Status RecomputeTrace(const TraceDefEntry& entry);

  /// Commits every view relation (interaction boundary) and snapshots
  /// lineage for @vnow-1 provenance.
  Status CommitViews();

  /// InvalidArgument when `name` belongs to a registered system relation:
  /// no table, view, marks, event pattern, trace, scale or named EXPLAIN
  /// report may shadow one.
  Status CheckRelationName(const std::string& name) const;

  /// Restores base/event relations from the undo history at the current
  /// cursor and recomputes everything downstream.
  Status RestoreToCursor();

  // ---- Resource-governance plumbing ----

  /// Admission through the writer or reader gate (defined in dvms.cc).
  class AdmissionTicket;
  /// The scope every public mutating entry point opens first (defined in
  /// dvms.cc): writability and relation-name checks, admission, mu_, the
  /// governed request, the log depth, and the closing snapshot publish.
  class RequestScope;

  /// Resolves GovernorConfig from Options + environment and builds the
  /// admission gate.
  void InitGovernor();

  /// Folds one request's checkpoint, peak-memory and abort accounting into
  /// governor_stats_ under gov_mu_, for writers and readers alike. A
  /// kCancelled abort lowers `cancel_flag`: one cancel aborts one request.
  void FoldGovernorAccounting(const QueryContext& ctx,
                              std::atomic<bool>* cancel_flag);

  /// Snapshot of knobs + counters for the dvms_governor system relation.
  /// Safe without mu_ (immutable config, gate atomics, gov_mu_ for the
  /// fold counters) so concurrent session reads can build it too.
  Table BuildGovernorTable() const;

  // ---- Snapshot-read plumbing ----

  /// Publishes the catalog as an immutable snapshot epoch. Requires mu_;
  /// incremental (relations whose mutation epoch did not move are shared
  /// with the previous epoch) and a no-op when nothing changed — a rolled
  /// back unit restores every epoch, so aborts publish nothing.
  void PublishSnapshotLocked();

  /// The engine's one read path, behind Session::Query and Dvms::Query:
  /// parse, admit through the reader gate, pin a snapshot epoch (the
  /// session-pinned epoch if set), then plan/bind/execute entirely against
  /// immutable state, with registered system relations built on first
  /// use. Never acquires mu_.
  Result<Table> SnapshotRead(Session* session, const std::string& select_sql);

  /// Executor options for reads: this engine's pool and thread count.
  ExecOptions ReadOptions() const;

  // ---- Durability plumbing ----

  /// Opens the durability directory and runs crash recovery: restore the
  /// newest valid snapshot, replay the log suffix through the normal
  /// executor, re-render. Sets recovery_status_; never throws or crashes.
  void InitDurability();

  /// Options::wal_fsync overlaid with DVMS_WAL_FSYNC; kAlways when unset.
  Result<WalFsyncMode> ResolveFsyncMode() const;

  // ---- Replication plumbing ----

  enum class Role { kPrimary, kReplica };

  /// kReadOnlyReplica unless this engine is a primary or the calling
  /// thread's request is internal (the replica's own apply path). Checked
  /// at the top of every mutating entry point, before admission.
  Status CheckWritable(const char* op) const;

  /// Replica-mode constructor leg: bootstraps from the primary's newest
  /// snapshot + sealed log suffix (read-only — a missing or torn directory
  /// degrades to an empty start, never an error) and builds the tailer.
  /// The tail thread itself starts after the first snapshot publish.
  void InitReplica();

  /// The tail thread: poll → apply → publish, with capped exponential
  /// backoff on transient failures. Sustained failure marks the replica
  /// stale (still serving its last applied epoch); a pruned-away resume
  /// LSN or an apply failure is terminal for the thread.
  void TailLoop();

  /// Applies one polled batch under mu_ (internal like recovery replay),
  /// advances replica_lsn, and publishes a fresh epoch. False on an apply
  /// failure — the replica must not skip a frame, so the tailer stops.
  bool ApplyReplicaBatch(std::vector<WalFrame> frames);

  /// Signals and joins the tail thread. Safe to call twice; never holds
  /// mu_ (the tail thread takes mu_ to apply).
  void StopTailer();

  /// Copies tailer counters into repl_ and recomputes lag. repl_mu_ held.
  void SyncTailerStatsLocked();

  /// Snapshot of repl_ for the dvms_replication system relation. Takes
  /// only repl_mu_ (a leaf lock) so concurrent session reads can build it.
  Table BuildReplicationTable() const;

  Status RestoreAndReplay(RecoveredLog log);
  Status RestoreSnapshot(EngineSnapshot snapshot);

  /// Re-executes one logged operation through its public entry point.
  Status ApplyWalRecord(const WalRecord& record);

  /// True when the current call is the outermost logged entry point of a
  /// durable engine outside internal replay — i.e. LogCommitted() would
  /// append. Lets entry points skip building (copying) the record
  /// otherwise.
  bool ShouldLog() const {
    return durability_ != nullptr && !durability_poisoned_ &&
           !CurrentRequest().is_internal() && log_depth_ == 1;
  }

  /// Appends `record` to the interaction log if ShouldLog(). Entry points
  /// that can undo their mutation call it inside the mutation unit (or
  /// with a manual undo) so an append failure rolls the state back —
  /// memory never acknowledges a mutation the log lost. Entry points that
  /// cannot fully undo (Execute / LoadProgram / ComposeInteractions, whose
  /// DDL effects outlive a unit rollback) must PoisonDurability() on
  /// failure instead. May also write an automatic snapshot (soft-fail).
  Status LogCommitted(const WalRecord& record);

  /// Runtime fail-stop: memory holds a mutation the log lost and cannot be
  /// rolled back, so further logging is disabled and the cause recorded in
  /// recovery_status(). The in-memory engine stays usable; a restart
  /// recovers the last logged state.
  void PoisonDurability(const char* what, const Status& cause);

  EngineSnapshot BuildSnapshotLocked() const;
  Status WriteSnapshotLocked();

  // ---- Storage-health plumbing ----

  /// Enters degraded read-only mode (idempotent): records the reason,
  /// resets the probe backoff, and logs once per entry. Out-of-space is
  /// transient — unlike PoisonDurability, nothing was acknowledged and
  /// then lost, so the engine keeps its log and waits for space.
  void EnterDegraded(const char* what, const Status& cause);

  /// The degraded-mode gate: true when storage is writable (not degraded,
  /// or a space probe just succeeded and cleared the mode). Probes are
  /// rate-limited with bounded exponential backoff (1ms doubling to 1s) so
  /// a rejected-mutation storm cannot hammer a full disk. Const because
  /// CheckWritable is; all state lives behind storage_mu_ / atomics.
  bool StorageWritableOrProbe() const;

  /// One probe: write + fsync + unlink a small file in the durability
  /// directory through the active Env. storage_mu_ must be held.
  Status ProbeStorage() const;

  /// The DVMS_SCRUB_MS thread body: cv-waits the cadence, runs ScrubPass.
  void ScrubLoop();

  /// One integrity pass: briefly takes mu_ to capture the directory layout
  /// and active segment, then re-reads every sealed segment and snapshot
  /// without the lock. Corrupt sealed segments are quarantined (renamed
  /// *.quarantined) only when a valid snapshot already covers every LSN
  /// they hold; uncovered corruption fails loud (stderr + fail-stop via
  /// PoisonDurability — acknowledged history would not survive a restart).
  Status ScrubPass();

  /// Signals and joins the scrub thread. Safe to call twice.
  void StopScrubber();

  /// Snapshot of storage health for the dvms_storage system relation.
  /// Takes only storage_mu_ + atomics (no mu_) so concurrent session reads
  /// can build it too.
  Table BuildStorageTable() const;

  Options options_;
  /// Engine-owned pool when options_.num_threads > 0; otherwise the
  /// process-global pool is used.
  std::unique_ptr<ThreadPool> owned_pool_;
  /// Serializes the public mutating entry points (PushEvent / Insert /
  /// Delete / Execute / ...) so concurrent interaction streams from
  /// multiple threads are safe; reads (Query, Session) never take it.
  /// Recursive because statements execute through the same public
  /// surface. Note: pointers returned by GetTable()/pixels() are only
  /// stable while no other thread mutates the engine.
  mutable std::recursive_mutex mu_;
  UdfRegistry udfs_;
  Catalog catalog_;
  CrossfilterOptimizer optimizer_;
  ViewMaintainer maintainer_;
  EventRecognizer recognizer_;
  TraceEngine traces_;
  PixelBuffer pixels_;
  std::vector<TraceDefEntry> trace_defs_;
  std::vector<std::string> render_views_;
  Stats stats_;
  /// Committed snapshots of base/event relations, oldest first; the engine
  /// pushes one per interaction commit (capped).
  std::vector<std::unordered_map<std::string, TablePtr>> undo_history_;
  /// 0 = at the newest committed state; k = k interactions undone.
  size_t undo_cursor_ = 0;
  /// Mutation-unit nesting depth; unit_ is valid while > 0.
  size_t unit_depth_ = 0;
  UnitState unit_;
  /// Resolved governor knobs (Options overlaid with DVMS_DEADLINE_MS /
  /// DVMS_MEM_BUDGET / DVMS_MAX_INFLIGHT / DVMS_QUEUE_MS); immutable after
  /// construction.
  GovernorConfig governor_config_;
  /// True when requests run under a QueryContext (deadline or memory
  /// budget configured).
  bool governor_armed_ = false;
  /// Admission gate; null when max_inflight is unbounded.
  std::unique_ptr<AdmissionGate> admission_;
  /// Reader gate: always constructed (effectively unbounded when
  /// max_readers is 0) so reader admission/rejection accounting is exact.
  std::unique_ptr<AdmissionGate> read_admission_;
  /// Cancel flag shared into each request's QueryContext so
  /// RequestCancel() works lock-free from any thread.
  std::shared_ptr<std::atomic<bool>> cancel_flag_;
  /// Guards governor_stats_ alone (a leaf lock): the serialized writer
  /// folds request accounting under mu_ + gov_mu_, concurrent readers fold
  /// theirs under gov_mu_ only.
  mutable std::mutex gov_mu_;
  GovernorStats governor_stats_;
  /// Published immutable snapshot epochs for lock-free readers.
  SnapshotManager snapshots_;
  /// dvms_metrics, dvms_spans, dvms_governor, dvms_replication and
  /// dvms_storage; filled in the constructor, read-only afterwards.
  SystemRelationRegistry system_relations_;
  /// Times mu_ was taken, surfaced as the synthetic engine.write_lock row
  /// of dvms_metrics. A plain atomic (not an obs counter) so rollback's
  /// obs Save/Restore cannot rewind it and it works with obs disabled.
  mutable std::atomic<uint64_t> write_lock_acquisitions_{0};
  /// Injector built from Options::fault_spec (installed process-wide for
  /// this engine's lifetime).
  std::unique_ptr<FaultInjector> owned_injector_;
  FaultInjector* previous_injector_ = nullptr;
  /// Interaction log + snapshots; null when durability is off.
  std::unique_ptr<DurabilityManager> durability_;
  /// Set when recovery failed partway: the engine stays usable but no
  /// further frames are logged (fail-stop beats silent divergence).
  bool durability_poisoned_ = false;
  Status recovery_status_;
  /// Nesting depth of the logged public entry points (see RequestScope).
  size_t log_depth_ = 0;
  /// Encoded definition frames, in log order — the snapshot's recipe for
  /// rebuilding compiled plans/NFAs/trace defs.
  std::vector<std::string> def_records_;
  uint64_t frames_since_snapshot_ = 0;
  /// Optional stream scheduler included in snapshots (not owned).
  StreamScheduler* scheduler_ = nullptr;
  /// Scheduler state recovered before any scheduler was attached; applied
  /// by AttachScheduler() and carried forward into new snapshots.
  bool pending_scheduler_state_ = false;
  StreamScheduler::DurableState scheduler_state_;
  // ---- Replication state ----
  /// Atomic so CheckWritable runs before taking mu_ (like admission) and
  /// Promote() can flip it while readers look on.
  std::atomic<Role> role_{Role::kPrimary};
  /// Guards repl_ alone (a leaf lock, like gov_mu_): the tail thread folds
  /// apply progress under it, concurrent session reads snapshot it.
  mutable std::mutex repl_mu_;
  ReplicationStats repl_;
  /// Resolved replica knobs (Options overlaid with DVMS_REPLICA_POLL_MS /
  /// DVMS_REPLICA_RETRY_BUDGET); immutable after construction.
  uint64_t replica_poll_ms_ = 5;
  uint64_t replica_retry_budget_ = 8;
  uint64_t replica_jitter_seed_ = 0;
  /// Owned by the tail thread while it runs; touched elsewhere only after
  /// StopTailer() joins.
  std::unique_ptr<WalTailer> tailer_;
  std::thread tail_thread_;
  std::mutex tail_mu_;
  std::condition_variable tail_cv_;
  bool tail_stop_ = false;
  // ---- Storage-health state ----
  /// Lock-free fast path for CheckWritable / storage_degraded(); all
  /// transitions happen under storage_mu_.
  mutable std::atomic<bool> storage_degraded_{false};
  /// Guards storage_stats_ + the probe backoff (a leaf lock, like gov_mu_):
  /// mutators probe under it before taking mu_, the scrub thread folds its
  /// counters under it, session reads snapshot it.
  mutable std::mutex storage_mu_;
  mutable StorageStats storage_stats_;
  /// Copy of the durability directory for the (mu_-free) space probe; set
  /// while single-threaded in the constructor and under mu_ by Promote().
  std::string storage_dir_;
  mutable uint64_t probe_backoff_us_ = 0;
  mutable int64_t next_probe_us_ = 0;
  /// Resolved scrub cadence (Options overlaid with DVMS_SCRUB_MS); 0 = no
  /// background thread.
  uint64_t scrub_ms_ = 0;
  std::thread scrub_thread_;
  std::mutex scrub_mu_;
  std::condition_variable scrub_cv_;
  bool scrub_stop_ = false;
};

}  // namespace dvms

#endif  // DVMS_CORE_DVMS_H_
