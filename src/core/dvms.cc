#include "core/dvms.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>

#include "common/env.h"
#include "common/request_context.h"
#include "core/session.h"
#include "parser/parser.h"
#include "parser/planner.h"

namespace dvms {

namespace {

/// Space-probe backoff bounds: 1ms doubling to a 1s cap, so a mutation
/// storm against a full disk costs at most one probe per second while
/// recovery after the disk frees is still prompt.
constexpr uint64_t kProbeBackoffFloorUs = 1000;
constexpr uint64_t kProbeBackoffCapUs = 1000 * 1000;

int64_t SteadyMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Replication knobs are tuning, not safety: a malformed value warns and
/// falls back (unlike the governor's fail-loud knobs, nothing is silently
/// un-protected by a typo here).
uint64_t EnvU64Or(const char* name, uint64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || raw[0] == '\0') return fallback;
  char* end = nullptr;
  unsigned long long v = std::strtoull(raw, &end, 10);
  if (end == raw || *end != '\0') {
    std::fprintf(stderr, "dvms: ignoring malformed %s=\"%s\"\n", name, raw);
    return fallback;
  }
  return static_cast<uint64_t>(v);
}

Value DoubleOrNull(double v) {
  return std::isnan(v) ? Value::Null() : Value::Double(v);
}

Table BuildMetricsTable(uint64_t write_lock_acquisitions) {
  Table out(Schema({{"name", ValueType::kString},
                    {"kind", ValueType::kString},
                    {"count", ValueType::kInt64},
                    {"sum", ValueType::kDouble},
                    {"min", ValueType::kDouble},
                    {"max", ValueType::kDouble},
                    {"p50", ValueType::kDouble},
                    {"p95", ValueType::kDouble},
                    {"p99", ValueType::kDouble}}));
  for (const obs::MetricRow& m : obs::SnapshotMetrics()) {
    out.AppendUnchecked({Value::String(m.name), Value::String(m.kind),
                         Value::Int(static_cast<int64_t>(m.count)),
                         Value::Double(m.sum), DoubleOrNull(m.min),
                         DoubleOrNull(m.max), DoubleOrNull(m.p50),
                         DoubleOrNull(m.p95), DoubleOrNull(m.p99)});
  }
  // Synthetic row, not an obs counter: it must survive the rollback
  // Save/Restore that wipes everything a failed unit recorded, and it must
  // be visible with observability disabled — it is the witness that
  // concurrent snapshot reads never touched the write path.
  double locks = static_cast<double>(write_lock_acquisitions);
  out.AppendUnchecked(
      {Value::String("engine.write_lock"), Value::String("counter"),
       Value::Int(static_cast<int64_t>(write_lock_acquisitions)),
       Value::Double(locks), DoubleOrNull(locks), DoubleOrNull(locks),
       DoubleOrNull(locks), DoubleOrNull(locks), DoubleOrNull(locks)});
  return out;
}

Table BuildSpansTable() {
  Table out(Schema({{"id", ValueType::kInt64},
                    {"parent", ValueType::kInt64},
                    {"name", ValueType::kString},
                    {"thread", ValueType::kInt64},
                    {"start_us", ValueType::kInt64},
                    {"dur_us", ValueType::kInt64}}));
  for (const obs::SpanRow& s : obs::SnapshotSpans()) {
    out.AppendUnchecked({Value::Int(static_cast<int64_t>(s.id)),
                         Value::Int(static_cast<int64_t>(s.parent)),
                         Value::String(s.name),
                         Value::Int(static_cast<int64_t>(s.thread)),
                         Value::Int(s.start_us), Value::Int(s.dur_us)});
  }
  return out;
}

/// Counting acquisition of the engine write mutex: every public entry
/// point takes mu_ through this guard, so the engine.write_lock counter in
/// dvms_metrics is an observable witness that concurrent snapshot reads
/// never touched the write path.
struct MuLock {
  MuLock(std::recursive_mutex& mu, std::atomic<uint64_t>& acquisitions)
      : lock(mu) {
    acquisitions.fetch_add(1, std::memory_order_relaxed);
  }
  std::lock_guard<std::recursive_mutex> lock;
};

}  // namespace

Dvms::Dvms(Options options)
    : options_(options),
      owned_pool_(options.num_threads > 0
                      ? std::make_unique<ThreadPool>(options.num_threads)
                      : nullptr),
      udfs_(UdfRegistry::WithBuiltins()),
      optimizer_(&catalog_),
      maintainer_(&catalog_, &udfs_),
      recognizer_(&catalog_, &udfs_),
      traces_(&catalog_, &udfs_, &maintainer_),
      pixels_(options.canvas_width, options.canvas_height) {
  maintainer_.set_capture_lineage(options_.capture_lineage);
  maintainer_.set_parallelism(owned_pool_.get(), options_.num_threads);
  if (options_.enable_online_optimizer && !options_.capture_lineage) {
    maintainer_.set_optimizer(&optimizer_);
  }
  if (!options_.fault_spec.empty()) {
    Result<FaultConfig> config = ParseFaultSpec(options_.fault_spec);
    if (config.ok()) {
      owned_injector_ = std::make_unique<FaultInjector>(config.value());
      previous_injector_ =
          fault::InstallProcessInjector(owned_injector_.get());
    } else {
      // A typo'd spec must not silently run the engine without the faults
      // the caller asked for.
      std::fprintf(stderr, "dvms: ignoring malformed fault_spec '%s': %s\n",
                   options_.fault_spec.c_str(),
                   config.status().message().c_str());
    }
  }
  pixels_.Clear(RGBA{255, 255, 255, 255});
  obs::InitFromEnv();
  if (options_.trace) obs::SetEnabled(true);
  // The engine's own relations: built fresh for each read that names them,
  // never stored in the catalog. Registered before recovery, which may
  // replay a logged EXPLAIN over them.
  system_relations_.Register("dvms_metrics", [this] {
    return BuildMetricsTable(
        write_lock_acquisitions_.load(std::memory_order_relaxed));
  });
  system_relations_.Register("dvms_spans", BuildSpansTable);
  system_relations_.Register("dvms_governor",
                             [this] { return BuildGovernorTable(); });
  system_relations_.Register("dvms_replication",
                             [this] { return BuildReplicationTable(); });
  system_relations_.Register("dvms_storage",
                             [this] { return BuildStorageTable(); });
  InitGovernor();
  if (options_.replica_of.empty()) {
    if (const char* env = std::getenv("DVMS_REPLICA_OF")) {
      options_.replica_of = env;
    }
  }
  if (!options_.replica_of.empty()) {
    InitReplica();
  } else {
    InitDurability();
  }
  // First publish: whatever state recovery (or the replica bootstrap)
  // restored — or an empty catalog — becomes epoch 1, so sessions always
  // have a snapshot to read.
  PublishSnapshotLocked();
  // The tail thread starts only after that first publish: every epoch it
  // replaces was complete.
  if (tailer_ != nullptr) {
    tail_thread_ = std::thread([this] { TailLoop(); });
  }
  // Background integrity scrubber. Started even on a replica (where passes
  // no-op until a Promote() hands it a durability directory).
  scrub_ms_ = options_.scrub_ms > 0 ? static_cast<uint64_t>(options_.scrub_ms)
                                    : EnvU64Or("DVMS_SCRUB_MS", 0);
  if (scrub_ms_ > 0) {
    scrub_thread_ = std::thread([this] { ScrubLoop(); });
  }
}

Dvms::~Dvms() {
  StopScrubber();
  StopTailer();
  if (durability_ != nullptr) {
    // Push any batched group-commit frames out before the process forgets
    // about them. Best-effort: there is no caller to report to.
    InternalScope internal;
    (void)durability_->Flush();
  }
  if (owned_injector_ != nullptr) {
    fault::InstallProcessInjector(previous_injector_);
  }
}

// ---- Resource governance ----

void Dvms::InitGovernor() {
  governor_config_.deadline_ms = options_.deadline_ms;
  governor_config_.mem_budget = options_.mem_budget;
  governor_config_.max_inflight = options_.max_inflight;
  governor_config_.queue_ms = options_.queue_ms;
  governor_config_.max_readers = options_.max_readers;
  governor_config_.clock = options_.governor_clock;
  governor_config_.FromEnv();
  governor_armed_ =
      governor_config_.deadline_ms > 0 || governor_config_.mem_budget > 0;
  cancel_flag_ = std::make_shared<std::atomic<bool>>(false);
  if (governor_config_.max_inflight > 0) {
    admission_ = std::make_unique<AdmissionGate>(
        governor_config_.max_inflight, governor_config_.queue_ms * 1000);
  }
  // Always built (effectively unbounded at max_readers == 0) so reader
  // admission accounting is exact even without a configured cap.
  int reader_slots = governor_config_.max_readers > 0
                         ? governor_config_.max_readers
                         : std::numeric_limits<int>::max();
  read_admission_ = std::make_unique<AdmissionGate>(
      reader_slots, governor_config_.queue_ms * 1000);
}

/// Admission at the front door, taken BEFORE mu_ so a full engine sheds
/// load instead of growing an unbounded mutex queue. Nested entry points
/// already hold a slot (and hold mu_ — a blocking wait here would deadlock
/// against the slot holder queued on that mutex), and internal work
/// (recovery replay, rollback) is never client traffic: both skip the gate.
class Dvms::AdmissionTicket {
 public:
  /// Which accounting pool the request draws from: mutations take
  /// max_inflight slots, snapshot reads take max_readers slots.
  enum class Gate { kWriter, kReader };

  AdmissionTicket(Dvms* dvms, Gate gate) {
    const RequestContext& request = CurrentRequest();
    if (request.entry_depth > 0 || request.is_internal()) return;
    gate_ = gate == Gate::kReader ? dvms->read_admission_.get()
                                  : dvms->admission_.get();
    if (gate_ == nullptr) return;
    status_ = gate_->Enter();
    if (!status_.ok()) gate_ = nullptr;
  }
  ~AdmissionTicket() {
    if (gate_ != nullptr) gate_->Leave();
  }
  AdmissionTicket(const AdmissionTicket&) = delete;
  AdmissionTicket& operator=(const AdmissionTicket&) = delete;

  /// kResourceExhausted when the request was shed; the caller returns it
  /// without touching engine state.
  const Status& status() const { return status_; }

 private:
  AdmissionGate* gate_ = nullptr;  // set while a slot is held
  Status status_;
};

/// The scope every public mutating entry point opens before it touches
/// engine state. The constructor runs, in order: CheckWritable,
/// CheckRelationName for a relation the call creates, admission, mu_, and
/// the governed request — the outermost entry point on a thread arms a
/// QueryContext (deadline, cancel flag, memory budget) unless the work is
/// internal; nested calls join it. A logged entry point also opens the log
/// depth: only the outermost logged call appends a frame (replaying it
/// implies the nested calls) and publishes a snapshot epoch when it closes,
/// and internal replay publishes once at the end instead of per record.
/// The first failing step's status is status() and nothing after it runs.
/// The destructor unwinds in reverse — publish, log depth, governor
/// accounting, mu_, admission slot — so the publish and the governor fold
/// run after EndMutationUnit's rollback but before the lock releases.
class Dvms::RequestScope {
 public:
  struct Steps {
    const char* writable_op = nullptr;       // CheckWritable unless null
    const std::string* new_name = nullptr;   // CheckRelationName unless null
    AdmissionTicket::Gate gate = AdmissionTicket::Gate::kWriter;
    bool logged = true;
  };

  RequestScope(Dvms* dvms, const Steps& steps) : dvms_(dvms) {
    if (steps.writable_op != nullptr) {
      status_ = dvms_->CheckWritable(steps.writable_op);
    }
    if (status_.ok() && steps.new_name != nullptr) {
      status_ = dvms_->CheckRelationName(*steps.new_name);
    }
    if (!status_.ok()) return;
    ticket_.emplace(dvms_, steps.gate);
    status_ = ticket_->status();
    if (!status_.ok()) return;
    lock_.emplace(dvms_->mu_, dvms_->write_lock_acquisitions_);
    RequestContext& request = CurrentRequest();
    if (request.entry_depth++ == 0 && dvms_->governor_armed_ &&
        !request.is_internal()) {
      const GovernorConfig& cfg = dvms_->governor_config_;
      ctx_.ArmDeadline(cfg.deadline_ms, cfg.clock);
      ctx_.ArmMemoryBudget(cfg.mem_budget);
      ctx_.ShareCancelFlag(dvms_->cancel_flag_);
      governed_.emplace(&ctx_);
    }
    logged_ = steps.logged;
    if (logged_) {
      publish_ = ++dvms_->log_depth_ == 1 && !request.is_internal();
    }
  }

  ~RequestScope() {
    if (!status_.ok()) return;  // a check failed: nothing was opened
    if (publish_) dvms_->PublishSnapshotLocked();
    if (logged_) --dvms_->log_depth_;
    if (governed_.has_value()) {
      governed_.reset();
      // Folded while mu_ is still held and after the rollback's obs
      // restore, so abort counters survive the metric rewind.
      dvms_->FoldGovernorAccounting(ctx_, dvms_->cancel_flag_.get());
    }
    --CurrentRequest().entry_depth;
  }
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

  const Status& status() const { return status_; }

 private:
  Dvms* dvms_;
  Status status_;
  std::optional<AdmissionTicket> ticket_;
  std::optional<MuLock> lock_;
  QueryContext ctx_;
  std::optional<GovernorRequestScope> governed_;
  bool logged_ = false;
  bool publish_ = false;
};

void Dvms::FoldGovernorAccounting(const QueryContext& ctx,
                                  std::atomic<bool>* cancel_flag) {
  // gov_mu_ is a leaf lock: the writer (under mu_) and concurrent snapshot
  // readers fold through it alike.
  std::lock_guard<std::mutex> gov_lock(gov_mu_);
  GovernorStats& gs = governor_stats_;
  gs.checkpoints += ctx.checkpoints();
  if (ctx.peak_bytes() > gs.peak_mem_bytes) {
    gs.peak_mem_bytes = ctx.peak_bytes();
  }
  switch (ctx.abort_code()) {
    case StatusCode::kDeadlineExceeded:
      ++gs.deadline_aborts;
      obs::Count("governor.deadline_aborts");
      break;
    case StatusCode::kCancelled:
      ++gs.cancel_aborts;
      // One cancel aborts one request.
      cancel_flag->store(false, std::memory_order_relaxed);
      obs::Count("governor.cancel_aborts");
      break;
    case StatusCode::kResourceExhausted:
      ++gs.mem_aborts;
      obs::Count("governor.mem_aborts");
      break;
    default:
      break;
  }
}

void Dvms::RequestCancel() {
  // Lock-free on purpose: the whole point is cancelling a request that is
  // holding mu_.
  if (governor_armed_) {
    cancel_flag_->store(true, std::memory_order_relaxed);
  }
}

Dvms::GovernorStats Dvms::governor_stats() const {
  // gov_mu_ + gate atomics + the snapshot manager's own lock: callable
  // while a writer holds mu_ (e.g. from a concurrent monitoring thread).
  GovernorStats gs;
  {
    std::lock_guard<std::mutex> lock(gov_mu_);
    gs = governor_stats_;
  }
  if (admission_ != nullptr) {
    gs.admitted = admission_->admitted();
    gs.rejected = admission_->rejected();
  }
  gs.readers_admitted = read_admission_->admitted();
  gs.readers_rejected = read_admission_->rejected();
  gs.snapshot_epoch = static_cast<int64_t>(snapshots_.current_epoch());
  gs.epochs_published = static_cast<int64_t>(snapshots_.epochs_published());
  gs.epochs_retired = static_cast<int64_t>(snapshots_.epochs_retired());
  gs.pinned_snapshots = snapshots_.pinned();
  return gs;
}

Table Dvms::BuildGovernorTable() const {
  Table out(Schema({{"name", ValueType::kString},
                    {"value", ValueType::kInt64}}));
  auto row = [&out](const char* name, int64_t value) {
    out.AppendUnchecked({Value::String(name), Value::Int(value)});
  };
  row("armed", governor_armed_ ? 1 : 0);
  row("deadline_ms", governor_config_.deadline_ms);
  row("mem_budget", governor_config_.mem_budget);
  row("max_inflight", governor_config_.max_inflight);
  row("queue_ms", governor_config_.queue_ms);
  row("max_readers", governor_config_.max_readers);
  row("in_flight", admission_ != nullptr ? admission_->in_flight() : 0);
  row("admitted", admission_ != nullptr ? admission_->admitted() : 0);
  row("rejected", admission_ != nullptr ? admission_->rejected() : 0);
  row("readers_in_flight", read_admission_->in_flight());
  row("readers_admitted", read_admission_->admitted());
  row("readers_rejected", read_admission_->rejected());
  {
    std::lock_guard<std::mutex> lock(gov_mu_);
    row("deadline_aborts",
        static_cast<int64_t>(governor_stats_.deadline_aborts));
    row("cancel_aborts", static_cast<int64_t>(governor_stats_.cancel_aborts));
    row("mem_aborts", static_cast<int64_t>(governor_stats_.mem_aborts));
    row("checkpoints", static_cast<int64_t>(governor_stats_.checkpoints));
    row("peak_mem_bytes", governor_stats_.peak_mem_bytes);
  }
  row("snapshot_epoch", static_cast<int64_t>(snapshots_.current_epoch()));
  row("epochs_published",
      static_cast<int64_t>(snapshots_.epochs_published()));
  row("epochs_retired", static_cast<int64_t>(snapshots_.epochs_retired()));
  row("pinned_snapshots", snapshots_.pinned());
  return out;
}

void Dvms::BeginMutationUnit() {
  if (!options_.transactional_rollback) return;
  if (++unit_depth_ > 1) return;
  unit_.relations.clear();
  for (const std::string& name : catalog_.Names()) {
    // System relations (dvms_metrics, ...) are engine-maintained diagnostics;
    // they are refreshed on read, never rolled back.
    auto kind = catalog_.KindOf(name);
    if (kind.ok() && kind.value() == RelationKind::kSystem) continue;
    unit_.relations.push_back(name);
    auto table = catalog_.Get(name);
    if (table.ok()) table.value()->ArmUndo();
  }
  unit_.matchers = recognizer_.SaveMatcherStates();
  unit_.stats = stats_;
  unit_.obs_state = obs::Save();
  unit_.undo_history = undo_history_;
  unit_.undo_cursor = undo_cursor_;
  if (options_.capture_lineage) unit_.lineage = maintainer_.SaveLineage();
  unit_.render_entered = false;
}

Status Dvms::EndMutationUnit(Status st) {
  if (!options_.transactional_rollback || unit_depth_ == 0) return st;
  if (--unit_depth_ > 0) return st;
  if (st.ok()) {
    for (const std::string& name : unit_.relations) {
      auto table = catalog_.Get(name);
      if (table.ok()) table.value()->DisarmUndo();
    }
    unit_ = UnitState{};
    return st;
  }
  RollbackMutationUnit();
  return st;
}

void Dvms::RollbackMutationUnit() {
  // Injected faults must not cascade into the code undoing their damage,
  // and an expired deadline / raised cancel flag must not abort its own
  // rollback (the restoring re-render runs to completion regardless).
  InternalScope internal;
  std::vector<std::string> restored;
  for (const std::string& name : unit_.relations) {
    auto table = catalog_.Get(name);
    if (table.ok() && table.value()->RollbackUndo()) {
      restored.push_back(name);
    }
  }
  recognizer_.RestoreMatcherStates(std::move(unit_.matchers));
  size_t prior_rollbacks = stats_.interactions_rolled_back;
  stats_ = unit_.stats;
  stats_.interactions_rolled_back = prior_rollbacks + 1;
  undo_history_ = std::move(unit_.undo_history);
  undo_cursor_ = unit_.undo_cursor;
  if (options_.capture_lineage) {
    maintainer_.RestoreLineage(std::move(unit_.lineage));
  }
  // Derived caches (crossfilter cubes) may have refreshed against the
  // now-rolled-back data; mark them dirty so the next refresh rebuilds
  // from the restored relations.
  for (const std::string& name : restored) {
    optimizer_.OnRelationChanged(name);
  }
  bool rerender = unit_.render_entered;
  obs::SavedState saved_obs = std::move(unit_.obs_state);
  unit_ = UnitState{};
  if (rerender) {
    // The framebuffer may hold a partial frame. Rendering is a
    // deterministic function of the (restored) marks views, so an
    // internal (never faulted) re-render reproduces the pre-unit pixels
    // bit-for-bit — including any pre-existing render error's partial
    // state.
    size_t renders = stats_.renders;
    (void)RenderLocked();
    stats_.renders = renders;
  }
  // Observability state is restored last, after the re-render's worker
  // threads have joined, so counters/spans recorded anywhere inside the
  // failed unit (pool workers included) do not leak into dvms_metrics.
  obs::Restore(saved_obs);
  obs::Count("dvms.rollbacks");
}

Status Dvms::CreateBaseTable(const std::string& name, Schema schema) {
  RequestScope request(this, {.writable_op = "CreateBaseTable",
                              .new_name = &name});
  DVMS_RETURN_IF_ERROR(request.status());
  DVMS_RETURN_IF_ERROR(
      catalog_.CreateTable(name, schema, RelationKind::kBase).status());
  WalRecord record;
  record.op = WalRecord::Op::kCreateTable;
  record.name = name;
  record.schema = std::move(schema);
  Status logged = LogCommitted(record);
  if (!logged.ok()) {
    // Not in a mutation unit — undo by hand so memory and log agree.
    (void)catalog_.Drop(name);
    return logged;
  }
  return Status::OK();
}

Status Dvms::Insert(const std::string& name, std::vector<Row> rows) {
  RequestScope request(this, {.writable_op = "Insert"});
  DVMS_RETURN_IF_ERROR(request.status());
  WalRecord record;
  if (ShouldLog()) {
    record.op = WalRecord::Op::kInsert;
    record.name = name;
    record.rows = rows;
  }
  BeginMutationUnit();
  Status st = InsertLocked(name, std::move(rows));
  if (st.ok()) st = LogCommitted(record);
  return EndMutationUnit(st);
}

Status Dvms::InsertLocked(const std::string& name, std::vector<Row> rows) {
  DVMS_ASSIGN_OR_RETURN(VersionedTable * table, catalog_.Get(name));
  for (Row& row : rows) {
    DVMS_RETURN_IF_ERROR(table->Append(std::move(row)));
  }
  DVMS_RETURN_IF_ERROR(ProcessChanges({name}));
  if (options_.auto_render) return Render();
  return Status::OK();
}

Status Dvms::CreateScale(const std::string& name, double domain_min,
                         double domain_max, double range_min,
                         double range_max) {
  RequestScope request(this, {.writable_op = "CreateScale", .new_name = &name});
  DVMS_RETURN_IF_ERROR(request.status());
  WalRecord record;
  record.op = WalRecord::Op::kCreateScale;
  record.name = name;
  record.scale_domain_min = domain_min;
  record.scale_domain_max = domain_max;
  record.scale_range_min = range_min;
  record.scale_range_max = range_max;
  const bool existed = catalog_.Exists(name);
  BeginMutationUnit();
  Status st =
      CreateScaleLocked(name, domain_min, domain_max, range_min, range_max);
  if (st.ok()) st = LogCommitted(record);
  st = EndMutationUnit(st);
  if (!st.ok() && !existed) {
    // The unit rollback restores pre-existing relations but cannot remove
    // one created inside the unit; drop the fresh scale relation by hand
    // so memory and log agree.
    (void)catalog_.Drop(name);
  }
  return st;
}

Status Dvms::CreateScaleLocked(const std::string& name, double domain_min,
                               double domain_max, double range_min,
                               double range_max) {
  DVMS_RETURN_IF_ERROR(CreateScaleRelation(&catalog_, name, domain_min,
                                           domain_max, range_min, range_max));
  return ProcessChanges({name});
}

Result<const Table*> Dvms::GetTable(const std::string& name) const {
  MuLock lock(mu_, write_lock_acquisitions_);
  DVMS_ASSIGN_OR_RETURN(VersionedTable * table, catalog_.Get(name));
  return &table->current();
}

Status Dvms::Execute(const Statement& statement) {
  // Plan-level classification (never string matching): a bare EXPLAIN is
  // the one read-only Statement form — it stays allowed on a replica and
  // draws a reader slot.
  const bool read_only = StatementIsReadOnly(statement);
  RequestScope request(
      this, {.writable_op = read_only ? nullptr : "Execute",
             .gate = read_only ? AdmissionTicket::Gate::kReader
                               : AdmissionTicket::Gate::kWriter});
  DVMS_RETURN_IF_ERROR(request.status());
  DVMS_RETURN_IF_ERROR(ExecuteDispatch(statement));
  WalRecord record;
  if (ShouldLog()) {
    record.op = WalRecord::Op::kStatement;
    record.statement = statement;
  }
  Status logged = LogCommitted(record);
  if (!logged.ok()) {
    // The dispatch already committed (the nested entry points saw a no-op
    // depth-2 LogCommitted and disarmed their undo), and DDL effects such
    // as view/pattern definitions outlive a mutation-unit rollback. Memory
    // holds a mutation the log lost: fail-stop instead of letting later
    // frames replay against a diverged state.
    PoisonDurability("statement executed but not logged", logged);
  }
  return logged;
}

Status Dvms::CheckRelationName(const std::string& name) const {
  if (system_relations_.Find(name) == nullptr) return Status::OK();
  return Status::InvalidArgument("'" + name +
                                 "' is reserved for a system relation");
}

Status Dvms::ExecuteDispatch(const Statement& statement) {
  if (statement.kind != Statement::Kind::kInsert &&
      statement.kind != Statement::Kind::kDelete) {
    // Every other statement creates (or redefines) its target relation.
    DVMS_RETURN_IF_ERROR(CheckRelationName(statement.target_name));
  }
  switch (statement.kind) {
    case Statement::Kind::kCreateTable:
      return CreateBaseTable(statement.target_name, statement.create_schema);
    case Statement::Kind::kInsert:
      return Insert(statement.target_name, statement.insert_rows);
    case Statement::Kind::kDelete:
      return Delete(statement.target_name, statement.delete_where).status();
    case Statement::Kind::kViewDef: {
      CatalogSchemaResolver resolver(&catalog_);
      Planner planner(&resolver);
      DVMS_ASSIGN_OR_RETURN(PlanPtr plan, planner.PlanSelect(statement.select));
      RelationKind kind =
          statement.render ? RelationKind::kMarks : RelationKind::kView;
      DVMS_RETURN_IF_ERROR(maintainer_.DefineView(statement.target_name, plan,
                                                  kind, statement.table_udf));
      if (statement.render) {
        bool known = false;
        for (const std::string& v : render_views_) {
          if (IdentEquals(v, statement.target_name)) known = true;
        }
        if (!known) render_views_.push_back(statement.target_name);
      }
      DVMS_RETURN_IF_ERROR(maintainer_.RecomputeView(statement.target_name));
      return maintainer_.OnChanged({statement.target_name});
    }
    case Statement::Kind::kEventDef:
      return recognizer_.DefinePattern(statement.target_name, statement.event);
    case Statement::Kind::kTraceDef: {
      TraceDefEntry entry;
      entry.name = statement.target_name;
      entry.stmt = statement.trace;
      for (const TableRef& ref : entry.stmt.from) {
        if (ref.version.is_current() || ref.version.offset == 0) {
          entry.deps.push_back(ref.name);
        }
      }
      entry.deps.push_back(entry.stmt.target_relation);
      // The trace relation materializes as a view-kind table with the shape
      // of the traced relation (backward: TO's schema; forward: the target
      // view's schema).
      DVMS_ASSIGN_OR_RETURN(VersionedTable * target,
                            catalog_.Get(entry.stmt.target_relation));
      if (!catalog_.Exists(entry.name)) {
        DVMS_RETURN_IF_ERROR(catalog_
                                 .CreateTable(entry.name, target->schema(),
                                              RelationKind::kView)
                                 .status());
      }
      DVMS_RETURN_IF_ERROR(RecomputeTrace(entry));
      trace_defs_.push_back(std::move(entry));
      return Status::OK();
    }
    case Statement::Kind::kExplain: {
      // Inside Execute the live catalog is the base: a program's EXPLAIN
      // sees the relations its earlier statements created.
      CatalogSchemaResolver schemas(&catalog_);
      CatalogRelationSource relations(&catalog_);
      StatementView view(&schemas, &relations, &system_relations_);
      DVMS_ASSIGN_OR_RETURN(
          Table report,
          RunSelect(statement.select, /*explain=*/true,
                    statement.explain_analyze, view, udfs_, ReadOptions()));
      if (statement.target_name.empty()) return Status::OK();
      // Named form materializes the report as a system relation so later
      // DeVIL queries can join/filter it.
      if (catalog_.Exists(statement.target_name)) {
        DVMS_ASSIGN_OR_RETURN(RelationKind kind,
                              catalog_.KindOf(statement.target_name));
        if (kind != RelationKind::kSystem) {
          return Status::InvalidArgument(
              "EXPLAIN target '" + statement.target_name + "' already names a " +
              std::string(RelationKindToString(kind)) + " relation");
        }
      } else {
        DVMS_RETURN_IF_ERROR(catalog_
                                 .CreateTable(statement.target_name,
                                              report.schema(),
                                              RelationKind::kSystem,
                                              /*max_history=*/2)
                                 .status());
      }
      DVMS_ASSIGN_OR_RETURN(VersionedTable * table,
                            catalog_.Get(statement.target_name));
      return table->SetCurrent(std::move(report));
    }
  }
  return Status::Internal("unknown statement kind");
}

Status Dvms::LoadProgram(const std::string& source) {
  RequestScope request(this, {.writable_op = "LoadProgram"});
  DVMS_RETURN_IF_ERROR(request.status());
  // Parsing touches nothing, so a typo'd program fails cleanly with the
  // log and memory still in agreement.
  DVMS_ASSIGN_OR_RETURN(Program program, ParseProgram(source));
  size_t applied = 0;
  Status st = Status::OK();
  for (const Statement& stmt : program.statements) {
    st = Execute(stmt);
    if (!st.ok()) break;
    ++applied;
  }
  if (st.ok()) st = ProcessChanges(catalog_.Names());
  // Commit the initial visualization state so @vnow-1 is addressable from
  // the first interaction.
  if (st.ok()) st = CommitViews();
  if (st.ok()) st = Render();
  if (st.ok()) {
    WalRecord record;
    record.op = WalRecord::Op::kLoadProgram;
    record.text = source;
    st = LogCommitted(record);
    if (!st.ok()) {
      PoisonDurability("program applied but not logged", st);
    }
  } else if (applied > 0 && ShouldLog()) {
    // A mid-program failure leaves the already-executed statements applied
    // in memory — their DDL cannot be rolled back — but nothing was logged
    // for them (a program commits as one frame). Fail-stop rather than log
    // later frames against state the log never saw.
    PoisonDurability("program partially applied but not logged", st);
  }
  return st;
}

Result<Table> Dvms::Query(const std::string& select_sql) {
  obs::Span span("engine.query");
  // An internal session sharing the engine cancel flag: RequestCancel()
  // aborts the next request, and the read that aborts consumes it.
  Session::Options session_options;
  session_options.cancel_flag = cancel_flag_;
  return Session(this, session_options).Query(select_sql);
}

ExecOptions Dvms::ReadOptions() const {
  ExecOptions opts;
  opts.pool = owned_pool_.get();
  opts.num_threads = options_.num_threads;
  return opts;
}

Status Dvms::RecomputeTrace(const TraceDefEntry& entry) {
  TraceEngine::Mode mode = options_.capture_lineage
                               ? TraceEngine::Mode::kEager
                               : TraceEngine::Mode::kLazy;
  Table result(Schema{});
  if (entry.stmt.backward) {
    DVMS_ASSIGN_OR_RETURN(result, traces_.Backward(entry.stmt, mode));
  } else {
    DVMS_ASSIGN_OR_RETURN(result, traces_.Forward(entry.stmt, mode));
  }
  DVMS_ASSIGN_OR_RETURN(VersionedTable * table, catalog_.Get(entry.name));
  DVMS_RETURN_IF_ERROR(table->SetCurrent(std::move(result)));
  ++stats_.trace_recomputes;
  return Status::OK();
}

Status Dvms::ProcessChanges(std::vector<std::string> changed) {
  constexpr int kMaxRounds = 4;
  for (int round = 0; round < kMaxRounds && !changed.empty(); ++round) {
    DVMS_ASSIGN_OR_RETURN(std::vector<std::string> affected,
                          maintainer_.registry().AffectedBy(changed));
    DVMS_RETURN_IF_ERROR(maintainer_.OnChanged(changed));

    std::unordered_set<std::string> dirty;
    for (const std::string& name : changed) dirty.insert(IdentKey(name));
    for (const std::string& name : affected) dirty.insert(IdentKey(name));

    std::vector<std::string> next;
    for (const TraceDefEntry& entry : trace_defs_) {
      bool hit = false;
      for (const std::string& dep : entry.deps) {
        if (dirty.count(IdentKey(dep)) > 0) {
          hit = true;
          break;
        }
      }
      if (hit) {
        DVMS_RETURN_IF_ERROR(RecomputeTrace(entry));
        next.push_back(entry.name);
      }
    }
    changed = std::move(next);
  }
  return Status::OK();
}

Status Dvms::CommitViews() {
  // Commit every relation so @vnow-k addresses a consistent interaction
  // boundary across base data, event tables, views, and traces — this is
  // also what Undo()/Redo() step through.
  std::unordered_map<std::string, TablePtr> snapshot;
  for (const std::string& name : catalog_.Names()) {
    DVMS_ASSIGN_OR_RETURN(RelationKind kind, catalog_.KindOf(name));
    if (kind == RelationKind::kSystem) continue;
    DVMS_ASSIGN_OR_RETURN(VersionedTable * table, catalog_.Get(name));
    table->Commit();
    if (kind == RelationKind::kBase || kind == RelationKind::kEvent) {
      snapshot.emplace(IdentKey(name), table->CurrentImage());
    }
  }
  if (options_.capture_lineage) maintainer_.SnapshotCommitted();
  // Committing truncates any redo future and extends the undo history.
  if (undo_cursor_ > 0 && undo_cursor_ < undo_history_.size()) {
    undo_history_.resize(undo_history_.size() - undo_cursor_);
  }
  undo_cursor_ = 0;
  undo_history_.push_back(std::move(snapshot));
  constexpr size_t kMaxUndoDepth = 32;
  if (undo_history_.size() > kMaxUndoDepth) {
    undo_history_.erase(undo_history_.begin());
  }
  return Status::OK();
}

Result<size_t> Dvms::Delete(const std::string& name,
                            const ExprPtr& predicate) {
  RequestScope request(this, {.writable_op = "Delete"});
  DVMS_RETURN_IF_ERROR(request.status());
  WalRecord record;
  if (ShouldLog()) {
    record.op = WalRecord::Op::kDelete;
    record.name = name;
    record.predicate = predicate;  // shared, immutable once logged
  }
  BeginMutationUnit();
  Result<size_t> removed = DeleteLocked(name, predicate);
  Status st = removed.status();
  if (st.ok()) st = LogCommitted(record);
  st = EndMutationUnit(st);
  if (!st.ok()) return st;
  return removed;
}

Result<size_t> Dvms::DeleteLocked(const std::string& name,
                                  const ExprPtr& predicate) {
  DVMS_ASSIGN_OR_RETURN(RelationKind kind, catalog_.KindOf(name));
  if (kind != RelationKind::kBase) {
    return Status::InvalidArgument(
        "DELETE targets base relations; '" + name + "' is " +
        RelationKindToString(kind));
  }
  DVMS_ASSIGN_OR_RETURN(VersionedTable * table, catalog_.Get(name));
  Table& current = table->mutable_current();
  size_t removed = 0;
  if (predicate == nullptr) {
    removed = current.num_rows();
    current.Clear();
  } else {
    // Bind the predicate against the relation's schema.
    ExprPtr bound = CloneExpr(predicate);
    std::vector<BoundField> scope;
    for (const Column& col : table->schema().columns()) {
      scope.push_back({name, col.name, col.type});
    }
    CatalogSchemaResolver resolver(&catalog_);
    Binder binder(&resolver, &udfs_);
    DVMS_RETURN_IF_ERROR(binder.BindExpr(bound.get(), scope));
    EvalContext ctx;
    ctx.udfs = &udfs_;
    std::vector<Row> kept;
    for (const Row& row : current.rows()) {
      DVMS_ASSIGN_OR_RETURN(bool match, EvalPredicate(*bound, row, ctx));
      if (match) {
        ++removed;
      } else {
        kept.push_back(row);
      }
    }
    current.ReplaceRows(std::move(kept));
  }
  DVMS_RETURN_IF_ERROR(ProcessChanges({name}));
  if (options_.auto_render) {
    DVMS_RETURN_IF_ERROR(Render());
  }
  return removed;
}

Status Dvms::RestoreToCursor() {
  const auto& snapshot = undo_history_[undo_history_.size() - 1 - undo_cursor_];
  std::vector<std::string> changed;
  for (const auto& [key, table_ptr] : snapshot) {
    DVMS_ASSIGN_OR_RETURN(VersionedTable * table, catalog_.Get(key));
    DVMS_RETURN_IF_ERROR(table->SetCurrentImage(table_ptr));
    changed.push_back(key);
  }
  DVMS_RETURN_IF_ERROR(ProcessChanges(std::move(changed)));
  if (options_.auto_render) return Render();
  return Status::OK();
}

bool Dvms::CanUndo() const {
  MuLock lock(mu_, write_lock_acquisitions_);
  return undo_cursor_ + 1 < undo_history_.size();
}

bool Dvms::CanRedo() const {
  MuLock lock(mu_, write_lock_acquisitions_);
  return undo_cursor_ > 0;
}

Status Dvms::Undo() {
  RequestScope request(this, {.writable_op = "Undo"});
  DVMS_RETURN_IF_ERROR(request.status());
  WalRecord record;
  record.op = WalRecord::Op::kUndo;
  BeginMutationUnit();
  Status st = UndoLocked();
  if (st.ok()) st = LogCommitted(record);
  return EndMutationUnit(st);
}

Status Dvms::UndoLocked() {
  if (!CanUndo()) {
    return Status::InvalidArgument("nothing to undo (history exhausted)");
  }
  ++undo_cursor_;
  return RestoreToCursor();
}

Status Dvms::Redo() {
  RequestScope request(this, {.writable_op = "Redo"});
  DVMS_RETURN_IF_ERROR(request.status());
  WalRecord record;
  record.op = WalRecord::Op::kRedo;
  BeginMutationUnit();
  Status st = RedoLocked();
  if (st.ok()) st = LogCommitted(record);
  return EndMutationUnit(st);
}

Status Dvms::RedoLocked() {
  if (!CanRedo()) {
    return Status::InvalidArgument("nothing to redo");
  }
  --undo_cursor_;
  return RestoreToCursor();
}

std::string Dvms::DumpState() const {
  MuLock lock(mu_, write_lock_acquisitions_);
  std::string out = "relations:\n";
  for (const std::string& name : catalog_.Names()) {
    auto table = catalog_.Get(name);
    auto kind = catalog_.KindOf(name);
    if (!table.ok() || !kind.ok()) continue;
    const VersionedTable* t = table.value();
    out += "  " + name + " [" + RelationKindToString(kind.value()) + "] " +
           std::to_string(t->current().num_rows()) + " rows, " +
           std::to_string(t->num_committed_versions()) + " versions" +
           (t->in_transaction() ? ", in transaction" : "") + "\n";
  }
  out += "patterns:\n";
  for (const std::string& name : recognizer_.PatternNames()) {
    out += "  " + name + "\n";
  }
  out += "trace relations:\n";
  for (const TraceDefEntry& entry : trace_defs_) {
    out += "  " + entry.name + " -> " + entry.stmt.target_relation +
           (entry.stmt.backward ? " (backward)" : " (forward)") + "\n";
  }
  out += "stats:\n";
  out += "  events_processed: " + std::to_string(stats_.events_processed) +
         "\n";
  out += "  transactions_started: " +
         std::to_string(stats_.transactions_started) + "\n";
  out += "  transactions_committed: " +
         std::to_string(stats_.transactions_committed) + "\n";
  out += "  transactions_aborted: " +
         std::to_string(stats_.transactions_aborted) + "\n";
  out += "  renders: " + std::to_string(stats_.renders) + "\n";
  out += "  trace_recomputes: " + std::to_string(stats_.trace_recomputes) +
         "\n";
  out += "rollbacks: " + std::to_string(stats_.interactions_rolled_back) + "\n";
  if (FaultInjector* injector = fault::Active()) {
    out += "fault injection (seed " + std::to_string(injector->config().seed) +
           ", rate " + std::to_string(injector->config().rate) + "):\n";
    for (size_t i = 0; i < kNumFaultSites; ++i) {
      FaultSite site = static_cast<FaultSite>(i);
      out += std::string("  ") + FaultSiteToString(site) + ": " +
             std::to_string(injector->injections(site)) + "/" +
             std::to_string(injector->checks(site)) + " checks fired\n";
    }
  }
  return out;
}

Result<std::string> Dvms::ExplainView(const std::string& name) const {
  MuLock lock(mu_, write_lock_acquisitions_);
  DVMS_ASSIGN_OR_RETURN(const ViewDef* def, maintainer_.registry().Get(name));
  std::string out = "view " + def->name +
                    (def->renders ? " (marks, rendered)" : "") + "\n";
  out += "plan:\n" + def->plan->ToString(1);
  out += "reads (current): ";
  for (size_t i = 0; i < def->current_deps.size(); ++i) {
    if (i > 0) out += ", ";
    out += def->current_deps[i];
  }
  out += "\nreads (versioned): ";
  for (size_t i = 0; i < def->versioned_deps.size(); ++i) {
    if (i > 0) out += ", ";
    out += def->versioned_deps[i];
  }
  out += "\n";
  return out;
}

Status Dvms::PushEvent(const InputEvent& event) {
  RequestScope request(this, {.writable_op = "PushEvent"});
  DVMS_RETURN_IF_ERROR(request.status());
  WalRecord record;
  if (ShouldLog()) {
    record.op = WalRecord::Op::kEvent;
    record.event = event;
  }
  BeginMutationUnit();
  Status st = PushEventLocked(event);
  if (st.ok()) st = LogCommitted(record);
  return EndMutationUnit(st);
}

Status Dvms::PushEventLocked(const InputEvent& event) {
  obs::Span span("engine.push_event");
  ++stats_.events_processed;
  DVMS_ASSIGN_OR_RETURN(std::vector<EventRecognizer::FeedOutcome> outcomes,
                        recognizer_.Feed(event));
  if (outcomes.empty()) return Status::OK();

  std::vector<std::string> changed;
  bool committed = false;
  for (const EventRecognizer::FeedOutcome& outcome : outcomes) {
    switch (outcome.action) {
      case MatchAction::kStarted:
        ++stats_.transactions_started;
        break;
      case MatchAction::kCommitted:
        ++stats_.transactions_committed;
        committed = true;
        break;
      case MatchAction::kAborted:
        ++stats_.transactions_aborted;
        break;
      default:
        break;
    }
    if (outcome.rows_inserted > 0 || outcome.action == MatchAction::kAborted ||
        outcome.action == MatchAction::kCommitted) {
      changed.push_back(outcome.table);
    }
  }
  if (!changed.empty()) {
    DVMS_RETURN_IF_ERROR(ProcessChanges(std::move(changed)));
  }
  if (committed) {
    // The accept state persists the new visualization state.
    DVMS_RETURN_IF_ERROR(CommitViews());
  }
  if (options_.auto_render) return Render();
  return Status::OK();
}

Status Dvms::PushEvents(const std::vector<InputEvent>& events) {
  // Not logged itself: each nested PushEvent logs and publishes its own
  // frame.
  RequestScope request(this, {.writable_op = "PushEvents", .logged = false});
  DVMS_RETURN_IF_ERROR(request.status());
  for (const InputEvent& event : events) {
    DVMS_RETURN_IF_ERROR(PushEvent(event));
  }
  return Status::OK();
}

Status Dvms::Render() {
  RequestScope request(this, {.logged = false});
  DVMS_RETURN_IF_ERROR(request.status());
  BeginMutationUnit();
  return EndMutationUnit(RenderLocked());
}

Status Dvms::RenderLocked() {
  obs::Span span("engine.render");
  if (unit_depth_ > 0) unit_.render_entered = true;
  pixels_.Clear(RGBA{255, 255, 255, 255});
  RenderOptions render_opts;
  render_opts.pool = owned_pool_.get();
  render_opts.num_threads = options_.num_threads;
  for (const std::string& name : render_views_) {
    DVMS_ASSIGN_OR_RETURN(VersionedTable * table, catalog_.Get(name));
    DVMS_RETURN_IF_ERROR(RenderMarks(table->current(), &pixels_, render_opts));
  }
  ++stats_.renders;
  return Status::OK();
}

Status Dvms::ComposeInteractions(const std::string& first,
                                 const std::string& second,
                                 const std::string& merged_name) {
  RequestScope request(this, {.writable_op = "ComposeInteractions",
                              .new_name = &merged_name});
  DVMS_RETURN_IF_ERROR(request.status());
  DVMS_ASSIGN_OR_RETURN(const EventStmt* a, recognizer_.GetStatement(first));
  DVMS_ASSIGN_OR_RETURN(const EventStmt* b, recognizer_.GetStatement(second));
  DVMS_ASSIGN_OR_RETURN(EventStmt merged, MergeSequential(*a, *b));
  DVMS_RETURN_IF_ERROR(recognizer_.DefinePattern(merged_name, merged));
  WalRecord record;
  record.op = WalRecord::Op::kCompose;
  record.name = merged_name;
  record.compose_first = first;
  record.compose_second = second;
  Status logged = LogCommitted(record);
  if (!logged.ok()) {
    // The merged pattern (and its compound-event table) is already defined
    // and cannot be rolled back here.
    PoisonDurability("composed pattern defined but not logged", logged);
  }
  return logged;
}

std::vector<std::string> Dvms::AnalyzeInteractions() const {
  MuLock lock(mu_, write_lock_acquisitions_);
  std::vector<std::pair<std::string, const CompiledPattern*>> patterns;
  for (const std::string& name : recognizer_.PatternNames()) {
    auto pattern = recognizer_.GetPattern(name);
    if (pattern.ok()) patterns.emplace_back(name, pattern.value());
  }
  return AnalyzeAmbiguity(patterns);
}

// ---- Durability ----

Status Dvms::recovery_status() const {
  MuLock lock(mu_, write_lock_acquisitions_);
  return recovery_status_;
}

DurabilityStats Dvms::durability_stats() const {
  MuLock lock(mu_, write_lock_acquisitions_);
  if (durability_ == nullptr) return DurabilityStats{};
  return durability_->stats();
}

Status Dvms::FlushWal() {
  MuLock lock(mu_, write_lock_acquisitions_);
  if (durability_ == nullptr || durability_poisoned_) return Status::OK();
  Status st = durability_->Flush();
  if (!st.ok() && env::IsOutOfSpace(st)) EnterDegraded("wal flush", st);
  return st;
}

Status Dvms::Checkpoint() {
  DVMS_RETURN_IF_ERROR(CheckWritable("Checkpoint"));
  MuLock lock(mu_, write_lock_acquisitions_);
  if (durability_ == nullptr) {
    return Status::InvalidArgument("durability is not enabled (no data_dir)");
  }
  if (durability_poisoned_) {
    return Status::ExecutionError("durability disabled (fail-stop): " +
                                  recovery_status_.message());
  }
  Status st = WriteSnapshotLocked();
  if (!st.ok() && env::IsOutOfSpace(st)) {
    // The log is intact and nothing was acknowledged, but the disk is
    // full: degrade to read-only until the space probe clears.
    EnterDegraded("checkpoint snapshot", st);
    return Status::StorageDegraded("checkpoint not written: " + st.message());
  }
  return st;
}

void Dvms::AttachScheduler(StreamScheduler* scheduler) {
  MuLock lock(mu_, write_lock_acquisitions_);
  scheduler_ = scheduler;
  if (scheduler_ != nullptr && pending_scheduler_state_) {
    scheduler_->RestoreDurableState(std::move(scheduler_state_));
    pending_scheduler_state_ = false;
    scheduler_state_ = StreamScheduler::DurableState{};
  }
}

void Dvms::PoisonDurability(const char* what, const Status& cause) {
  durability_poisoned_ = true;
  recovery_status_ = Status::ExecutionError(
      std::string("durability fail-stop (") + what + "): " + cause.message());
  std::fprintf(stderr, "dvms: %s\n", recovery_status_.message().c_str());
}

Status Dvms::LogCommitted(const WalRecord& record) {
  if (!ShouldLog()) return Status::OK();
  std::string payload = EncodeWalRecord(record);
  Status appended = durability_->Append(durability_->last_lsn() + 1, payload);
  if (!appended.ok()) {
    if (env::IsOutOfSpace(appended)) {
      // Out of space is transient and the frame was never acknowledged:
      // degrade to read-only (the caller rolls the mutation back, reads
      // keep serving, a bounded-backoff space probe auto-recovers) instead
      // of the unconditional fail-stop a lost acknowledged frame forces.
      EnterDegraded("wal append", appended);
      return Status::StorageDegraded("mutation not logged: " +
                                     appended.message());
    }
    return appended;
  }
  if (record.IsDefinition()) def_records_.push_back(std::move(payload));
  ++frames_since_snapshot_;
  if (options_.snapshot_interval > 0 &&
      frames_since_snapshot_ >= options_.snapshot_interval) {
    // Snapshots are an optimization: a failed one (e.g. an injected
    // durability fault) must not fail the interaction that triggered it.
    Status snap = WriteSnapshotLocked();
    if (!snap.ok()) {
      std::fprintf(stderr, "dvms: automatic snapshot failed: %s\n",
                   snap.message().c_str());
      frames_since_snapshot_ = 0;  // retry an interval later, not every op
      // A full disk at snapshot time predicts the next append failing the
      // same way; enter degraded mode now. The triggering interaction was
      // logged durably and stays acknowledged.
      if (env::IsOutOfSpace(snap)) EnterDegraded("automatic snapshot", snap);
    }
  }
  return Status::OK();
}

EngineSnapshot Dvms::BuildSnapshotLocked() const {
  EngineSnapshot snapshot;
  snapshot.last_lsn = durability_->last_lsn();
  snapshot.definition_ops = def_records_;
  for (const std::string& name : catalog_.Names()) {
    // System relations hold nondeterministic timing content; excluding them
    // keeps snapshot payloads replay-stable.
    auto kind = catalog_.KindOf(name);
    if (kind.ok() && kind.value() == RelationKind::kSystem) continue;
    auto table = catalog_.Get(name);
    if (!table.ok()) continue;
    snapshot.relations.push_back(
        EngineSnapshot::RelationState{name, table.value()->SaveDurableState()});
  }
  snapshot.matchers = recognizer_.SaveMatcherStates();
  snapshot.counters.events_processed = stats_.events_processed;
  snapshot.counters.transactions_started = stats_.transactions_started;
  snapshot.counters.transactions_committed = stats_.transactions_committed;
  snapshot.counters.transactions_aborted = stats_.transactions_aborted;
  snapshot.counters.renders = stats_.renders;
  snapshot.counters.trace_recomputes = stats_.trace_recomputes;
  snapshot.counters.interactions_rolled_back = stats_.interactions_rolled_back;
  for (const auto& commit : undo_history_) {
    std::vector<std::pair<std::string, TablePtr>> entry(commit.begin(),
                                                        commit.end());
    std::sort(entry.begin(), entry.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    snapshot.undo_history.push_back(std::move(entry));
  }
  snapshot.undo_cursor = undo_cursor_;
  if (scheduler_ != nullptr) {
    snapshot.has_scheduler = true;
    snapshot.scheduler = scheduler_->SaveDurableState();
  } else if (pending_scheduler_state_) {
    // Recovered scheduler state that nothing reclaimed yet still belongs
    // to the durable image — don't drop it on the next snapshot.
    snapshot.has_scheduler = true;
    snapshot.scheduler = scheduler_state_;
  }
  return snapshot;
}

Status Dvms::WriteSnapshotLocked() {
  EngineSnapshot snapshot = BuildSnapshotLocked();
  std::string payload = EncodeEngineSnapshot(snapshot);
  DVMS_RETURN_IF_ERROR(durability_->WriteSnapshot(snapshot.last_lsn, payload));
  frames_since_snapshot_ = 0;
  return Status::OK();
}

Status Dvms::ApplyWalRecord(const WalRecord& record) {
  switch (record.op) {
    case WalRecord::Op::kCreateTable:
      return CreateBaseTable(record.name, record.schema);
    case WalRecord::Op::kInsert:
      return Insert(record.name, record.rows);
    case WalRecord::Op::kDelete:
      return Delete(record.name, record.predicate).status();
    case WalRecord::Op::kCreateScale:
      return CreateScale(record.name, record.scale_domain_min,
                         record.scale_domain_max, record.scale_range_min,
                         record.scale_range_max);
    case WalRecord::Op::kLoadProgram:
      return LoadProgram(record.text);
    case WalRecord::Op::kStatement:
      return Execute(record.statement);
    case WalRecord::Op::kEvent:
      return PushEvent(record.event);
    case WalRecord::Op::kUndo:
      return Undo();
    case WalRecord::Op::kRedo:
      return Redo();
    case WalRecord::Op::kCompose:
      return ComposeInteractions(record.compose_first, record.compose_second,
                                 record.name);
  }
  return Status::Internal("unknown wal record op");
}

Status Dvms::RestoreSnapshot(EngineSnapshot snapshot) {
  // 1. Re-execute the definition ops through the normal DDL paths: this
  //    rebuilds compiled plans, NFAs, trace defs, and render-view order.
  //    Their DML side effects (inserts inside programs, commits) are
  //    irrelevant — the physical overlay below replaces all table state.
  def_records_ = snapshot.definition_ops;
  for (const std::string& payload : def_records_) {
    DVMS_ASSIGN_OR_RETURN(WalRecord record, DecodeWalRecord(payload));
    DVMS_RETURN_IF_ERROR(ApplyWalRecord(record));
  }
  // 2. Overlay the physical relation state bit-identically.
  for (EngineSnapshot::RelationState& rel : snapshot.relations) {
    DVMS_ASSIGN_OR_RETURN(VersionedTable * table, catalog_.Get(rel.name));
    table->RestoreDurableState(std::move(rel.state));
    optimizer_.OnRelationChanged(rel.name);
  }
  // 3. NFA runtime states (entry order is deterministic given the same
  //    definition sequence).
  recognizer_.RestoreMatcherStates(std::move(snapshot.matchers));
  // 4. Counters.
  stats_.events_processed = snapshot.counters.events_processed;
  stats_.transactions_started = snapshot.counters.transactions_started;
  stats_.transactions_committed = snapshot.counters.transactions_committed;
  stats_.transactions_aborted = snapshot.counters.transactions_aborted;
  stats_.renders = snapshot.counters.renders;
  stats_.trace_recomputes = snapshot.counters.trace_recomputes;
  stats_.interactions_rolled_back =
      snapshot.counters.interactions_rolled_back;
  // 5. Interaction-level undo history.
  undo_history_.clear();
  for (auto& commit : snapshot.undo_history) {
    undo_history_.emplace_back(std::make_move_iterator(commit.begin()),
                               std::make_move_iterator(commit.end()));
  }
  undo_cursor_ = snapshot.undo_cursor;
  // 6. Stream-scheduler delivery state, held until AttachScheduler().
  if (snapshot.has_scheduler) {
    scheduler_state_ = std::move(snapshot.scheduler);
    pending_scheduler_state_ = true;
  }
  return Status::OK();
}

Status Dvms::RestoreAndReplay(RecoveredLog log) {
  if (log.has_snapshot) {
    DVMS_ASSIGN_OR_RETURN(EngineSnapshot snapshot,
                          DecodeEngineSnapshot(log.snapshot_payload));
    DVMS_RETURN_IF_ERROR(RestoreSnapshot(std::move(snapshot)));
  }
  for (const WalFrame& frame : log.frames) {
    Result<WalRecord> record = DecodeWalRecord(frame.payload);
    if (!record.ok()) {
      return Status::ExecutionError("replay of lsn " +
                                    std::to_string(frame.lsn) + ": " +
                                    record.status().message());
    }
    Status applied = ApplyWalRecord(record.value());
    if (!applied.ok()) {
      return Status::ExecutionError("replay of lsn " +
                                    std::to_string(frame.lsn) + " (" +
                                    WalOpToString(record.value().op) + "): " +
                                    applied.message());
    }
    if (record.value().IsDefinition()) def_records_.push_back(frame.payload);
  }
  return Status::OK();
}

Result<WalFsyncMode> Dvms::ResolveFsyncMode() const {
  std::string mode_text = options_.wal_fsync;
  if (mode_text.empty()) {
    if (const char* env = std::getenv("DVMS_WAL_FSYNC")) mode_text = env;
  }
  if (mode_text.empty()) return WalFsyncMode::kAlways;
  return ParseWalFsyncMode(mode_text);
}

void Dvms::InitDurability() {
  std::string dir = options_.data_dir;
  if (dir.empty()) {
    if (const char* env = std::getenv("DVMS_DATA_DIR")) dir = env;
  }
  if (dir.empty()) return;

  Result<WalFsyncMode> parsed = ResolveFsyncMode();
  if (!parsed.ok()) {
    recovery_status_ = parsed.status();
    std::fprintf(stderr, "dvms: durability disabled: %s\n",
                 recovery_status_.message().c_str());
    return;
  }
  WalFsyncMode mode = parsed.value();

  // Recovery (including the replayed interactions) is internal work: never
  // fault-injected or governed, since it is itself the error-handling path
  // and replay must reproduce logged history regardless of current
  // deadlines; replayed calls are not re-logged or published per record.
  InternalScope internal;
  Result<std::unique_ptr<DurabilityManager>> manager =
      DurabilityManager::Open(dir, mode);
  if (!manager.ok()) {
    recovery_status_ = manager.status();
    std::fprintf(stderr, "dvms: durability disabled: %s\n",
                 recovery_status_.message().c_str());
    return;
  }
  durability_ = std::move(manager).value();
  storage_dir_ = durability_->dir();  // constructor: still single-threaded
  Result<RecoveredLog> recovered = durability_->Recover();
  if (!recovered.ok()) {
    recovery_status_ = recovered.status();
    durability_poisoned_ = true;
    std::fprintf(stderr, "dvms: recovery failed, logging disabled: %s\n",
                 recovery_status_.message().c_str());
    return;
  }

  Status replayed = RestoreAndReplay(std::move(recovered).value());
  if (!replayed.ok()) {
    recovery_status_ = replayed;
    durability_poisoned_ = true;
    std::fprintf(stderr, "dvms: recovery failed, logging disabled: %s\n",
                 recovery_status_.message().c_str());
    return;
  }
  // The framebuffer is not persisted — it is a deterministic function of
  // the (restored) marks views. Re-render without disturbing the counters.
  size_t renders = stats_.renders;
  (void)RenderLocked();
  stats_.renders = renders;
}

// ---- Replication ----

Status Dvms::CheckWritable(const char* op) const {
  // Rejections are counted as dvms_metrics counters so operators can see
  // the rejection *rate*, not just individual statuses. CheckWritable runs
  // at the top of every mutating entry point, before the mutation unit
  // arms, so these counts are never rewound by a rollback's obs restore.
  if (role_.load(std::memory_order_relaxed) == Role::kReplica &&
      !CurrentRequest().is_internal()) {
    obs::Count("engine.rejected_readonly_replica");
    return Status::ReadOnlyReplica(
        std::string(op) + " rejected: this engine is a read replica of " +
        options_.replica_of +
        " (reads stay available; Promote() fails over to writable)");
  }
  if (storage_degraded_.load(std::memory_order_relaxed) &&
      !StorageWritableOrProbe()) {
    std::string reason;
    {
      std::lock_guard<std::mutex> lock(storage_mu_);
      reason = storage_stats_.degraded_reason;
    }
    obs::Count("engine.rejected_storage_degraded");
    return Status::StorageDegraded(
        std::string(op) + " rejected: storage is degraded read-only (" +
        reason +
        "); snapshot reads stay available and a bounded-backoff space probe "
        "re-enables writes when the disk frees");
  }
  return Status::OK();
}

void Dvms::InitReplica() {
  role_.store(Role::kReplica, std::memory_order_relaxed);
  replica_poll_ms_ = options_.replica_poll_ms > 0
                         ? static_cast<uint64_t>(options_.replica_poll_ms)
                         : EnvU64Or("DVMS_REPLICA_POLL_MS", 5);
  if (replica_poll_ms_ == 0) replica_poll_ms_ = 1;
  replica_retry_budget_ =
      options_.replica_retry_budget > 0
          ? static_cast<uint64_t>(options_.replica_retry_budget)
          : EnvU64Or("DVMS_REPLICA_RETRY_BUDGET", 8);
  if (options_.replica_jitter_seed != 0) {
    replica_jitter_seed_ = options_.replica_jitter_seed;
  } else {
    // Derive a per-replica seed: a process-wide counter decorrelates
    // replicas of the same process, the pid decorrelates processes started
    // together (the lockstep case the jitter exists to break).
    static std::atomic<uint64_t> counter{0};
    replica_jitter_seed_ =
        (static_cast<uint64_t>(::getpid()) << 32) ^
        (counter.fetch_add(1, std::memory_order_relaxed) * 0x9e3779b97f4a7c15ULL ^
         0x5eedULL);
    if (replica_jitter_seed_ == 0) replica_jitter_seed_ = 0x5eedULL;
  }
  {
    std::lock_guard<std::mutex> lock(repl_mu_);
    repl_.replica = true;
  }
  // Bootstrap read-only from whatever the primary's directory holds right
  // now. Like recovery, the bootstrap replay is internal work: never
  // fault-injected or governed, and the one writer a replica admits.
  InternalScope internal;
  uint64_t applied = 0;
  Result<RecoveredLog> log = ReadLogReadOnly(options_.replica_of);
  if (log.ok()) {
    RecoveredLog recovered = std::move(log).value();
    if (recovered.has_snapshot) applied = recovered.snapshot_lsn;
    if (!recovered.frames.empty()) applied = recovered.frames.back().lsn;
    Status st = RestoreAndReplay(std::move(recovered));
    if (!st.ok()) {
      // A half-applied bootstrap cannot be retried in place (replaying from
      // lsn 0 onto a populated catalog would double-apply): fail-stop into
      // permanently-stale, like a primary whose recovery failed.
      recovery_status_ =
          Status::ExecutionError("replica bootstrap failed: " + st.message());
      std::fprintf(stderr, "dvms: %s\n", recovery_status_.message().c_str());
      std::lock_guard<std::mutex> lock(repl_mu_);
      repl_.stale = true;
      repl_.last_error = recovery_status_.message();
      return;  // no tailer: the replica serves whatever state it reached
    }
    size_t renders = stats_.renders;
    (void)RenderLocked();
    stats_.renders = renders;
  } else {
    // Missing or unreadable directory — a replica may start before its
    // primary. Start empty; the tailer catches up once frames appear.
    std::lock_guard<std::mutex> lock(repl_mu_);
    repl_.last_error = log.status().message();
  }
  {
    std::lock_guard<std::mutex> lock(repl_mu_);
    repl_.replica_lsn = applied;
    if (applied > repl_.primary_lsn) repl_.primary_lsn = applied;
  }
  tailer_ = std::make_unique<WalTailer>(options_.replica_of, applied);
}

void Dvms::TailLoop() {
  uint64_t consecutive_failures = 0;
  // Exponential backoff under sustained failure (capped at 64x the poll
  // cadence) with seeded per-replica jitter so a fleet of replicas spreads
  // its polls instead of hitting the primary's directory in lockstep.
  PollCadence cadence(replica_poll_ms_, replica_jitter_seed_);
  for (;;) {
    // A cv wait so StopTailer() interrupts the sleep promptly.
    uint64_t wait_ms = cadence.NextWaitMs(consecutive_failures);
    {
      std::unique_lock<std::mutex> lock(tail_mu_);
      tail_cv_.wait_for(lock, std::chrono::milliseconds(wait_ms),
                        [this] { return tail_stop_; });
      if (tail_stop_) return;
    }
    Result<std::vector<WalFrame>> polled = tailer_->Poll();
    if (!polled.ok()) {
      ++consecutive_failures;
      const bool terminal = polled.status().code() == StatusCode::kNotFound;
      {
        std::lock_guard<std::mutex> lock(repl_mu_);
        ++repl_.poll_errors;
        repl_.last_error = polled.status().message();
        SyncTailerStatsLocked();
        if (terminal || consecutive_failures > replica_retry_budget_) {
          // Degraded, not dead: the last applied epoch stays served and
          // (unless terminal) polling continues.
          repl_.stale = true;
        }
      }
      obs::Count("replication.poll_errors");
      if (terminal) {
        std::fprintf(stderr, "dvms: replica tailing stopped: %s\n",
                     polled.status().message().c_str());
        return;
      }
      continue;
    }
    consecutive_failures = 0;
    std::vector<WalFrame> frames = std::move(polled).value();
    if (frames.empty()) {
      std::lock_guard<std::mutex> lock(repl_mu_);
      repl_.stale = false;
      repl_.last_error.clear();
      SyncTailerStatsLocked();
      continue;
    }
    if (!ApplyReplicaBatch(std::move(frames))) return;
  }
}

bool Dvms::ApplyReplicaBatch(std::vector<WalFrame> frames) {
  const auto start = std::chrono::steady_clock::now();
  uint64_t batch_bytes = 0;
  for (const WalFrame& frame : frames) {
    batch_bytes += frame.payload.size() + kWalFrameOverhead;
  }
  {
    std::lock_guard<std::mutex> lock(repl_mu_);
    repl_.lag_bytes = batch_bytes;
    SyncTailerStatsLocked();
  }
  MuLock lock(mu_, write_lock_acquisitions_);
  // Replaying the primary's history must reproduce it exactly: internal
  // like recovery so injected faults and governor aborts cannot make the
  // pair diverge. Only this thread's request is internal: a concurrent
  // read still takes a reader slot, and an external write is still
  // rejected.
  InternalScope internal;
  Status st = Status::OK();
  uint64_t applied = 0;
  uint64_t applied_count = 0;
  for (const WalFrame& frame : frames) {
    Result<WalRecord> record = DecodeWalRecord(frame.payload);
    if (!record.ok()) {
      st = Status::ExecutionError("replica apply of lsn " +
                                  std::to_string(frame.lsn) + ": " +
                                  record.status().message());
      break;
    }
    st = ApplyWalRecord(record.value());
    if (!st.ok()) {
      st = Status::ExecutionError(
          "replica apply of lsn " + std::to_string(frame.lsn) + " (" +
          WalOpToString(record.value().op) + "): " + st.message());
      break;
    }
    if (record.value().IsDefinition()) def_records_.push_back(frame.payload);
    applied = frame.lsn;
    ++applied_count;
  }
  // Publish even a partial batch: each frame applied all-or-nothing
  // through its entry point, so the catalog is the primary's state at
  // `applied` — a consistent committed prefix.
  PublishSnapshotLocked();
  if (obs::Enabled()) {
    obs::Observe("replication.apply_batch_us",
                 static_cast<double>(
                     std::chrono::duration_cast<std::chrono::microseconds>(
                         std::chrono::steady_clock::now() - start)
                         .count()));
    obs::Count("replication.frames_applied", applied_count);
  }
  {
    std::lock_guard<std::mutex> repl_lock(repl_mu_);
    if (applied_count > 0) repl_.replica_lsn = applied;
    repl_.frames_applied += applied_count;
    ++repl_.batches_applied;
    repl_.lag_bytes = 0;
    SyncTailerStatsLocked();
    if (st.ok()) {
      repl_.stale = false;
      repl_.last_error.clear();
    } else {
      // The replica must not skip a frame; applying past a failure would
      // diverge from the primary. Terminal for the tailer.
      repl_.stale = true;
      repl_.last_error = st.message();
    }
  }
  if (!st.ok()) {
    std::fprintf(stderr, "dvms: replica tailing stopped: %s\n",
                 st.message().c_str());
    return false;
  }
  return true;
}

void Dvms::StopTailer() {
  {
    std::lock_guard<std::mutex> lock(tail_mu_);
    tail_stop_ = true;
  }
  tail_cv_.notify_all();
  if (tail_thread_.joinable()) tail_thread_.join();
}

void Dvms::SyncTailerStatsLocked() {
  // Tail thread only (tailer_ is not otherwise synchronized), repl_mu_
  // held by the caller.
  if (tailer_ == nullptr) return;
  const TailerStats& ts = tailer_->stats();
  repl_.polls = ts.polls;
  repl_.torn_tail_retries = ts.torn_tail_retries;
  repl_.rotations = ts.rotations;
  if (ts.primary_lsn > repl_.primary_lsn) repl_.primary_lsn = ts.primary_lsn;
  if (repl_.replica_lsn > repl_.primary_lsn) {
    repl_.primary_lsn = repl_.replica_lsn;
  }
}

Dvms::ReplicationStats Dvms::replication_stats() const {
  std::lock_guard<std::mutex> lock(repl_mu_);
  ReplicationStats rs = repl_;
  rs.lag_frames = rs.primary_lsn > rs.replica_lsn
                      ? rs.primary_lsn - rs.replica_lsn
                      : 0;
  return rs;
}

Table Dvms::BuildReplicationTable() const {
  Table out(Schema({{"name", ValueType::kString},
                    {"value", ValueType::kInt64}}));
  auto row = [&out](const char* name, int64_t value) {
    out.AppendUnchecked({Value::String(name), Value::Int(value)});
  };
  ReplicationStats rs = replication_stats();
  row("replica", rs.replica ? 1 : 0);
  row("promoted", rs.promoted ? 1 : 0);
  row("stale", rs.stale ? 1 : 0);
  row("replica_lsn", static_cast<int64_t>(rs.replica_lsn));
  row("primary_lsn", static_cast<int64_t>(rs.primary_lsn));
  row("lag_frames", static_cast<int64_t>(rs.lag_frames));
  row("lag_bytes", static_cast<int64_t>(rs.lag_bytes));
  row("batches_applied", static_cast<int64_t>(rs.batches_applied));
  row("frames_applied", static_cast<int64_t>(rs.frames_applied));
  row("polls", static_cast<int64_t>(rs.polls));
  row("poll_errors", static_cast<int64_t>(rs.poll_errors));
  row("torn_tail_retries", static_cast<int64_t>(rs.torn_tail_retries));
  row("rotations", static_cast<int64_t>(rs.rotations));
  return out;
}

uint64_t Dvms::wal_lsn() const {
  if (is_replica()) {
    std::lock_guard<std::mutex> lock(repl_mu_);
    return repl_.replica_lsn;
  }
  MuLock lock(mu_, write_lock_acquisitions_);
  return durability_ != nullptr ? durability_->last_lsn() : 0;
}

uint64_t Dvms::WaitForReplicaLsn(uint64_t lsn, int64_t timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    if (!is_replica()) return wal_lsn();
    uint64_t at;
    {
      std::lock_guard<std::mutex> lock(repl_mu_);
      at = repl_.replica_lsn;
    }
    if (at >= lsn || std::chrono::steady_clock::now() >= deadline) return at;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

Status Dvms::Promote() {
  if (role_.load(std::memory_order_relaxed) != Role::kReplica) {
    return Status::InvalidArgument("Promote: engine is not a replica");
  }
  // Stop the tailer first, without mu_ (the tail thread takes mu_ to
  // apply). After the join this thread is the only mutator.
  StopTailer();
  MuLock lock(mu_, write_lock_acquisitions_);
  // Promotion is the error-handling path; like recovery it runs as
  // internal work, never fault-injected or governed.
  InternalScope internal;
  DVMS_ASSIGN_OR_RETURN(WalFsyncMode mode, ResolveFsyncMode());
  // Standard crash recovery on the primary's directory: seals any torn
  // tail and opens the log for append — from here on this engine owns it.
  DVMS_ASSIGN_OR_RETURN(std::unique_ptr<DurabilityManager> manager,
                        DurabilityManager::Open(options_.replica_of, mode));
  DVMS_ASSIGN_OR_RETURN(RecoveredLog sealed, manager->Recover());
  uint64_t applied;
  {
    std::lock_guard<std::mutex> repl_lock(repl_mu_);
    applied = repl_.replica_lsn;
  }
  const uint64_t sealed_lsn = manager->last_lsn();
  if (sealed_lsn < applied) {
    // The tailer only ever delivered CRC-valid frames, which recovery
    // never truncates — so this means the directory lost acknowledged
    // frames (or is not the directory we were tailing). Divergence risk:
    // stay a read-only replica.
    return Status::ExecutionError(
        "promote: replica applied lsn " + std::to_string(applied) +
        " but the sealed log ends at " + std::to_string(sealed_lsn) +
        "; refusing to promote a replica ahead of the surviving log");
  }
  if (sealed.has_snapshot && sealed.snapshot_lsn > applied) {
    // The sealed image resumes from a snapshot ahead of everything this
    // replica applied; the intervening frames are no longer on disk, so
    // the suffix cannot be replayed onto our state.
    return Status::ExecutionError(
        "promote: sealed log resumes at snapshot lsn " +
        std::to_string(sealed.snapshot_lsn) + " but this replica applied " +
        std::to_string(applied) +
        "; it lagged past the pruning window — start a fresh engine on the "
        "directory instead");
  }
  // Catch up on the sealed suffix this replica had not applied yet.
  for (const WalFrame& frame : sealed.frames) {
    if (frame.lsn <= applied) continue;
    Result<WalRecord> record = DecodeWalRecord(frame.payload);
    Status st = record.ok() ? ApplyWalRecord(record.value()) : record.status();
    if (!st.ok()) {
      return Status::ExecutionError("promote: replay of sealed lsn " +
                                    std::to_string(frame.lsn) + ": " +
                                    st.message());
    }
    if (record.value().IsDefinition()) def_records_.push_back(frame.payload);
    applied = frame.lsn;
  }
  durability_ = std::move(manager);
  durability_poisoned_ = false;
  recovery_status_ = Status::OK();
  frames_since_snapshot_ = 0;
  {
    std::lock_guard<std::mutex> storage_lock(storage_mu_);
    storage_dir_ = durability_->dir();
  }
  role_.store(Role::kPrimary, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> repl_lock(repl_mu_);
    repl_.replica = false;
    repl_.promoted = true;
    repl_.stale = false;
    repl_.last_error.clear();
    repl_.replica_lsn = sealed_lsn;
    repl_.primary_lsn = sealed_lsn;
    repl_.lag_bytes = 0;
  }
  size_t renders = stats_.renders;
  (void)RenderLocked();
  stats_.renders = renders;
  PublishSnapshotLocked();
  obs::Count("replication.promotions");
  return Status::OK();
}

// ---- Storage health: degraded mode + integrity scrubber ----

void Dvms::EnterDegraded(const char* what, const Status& cause) {
  bool entered = false;
  {
    std::lock_guard<std::mutex> lock(storage_mu_);
    entered = !storage_degraded_.exchange(true, std::memory_order_relaxed);
    storage_stats_.degraded_reason =
        std::string(what) + ": " + cause.message();
    if (entered) {
      ++storage_stats_.degraded_entries;
      probe_backoff_us_ = kProbeBackoffFloorUs;
      next_probe_us_ = SteadyMicros() + static_cast<int64_t>(probe_backoff_us_);
    }
  }
  if (entered) {
    // Counted in storage_stats_, not obs: entry often happens inside a
    // mutation unit whose rollback rewinds obs counters (like the
    // engine.write_lock witness, the degraded trail must survive that).
    std::fprintf(stderr, "dvms: entering degraded read-only mode (%s): %s\n",
                 what, cause.message().c_str());
  }
}

bool Dvms::StorageWritableOrProbe() const {
  std::lock_guard<std::mutex> lock(storage_mu_);
  if (!storage_degraded_.load(std::memory_order_relaxed)) {
    return true;  // another caller's probe already cleared the mode
  }
  const int64_t now = SteadyMicros();
  if (now < next_probe_us_) return false;  // inside the backoff window
  ++storage_stats_.space_probes;
  Status probed = ProbeStorage();
  if (!probed.ok()) {
    probe_backoff_us_ =
        std::min<uint64_t>(probe_backoff_us_ * 2, kProbeBackoffCapUs);
    if (probe_backoff_us_ < kProbeBackoffFloorUs) {
      probe_backoff_us_ = kProbeBackoffFloorUs;
    }
    next_probe_us_ = now + static_cast<int64_t>(probe_backoff_us_);
    return false;
  }
  storage_degraded_.store(false, std::memory_order_relaxed);
  ++storage_stats_.degraded_exits;
  storage_stats_.degraded_reason.clear();
  std::fprintf(stderr,
               "dvms: space probe succeeded; leaving degraded read-only "
               "mode\n");
  return true;
}

Status Dvms::ProbeStorage() const {
  if (storage_dir_.empty()) return Status::OK();
  // Deliberately NOT internal: under a FaultEnv that simulates a full
  // disk the probe must keep failing until the test disarms it, just as a
  // real probe keeps failing until the disk frees.
  Env* env = env::Active();
  const std::string path = storage_dir_ + "/.space-probe";
  DVMS_ASSIGN_OR_RETURN(
      int fd, env->Open(path, O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644));
  char block[4096];
  std::memset(block, 0, sizeof(block));
  Status st = env::WriteFully(env, fd, block, sizeof(block), path);
  if (st.ok()) st = env::FsyncOrPoison(env, &fd, path);
  if (fd >= 0) env->Close(fd);
  {
    // Cleanup of the probe artifact, not part of the verdict.
    InternalScope internal;
    (void)env->Unlink(path);
  }
  return st;
}

Dvms::StorageStats Dvms::storage_stats() const {
  std::lock_guard<std::mutex> lock(storage_mu_);
  StorageStats ss = storage_stats_;
  ss.degraded = storage_degraded_.load(std::memory_order_relaxed);
  return ss;
}

Status Dvms::ScrubNow() { return ScrubPass(); }

void Dvms::StopScrubber() {
  {
    std::lock_guard<std::mutex> lock(scrub_mu_);
    scrub_stop_ = true;
  }
  scrub_cv_.notify_all();
  if (scrub_thread_.joinable()) scrub_thread_.join();
}

void Dvms::ScrubLoop() {
  std::unique_lock<std::mutex> lock(scrub_mu_);
  while (!scrub_stop_) {
    if (scrub_cv_.wait_for(lock, std::chrono::milliseconds(scrub_ms_),
                           [this] { return scrub_stop_; })) {
      return;
    }
    lock.unlock();
    // Failures (durability off on a not-yet-promoted replica, a transient
    // listing error) are reflected in storage_stats_; the thread itself
    // never stops until shutdown.
    (void)ScrubPass();
    lock.lock();
  }
}

Status Dvms::ScrubPass() {
  std::string dir;
  std::string active;
  {
    MuLock lock(mu_, write_lock_acquisitions_);
    if (durability_ == nullptr) {
      return Status::InvalidArgument("durability is not enabled (no data_dir)");
    }
    dir = durability_->dir();
    active = durability_->ActiveSegmentPath();
  }
  obs::Span span("scrub.pass");
  StorageStats found;  // this pass's deltas
  std::string uncovered;  // corruption no snapshot makes redundant

  Result<std::vector<uint64_t>> snaps = ListWalSnapshots(dir);
  Result<std::vector<uint64_t>> segs = ListWalSegments(dir);
  if (!snaps.ok() || !segs.ok()) {
    std::lock_guard<std::mutex> lock(storage_mu_);
    ++storage_stats_.scrub_passes;
    ++storage_stats_.scrub_io_errors;
    return snaps.ok() ? segs.status() : snaps.status();
  }

  // Snapshots first: segment quarantine decisions depend on which snapshot
  // LSNs actually validate, not on file names alone.
  uint64_t newest_valid_snap = 0;
  std::vector<uint64_t> corrupt_snaps;
  for (uint64_t lsn : snaps.value()) {
    const std::string path = WalSnapshotPath(dir, lsn);
    Result<std::pair<uint64_t, std::string>> snap = ReadSnapshotFile(path);
    if (snap.ok()) {
      ++found.scrub_snapshots_scanned;
      newest_valid_snap = std::max(newest_valid_snap, lsn);
      continue;
    }
    if (env::IsNotFound(snap.status())) continue;  // pruned mid-pass
    ++found.scrub_snapshots_scanned;
    if (env::IsEnvIoError(snap.status())) {
      ++found.scrub_io_errors;  // device error — maybe transient, retry later
      continue;
    }
    ++found.scrub_corruptions;
    found.last_corruption = path + ": " + snap.status().message();
    corrupt_snaps.push_back(lsn);
  }
  // A corrupt snapshot is quarantined only when some valid snapshot still
  // exists (recovery never chooses a corrupt one, so setting it aside can
  // only silence re-detection, never change the recovery outcome — but
  // with NO valid peer we keep the evidence in place and stay loud).
  for (uint64_t lsn : corrupt_snaps) {
    const std::string path = WalSnapshotPath(dir, lsn);
    if (newest_valid_snap == 0) {
      std::fprintf(stderr,
                   "dvms: scrub found corrupt snapshot %s with no valid "
                   "replacement; leaving it in place\n",
                   path.c_str());
      continue;
    }
    MuLock lock(mu_, write_lock_acquisitions_);  // vs. concurrent pruning
    Status q = env::Active()->Rename(path, path + ".quarantined");
    if (q.ok()) {
      ++found.scrub_quarantined;
      std::fprintf(stderr, "dvms: scrub quarantined corrupt snapshot %s\n",
                   path.c_str());
    } else if (!env::IsNotFound(q)) {
      ++found.scrub_io_errors;
    }
  }

  // Sealed segments were cut to a clean frame boundary when sealed, so any
  // scan violation now — bad header, bad CRC, torn tail — is bit rot.
  const std::vector<uint64_t>& seg_lsns = segs.value();
  for (size_t i = 0; i < seg_lsns.size(); ++i) {
    const std::string path = WalSegmentPath(dir, seg_lsns[i]);
    if (path == active) continue;  // in flight; validated once sealed
    Result<WalScan> scan = ScanWalSegment(path);
    if (!scan.ok()) {
      if (!env::IsNotFound(scan.status())) {
        ++found.scrub_segments_scanned;
        ++found.scrub_io_errors;
      }
      continue;
    }
    ++found.scrub_segments_scanned;
    if (!scan.value().bad_header && !scan.value().tail_truncated) continue;
    ++found.scrub_corruptions;
    const std::string why =
        path + ": " +
        (scan.value().tail_error.empty() ? "corrupt sealed segment"
                                         : scan.value().tail_error);
    found.last_corruption = why;
    // The segment's frames end just before the next segment's first LSN;
    // it is redundant only when a valid snapshot covers that whole range.
    const bool covered = i + 1 < seg_lsns.size() &&
                         newest_valid_snap + 1 >= seg_lsns[i + 1];
    if (covered) {
      MuLock lock(mu_, write_lock_acquisitions_);
      Status q = env::Active()->Rename(path, path + ".quarantined");
      if (q.ok()) {
        ++found.scrub_quarantined;
        std::fprintf(stderr,
                     "dvms: scrub quarantined corrupt sealed segment %s "
                     "(covered by snapshot %llu)\n",
                     path.c_str(),
                     static_cast<unsigned long long>(newest_valid_snap));
      } else if (!env::IsNotFound(q)) {
        ++found.scrub_io_errors;
      }
    } else {
      // Acknowledged commits live only in this segment; a restart would
      // truncate the log at the corruption and silently lose them.
      uncovered = "scrub: " + why + " and no snapshot covers it";
    }
  }

  if (!uncovered.empty()) {
    // Fail loud: stop acknowledging new frames against a log whose durable
    // history is already damaged. Reads keep serving, exactly like any
    // other fail-stop.
    MuLock lock(mu_, write_lock_acquisitions_);
    if (!durability_poisoned_) {
      PoisonDurability("scrub found unrecoverable corruption",
                       Status::ExecutionError(uncovered));
    }
  }

  {
    std::lock_guard<std::mutex> lock(storage_mu_);
    ++storage_stats_.scrub_passes;
    storage_stats_.scrub_segments_scanned += found.scrub_segments_scanned;
    storage_stats_.scrub_snapshots_scanned += found.scrub_snapshots_scanned;
    storage_stats_.scrub_corruptions += found.scrub_corruptions;
    storage_stats_.scrub_quarantined += found.scrub_quarantined;
    storage_stats_.scrub_io_errors += found.scrub_io_errors;
    if (!found.last_corruption.empty()) {
      storage_stats_.last_corruption = found.last_corruption;
    }
  }
  obs::Count("scrub.passes");
  if (found.scrub_corruptions > 0) {
    obs::Count("scrub.corruptions", found.scrub_corruptions);
  }
  if (found.scrub_quarantined > 0) {
    obs::Count("scrub.quarantined", found.scrub_quarantined);
  }
  if (found.scrub_io_errors > 0) {
    obs::Count("scrub.io_errors", found.scrub_io_errors);
  }
  return Status::OK();
}

Table Dvms::BuildStorageTable() const {
  Table out(Schema({{"name", ValueType::kString},
                    {"value", ValueType::kInt64}}));
  auto row = [&out](const char* name, int64_t value) {
    out.AppendUnchecked({Value::String(name), Value::Int(value)});
  };
  StorageStats ss = storage_stats();
  row("degraded", ss.degraded ? 1 : 0);
  row("degraded_entries", static_cast<int64_t>(ss.degraded_entries));
  row("degraded_exits", static_cast<int64_t>(ss.degraded_exits));
  row("space_probes", static_cast<int64_t>(ss.space_probes));
  row("scrub_ms", static_cast<int64_t>(scrub_ms_));
  row("scrub_passes", static_cast<int64_t>(ss.scrub_passes));
  row("scrub_segments_scanned",
      static_cast<int64_t>(ss.scrub_segments_scanned));
  row("scrub_snapshots_scanned",
      static_cast<int64_t>(ss.scrub_snapshots_scanned));
  row("scrub_corruptions", static_cast<int64_t>(ss.scrub_corruptions));
  row("scrub_quarantined", static_cast<int64_t>(ss.scrub_quarantined));
  row("scrub_io_errors", static_cast<int64_t>(ss.scrub_io_errors));
  FaultEnv* injector = env::ActiveFault();
  row("io_fault_checks",
      injector != nullptr ? static_cast<int64_t>(injector->checks()) : 0);
  row("io_faults_injected",
      injector != nullptr ? static_cast<int64_t>(injector->injections()) : 0);
  return out;
}

// ---- Concurrent snapshot reads ----

void Dvms::PublishSnapshotLocked() {
  uint64_t before = snapshots_.current_epoch();
  uint64_t after = snapshots_.Publish(catalog_);
  if (obs::Enabled() && after != before) {
    obs::Count("engine.snapshot_publishes");
  }
}

Result<Table> Dvms::SnapshotRead(Session* session,
                                 const std::string& select_sql) {
  // Parse before admission: a syntax error should not consume a slot.
  DVMS_ASSIGN_OR_RETURN(QueryRequest req, ParseQuery(select_sql));
  AdmissionTicket ticket(this, AdmissionTicket::Gate::kReader);
  DVMS_RETURN_IF_ERROR(ticket.status());
  obs::Span span("session.query");

  // Pin the epoch for the duration of the read: the session-pinned epoch
  // if set, else the latest published one. shared_ptr ownership is the GC
  // barrier; NotePin/NoteUnpin is pure accounting for leak checks.
  const bool transient_pin = session->pinned_ == nullptr;
  SnapshotPtr view =
      transient_pin ? snapshots_.Acquire() : session->pinned_;
  if (view == nullptr) {
    return Status::Internal("no snapshot epoch published yet");
  }
  if (transient_pin) snapshots_.NotePin();
  session->last_read_epoch_ = view->epoch();

  // The session's own governor envelope: engine deadline/budget unless the
  // session overrides them, plus the session's cancel flag — private unless
  // the session adopted a shared token (Dvms::Query shares the engine's) —
  // so cancelling one session can never abort another's query.
  QueryContext ctx;
  int64_t deadline_ms = session->options_.deadline_ms >= 0
                            ? session->options_.deadline_ms
                            : governor_config_.deadline_ms;
  int64_t mem_budget = session->options_.mem_budget >= 0
                           ? session->options_.mem_budget
                           : governor_config_.mem_budget;
  ctx.ArmDeadline(deadline_ms, governor_config_.clock);
  ctx.ArmMemoryBudget(mem_budget);
  ctx.ShareCancelFlag(session->cancel_);

  Result<Table> out = [&]() -> Result<Table> {
    GovernorRequestScope scope(&ctx);
    StatementView statement_view(view.get(), &system_relations_);
    return RunSelect(req.select, req.explain, req.analyze, statement_view,
                     udfs_, ReadOptions());
  }();
  // Reader aborts land in the same counters the serialized writer uses.
  FoldGovernorAccounting(ctx, session->cancel_.get());
  if (transient_pin) snapshots_.NoteUnpin();
  return out;
}

}  // namespace dvms
