#ifndef DVMS_CLUSTER_CLUSTER_CLIENT_H_
#define DVMS_CLUSTER_CLUSTER_CLIENT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/dvms.h"
#include "core/session.h"
#include "expr/udf_registry.h"
#include "parser/parser.h"

namespace dvms {
namespace cluster {

/// Knobs for ClusterClient. Zero / negative sentinels resolve from the
/// DVMS_CLUSTER_* environment variables (then the documented default), the
/// same overlay convention Dvms::Options uses — see README § Configuration.
struct ClusterOptions {
  /// Bounded staleness for routed reads, in WAL frames behind the client's
  /// acknowledged LSN: a replica is eligible to serve a read iff
  /// acked_lsn - replica_lsn <= bound. The primary is always eligible
  /// (it IS the ack source). -1 = DVMS_CLUSTER_STALENESS_FRAMES, or 0
  /// (read-your-acknowledged-writes: replicas serve only when caught up).
  int64_t staleness_bound_frames = -1;
  /// Attempts per routed request before the last transient error is
  /// returned. 0 = DVMS_CLUSTER_RETRY_LIMIT, or 6.
  int max_attempts = 0;
  /// Exponential backoff between retries: floor << attempt, capped, then
  /// scaled by a seeded uniform draw in [0.5, 1.5) so concurrent retriers
  /// don't thunder in lockstep. 0 = DVMS_CLUSTER_BACKOFF_MS (floor, or 1)
  /// and DVMS_CLUSTER_BACKOFF_CAP_MS (cap, or 64).
  int64_t backoff_floor_ms = 0;
  int64_t backoff_cap_ms = 0;
  /// Hedged reads: once enough latency samples exist, a read still running
  /// after this percentile of recent read latency is raced against a second
  /// eligible endpoint; first success wins and the loser is cancelled.
  /// -1 = DVMS_CLUSTER_HEDGE_PCT, or 95. 0 disables hedging.
  double hedge_percentile = -1;
  /// Samples required before hedging arms. 0 = 32.
  size_t hedge_min_samples = 0;
  /// Circuit breaker: consecutive endpoint-attributable failures that trip
  /// an endpoint open (no traffic), and the cooldown after which one
  /// half-open probe is allowed through (success closes the breaker,
  /// failure re-opens it). 0 = DVMS_CLUSTER_BREAKER_FAILURES (or 3) /
  /// DVMS_CLUSTER_BREAKER_MS (or 50).
  int breaker_failures = 0;
  int64_t breaker_cooldown_ms = 0;
  /// Total per-request budget in ms shared across every retry, backoff
  /// sleep, and hedge of one routed call; attempts run under the remaining
  /// slice as their governor deadline. -1 = DVMS_CLUSTER_DEADLINE_MS, or
  /// 0 (no budget).
  int64_t deadline_ms = -1;
  /// Seed for retry/backoff jitter and routing tie-breaks. 0 = 0x5eed.
  uint64_t seed = 0;
  /// Injectable clock (microseconds, monotonic) for breaker cooldowns,
  /// budgets, and hedge cutoffs. nullptr = steady clock.
  std::function<int64_t()> clock;
};

/// Per-request routing context: an optional deadline override plus a cancel
/// token that propagates into whichever endpoint's attempt is in flight
/// (via Session::Options::cancel_flag), so cancelling the routed request
/// aborts work on any endpoint, not just the retry loop.
struct RequestContext {
  /// -1 inherits ClusterOptions::deadline_ms; 0 = no budget.
  int64_t deadline_ms = -1;
  std::shared_ptr<std::atomic<bool>> cancel =
      std::make_shared<std::atomic<bool>>(false);

  void RequestCancel() { cancel->store(true, std::memory_order_relaxed); }
  bool cancelled() const { return cancel->load(std::memory_order_relaxed); }
};

/// Circuit-breaker state machine per endpoint: kClosed (traffic flows) →
/// kOpen after N consecutive failures (fail fast, no traffic) → kHalfOpen
/// after the cooldown (exactly one probe request) → kClosed on probe
/// success / back to kOpen on probe failure.
enum class BreakerState { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

/// Aggregate client counters, also queryable as the dvms_cluster system
/// relation through ClusterClient::Query.
struct ClusterStats {
  uint64_t reads_routed = 0;       // successful routed reads
  uint64_t reads_primary = 0;      // ... served by the primary
  uint64_t reads_replica = 0;      // ... served by a replica
  uint64_t read_retries = 0;       // transient read attempts retried
  uint64_t read_failures = 0;      // reads that exhausted retries/budget
  uint64_t writes_routed = 0;      // successful routed writes
  uint64_t write_retries = 0;
  uint64_t write_failures = 0;
  uint64_t readonly_races = 0;     // kReadOnlyReplica hit during failover
  uint64_t write_replays = 0;      // in-flight writes re-executed after failover
  uint64_t write_replays_suppressed = 0;  // proven committed by the acked LSN
  uint64_t hedges_launched = 0;
  uint64_t hedges_won = 0;         // backup finished first
  uint64_t hedges_lost = 0;        // primary attempt finished first
  uint64_t hedge_failures = 0;     // backup attempts that errored
  uint64_t failovers = 0;
  int64_t last_failover_us = 0;    // duration of the most recent failover
  uint64_t condemned_endpoints = 0;  // poisoned primaries taken out of rotation
  uint64_t staleness_checks = 0;
  uint64_t staleness_skips = 0;    // endpoints skipped as beyond the bound
  uint64_t staleness_violations = 0;  // reads served beyond the bound (0!)
  uint64_t breaker_trips = 0;
  uint64_t breaker_recoveries = 0;
  uint64_t breaker_half_open_probes = 0;
  uint64_t deadline_exhausted = 0;
  uint64_t cancelled = 0;
  uint64_t acked_lsn = 0;
};

/// Health snapshot of one endpoint, for stats() and dvms_cluster rows.
struct EndpointHealth {
  std::string name;
  bool attached = false;
  bool replica = false;
  bool stale = false;
  bool degraded = false;
  BreakerState breaker = BreakerState::kClosed;
  int consecutive_failures = 0;
  uint64_t lsn = 0;
  uint64_t lag_behind_acked = 0;
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t failures = 0;
  uint64_t staleness_skips = 0;
  uint64_t breaker_trips = 0;
  uint64_t half_open_probes = 0;
  uint64_t breaker_recoveries = 0;
};

/// Fronts one primary plus N replica Dvms instances and makes the ensemble
/// behave like a single robust engine:
///
///   - Reads route to healthy replicas under the bounded-staleness policy
///     (primary fallback when none qualifies), never taking the engines'
///     write mutexes — every attempt is a lock-free snapshot Session read.
///   - Transient failures (kStorageDegraded, injected env IO faults,
///     kReadOnlyReplica races during failover, detached endpoints) retry
///     with exponential backoff + seeded jitter under the caller's deadline
///     budget; terminal statement errors (parse/bind/type/...) return
///     immediately.
///   - Reads still running past a latency-percentile cutoff are hedged
///     against a second eligible endpoint; the winner's result is returned
///     and the loser is cancelled through its session's cancel token.
///   - Consecutive endpoint-attributable failures trip a per-endpoint
///     circuit breaker (half-open probes recover it).
///   - On primary loss, writes fail over automatically: the most
///     caught-up attached replica is Promote()d, write traffic re-points,
///     and the in-flight write is demoted to an idempotent replay checked
///     against the acknowledged LSN — if the promoted log already holds a
///     frame beyond the last acknowledged write, the in-flight op committed
///     before the crash and is NOT re-executed.
///
/// Writes are serialized through the client (mirroring the engines' own
/// serialized mutation units), which is what makes the acked-LSN replay
/// check exact: every durable frame maps to an acknowledged client write.
/// All writes to the fleet must go through one ClusterClient; reads are
/// thread-safe and lock-free against each other.
///
/// Endpoint engines are borrowed, not owned. DetachEndpoint marks an
/// endpoint dead (simulating process loss) and drains its in-flight calls,
/// after which the caller may safely destroy the engine.
class ClusterClient {
 public:
  explicit ClusterClient(ClusterOptions options = ClusterOptions());
  ~ClusterClient();
  ClusterClient(const ClusterClient&) = delete;
  ClusterClient& operator=(const ClusterClient&) = delete;

  /// Registers an endpoint. Role (primary/replica) is read live from the
  /// engine, so a later Promote() re-points traffic with no re-registration.
  Status AddEndpoint(std::string name, Dvms* engine);

  /// Marks the endpoint dead and blocks until its in-flight calls drain;
  /// afterwards the engine pointer is never touched again and the caller
  /// may destroy the engine. Subsequent traffic treats it as kUnavailable.
  Status DetachEndpoint(const std::string& name);

  /// Re-points a detached endpoint at a (new) engine and resets its
  /// breaker — a replacement replica joining the fleet.
  Status ReattachEndpoint(const std::string& name, Dvms* engine);

  /// Routed read. SELECTs referencing only the dvms_cluster system
  /// relation are served locally from client state; everything else routes
  /// to an eligible endpoint with retry / hedging / breaker policy.
  Result<Table> Query(const std::string& select_sql);
  Result<Table> Query(const std::string& select_sql, RequestContext* ctx);

  /// Routed write: `op` runs against the current primary with retry,
  /// failover, and idempotent-replay demotion. `what` labels errors.
  Status Write(const char* what, const std::function<Status(Dvms&)>& op);

  // Typed conveniences over Write().
  Status CreateBaseTable(const std::string& name, Schema schema);
  Status Insert(const std::string& name, std::vector<Row> rows);
  Status LoadProgram(const std::string& source);
  Status Execute(const Statement& statement);
  Status PushEvent(const InputEvent& event);
  Status CreateScale(const std::string& name, double domain_min,
                     double domain_max, double range_min, double range_max);

  /// Newest LSN acknowledged to a caller of this client (the staleness
  /// anchor and the idempotent-replay watermark).
  uint64_t acked_lsn() const {
    return acked_lsn_.load(std::memory_order_relaxed);
  }

  /// Name of the current attached primary, or kUnavailable.
  Result<std::string> PrimaryName() const;

  ClusterStats stats() const;
  std::vector<EndpointHealth> endpoint_health() const;

  /// The dvms_cluster system relation: one {endpoint, name, value} row per
  /// counter — global rows carry an empty endpoint.
  Table BuildClusterTable() const;

 private:
  struct Endpoint {
    std::string name;
    Dvms* engine = nullptr;  // null while detached
    int inflight = 0;        // calls outside mu_ holding this endpoint
    BreakerState breaker = BreakerState::kClosed;
    int consecutive_failures = 0;
    int64_t breaker_opened_us = 0;
    bool probe_inflight = false;  // the single half-open probe
    // Per-endpoint counters (guarded by mu_).
    uint64_t reads = 0;
    uint64_t writes = 0;
    uint64_t failures = 0;
    uint64_t staleness_skips = 0;
    uint64_t breaker_trips = 0;
    uint64_t half_open_probes = 0;
    uint64_t breaker_recoveries = 0;
  };

  /// One picked endpoint with its staleness witness, inflight-pinned until
  /// Release().
  struct Target {
    Endpoint* ep = nullptr;
    Dvms* engine = nullptr;
    bool is_primary = false;
    uint64_t serve_lsn = 0;   // endpoint LSN observed at pick time
    uint64_t acked_at_pick = 0;
  };

  /// Shared state of one hedged read: the inline (primary) attempt and the
  /// manager-thread backup race on it; first success wins, the loser is
  /// cancelled through its session token.
  struct HedgeState {
    std::mutex mu;
    std::condition_variable cv;
    std::string sql;
    int64_t attempt_deadline_ms = -1;
    Endpoint* exclude = nullptr;
    bool done = false;            // a winner result is set
    bool fired = false;           // the manager started (or skipped) backup
    bool backup_finished = false;
    int winner = -1;              // 0 = inline attempt, 1 = backup
    Result<Table> winner_result{Status::Internal("hedge: no winner")};
    std::shared_ptr<std::atomic<bool>> inline_cancel =
        std::make_shared<std::atomic<bool>>(false);
    std::shared_ptr<std::atomic<bool>> backup_cancel =
        std::make_shared<std::atomic<bool>>(false);
  };

  struct HedgeJob {
    int64_t fire_at_us = 0;
    std::shared_ptr<HedgeState> state;
  };

  int64_t NowUs() const;
  /// Remaining budget in ms; INT64_MAX when no deadline is configured.
  int64_t RemainingMs(int64_t start_us, int64_t deadline_ms) const;
  /// Seeded-jitter backoff sleep for `attempt`, truncated to the remaining
  /// budget. Returns false when the budget is already exhausted.
  bool BackoffSleep(Rng* rng, int attempt, int64_t start_us,
                    int64_t deadline_ms);

  /// Picks a read endpoint under the staleness + breaker policy: eligible
  /// replicas round-robin, primary fallback. Null `ep` when none is
  /// eligible right now. `exclude` skips the hedged read's first endpoint.
  Target PickReadEndpoint(const Endpoint* exclude);
  /// The attached primary (inflight-pinned), ignoring the breaker — writes
  /// have no alternative endpoint, retry/backoff is their gate.
  Target AcquirePrimary();
  void Release(Target* target);

  /// Breaker bookkeeping; both take mu_.
  void OnEndpointSuccess(Endpoint* ep);
  void OnEndpointFailure(Endpoint* ep);
  /// True when the breaker admits traffic now (may transition kOpen →
  /// kHalfOpen and claim the probe slot). mu_ held.
  bool BreakerAdmits(Endpoint* ep, int64_t now_us);

  /// One snapshot-read attempt on a pinned target. Releases the target.
  Result<Table> RunReadAttempt(Target target, const std::string& sql,
                               int64_t attempt_deadline_ms,
                               std::shared_ptr<std::atomic<bool>> cancel);
  /// Inline attempt + registered backup racing under the hedge cutoff.
  Result<Table> HedgedRead(Target target, const std::string& sql,
                           int64_t attempt_deadline_ms, int64_t cutoff_us,
                           int64_t start_us, int64_t deadline_ms);

  /// Promote the most caught-up attached replica; write_mu_ held.
  Status TryFailover(const std::string& reason);

  /// Take a durability-poisoned endpoint out of rotation entirely (its
  /// in-memory state is a fork the durable log never saw — neither writes
  /// nor reads may route to it). Drains in-flight calls like
  /// DetachEndpoint; write_mu_ held, mu_ NOT held.
  void CondemnEndpoint(Endpoint* ep);

  /// SELECT over the client-local dvms_cluster relation.
  Result<Table> LocalClusterQuery(const QueryRequest& req);

  void RecordReadLatency(int64_t us);
  /// Hedge cutoff from the recent-latency percentile; -1 when hedging is
  /// not armed (disabled or not enough samples).
  int64_t HedgeCutoffUs();

  void HedgeLoop();
  void StopHedgeThread();

  ClusterOptions options_;  // resolved (env overlays applied)
  UdfRegistry udfs_;
  /// Holds dvms_cluster, the client's one system relation.
  SystemRelationRegistry system_relations_;

  /// Guards endpoints_ (vector + every field) and rr_. Engine calls are
  /// never made while holding it, except leaf-locked stats reads
  /// (replication_stats / storage_degraded) during routing decisions.
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  size_t rr_ = 0;  // round-robin cursor over eligible replicas
  std::condition_variable drain_cv_;

  /// Serializes routed writes (engines serialize mutations anyway); what
  /// makes the acked-LSN replay accounting exact and failover single-shot.
  std::mutex write_mu_;
  std::atomic<uint64_t> acked_lsn_{0};

  /// Leaf lock for counters + the latency ring + the jitter rng.
  mutable std::mutex stats_mu_;
  ClusterStats stats_;
  Rng rng_;
  std::vector<int64_t> latency_ring_;
  size_t latency_next_ = 0;
  size_t latency_count_ = 0;

  /// Hedge manager: one background thread runs backup attempts at their
  /// cutoff deadlines, so the healthy fast path never pays a thread spawn.
  std::mutex hedge_mu_;
  std::condition_variable hedge_cv_;
  std::deque<HedgeJob> hedge_jobs_;
  bool hedge_stop_ = false;
  std::thread hedge_thread_;
};

}  // namespace cluster
}  // namespace dvms

#endif  // DVMS_CLUSTER_CLUSTER_CLIENT_H_
