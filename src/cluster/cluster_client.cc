#include "cluster/cluster_client.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <utility>

#include "common/env.h"
#include "common/schema.h"

namespace dvms {
namespace cluster {

namespace {

constexpr char kClusterRelation[] = "dvms_cluster";

int64_t EnvInt(const char* name, int64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const long long parsed = std::strtoll(v, &end, 10);
  if (end == v || *end != '\0') return fallback;
  return static_cast<int64_t>(parsed);
}

int64_t SteadyNowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Case-insensitive substring scan; a false positive (the name inside a
/// string literal, say) only costs the parse it gates, never correctness.
bool ContainsCaseInsensitive(const std::string& haystack, const char* needle) {
  const size_t n = std::strlen(needle);
  if (n == 0 || haystack.size() < n) return false;
  auto lower = [](char c) {
    return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  };
  for (size_t i = 0; i + n <= haystack.size(); ++i) {
    size_t j = 0;
    while (j < n && lower(haystack[i + j]) == lower(needle[j])) ++j;
    if (j == n) return true;
  }
  return false;
}

void CollectFromNames(const SelectStmt& stmt, std::vector<std::string>* out) {
  for (const SelectCore& core : stmt.cores) {
    for (const TableRef& ref : core.from) {
      if (ref.subquery != nullptr) {
        CollectFromNames(*ref.subquery, out);
      } else {
        out->push_back(ref.name);
      }
    }
  }
}

/// How the routing layer treats a failed attempt. The taxonomy is the
/// design contract (DESIGN.md § Cluster routing & failover): an error is
/// either the statement's fault (terminal — retrying cannot change the
/// answer), the endpoint's fault (retry elsewhere AND count against that
/// endpoint's circuit breaker), or a routing race (retry, but say nothing
/// about endpoint health).
enum class ErrClass { kTerminal, kRetryEndpoint, kRetryRouting };

ErrClass Classify(const Status& st) {
  switch (st.code()) {
    case StatusCode::kStorageDegraded:
      // The endpoint's disk is sick but probes may recover it.
      return ErrClass::kRetryEndpoint;
    case StatusCode::kInternal:
      // "No snapshot epoch published yet" — a replica still bootstrapping.
      return ErrClass::kRetryEndpoint;
    case StatusCode::kUnavailable:
      // Detached / no eligible endpoint; produced by the router itself.
      return ErrClass::kRetryRouting;
    case StatusCode::kReadOnlyReplica:
      // A write raced a failover: the endpoint we thought was primary is
      // (still / again) a replica. Health is fine, the role map moved.
      return ErrClass::kRetryRouting;
    case StatusCode::kResourceExhausted:
      // Admission shed under load; backs off, not a health signal.
      return ErrClass::kRetryRouting;
    case StatusCode::kExecutionError:
      // Injected env faults (and real device errors) surface as execution
      // failures of the statement that tripped them; the statement itself
      // is fine — retry it, and hold the fault against the endpoint.
      if (env::IsInjectedIoFault(st) || env::IsOutOfSpace(st) ||
          env::IsEnvIoError(st)) {
        return ErrClass::kRetryEndpoint;
      }
      return ErrClass::kTerminal;
    default:
      // Parse/bind/type/not-found/unsupported/cancelled/deadline/...:
      // retrying cannot produce a different answer.
      return ErrClass::kTerminal;
  }
}

const EngineSnapshotView* EmptyBaseView() {
  static const EngineSnapshotView* empty = new EngineSnapshotView();
  return empty;
}

}  // namespace

ClusterClient::ClusterClient(ClusterOptions options)
    : options_(std::move(options)),
      udfs_(UdfRegistry::WithBuiltins()),
      rng_(options_.seed != 0
               ? options_.seed
               : static_cast<uint64_t>(EnvInt("DVMS_CLUSTER_SEED", 0x5eed))) {
  if (options_.staleness_bound_frames < 0) {
    options_.staleness_bound_frames = EnvInt("DVMS_CLUSTER_STALENESS_FRAMES", 0);
  }
  if (options_.max_attempts <= 0) {
    options_.max_attempts =
        static_cast<int>(EnvInt("DVMS_CLUSTER_RETRY_LIMIT", 6));
  }
  if (options_.backoff_floor_ms <= 0) {
    options_.backoff_floor_ms = EnvInt("DVMS_CLUSTER_BACKOFF_MS", 1);
  }
  if (options_.backoff_cap_ms <= 0) {
    options_.backoff_cap_ms = EnvInt("DVMS_CLUSTER_BACKOFF_CAP_MS", 64);
  }
  if (options_.hedge_percentile < 0) {
    options_.hedge_percentile =
        static_cast<double>(EnvInt("DVMS_CLUSTER_HEDGE_PCT", 95));
  }
  if (options_.hedge_min_samples == 0) options_.hedge_min_samples = 32;
  if (options_.breaker_failures <= 0) {
    options_.breaker_failures =
        static_cast<int>(EnvInt("DVMS_CLUSTER_BREAKER_FAILURES", 3));
  }
  if (options_.breaker_cooldown_ms <= 0) {
    options_.breaker_cooldown_ms = EnvInt("DVMS_CLUSTER_BREAKER_MS", 50);
  }
  if (options_.deadline_ms < 0) {
    options_.deadline_ms = EnvInt("DVMS_CLUSTER_DEADLINE_MS", 0);
  }
  latency_ring_.assign(256, 0);
  system_relations_.Register(kClusterRelation,
                             [this] { return BuildClusterTable(); });
  if (options_.hedge_percentile > 0) {
    hedge_thread_ = std::thread(&ClusterClient::HedgeLoop, this);
  }
}

ClusterClient::~ClusterClient() { StopHedgeThread(); }

int64_t ClusterClient::NowUs() const {
  return options_.clock != nullptr ? options_.clock() : SteadyNowUs();
}

int64_t ClusterClient::RemainingMs(int64_t start_us,
                                   int64_t deadline_ms) const {
  if (deadline_ms <= 0) return std::numeric_limits<int64_t>::max();
  return deadline_ms - (NowUs() - start_us) / 1000;
}

bool ClusterClient::BackoffSleep(Rng* rng, int attempt, int64_t start_us,
                                 int64_t deadline_ms) {
  const int shift = std::min(attempt, 20);
  int64_t base = options_.backoff_floor_ms << shift;
  base = std::min(base, options_.backoff_cap_ms);
  int64_t wait_ms = std::max<int64_t>(
      1, static_cast<int64_t>(static_cast<double>(base) *
                              rng->Uniform(0.5, 1.5)));
  if (deadline_ms > 0) {
    const int64_t remaining = RemainingMs(start_us, deadline_ms);
    if (remaining <= 0) return false;
    wait_ms = std::min(wait_ms, remaining);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(wait_ms));
  return true;
}

// ---- endpoint registry ----

Status ClusterClient::AddEndpoint(std::string name, Dvms* engine) {
  if (engine == nullptr) {
    return Status::InvalidArgument("cluster: AddEndpoint with null engine");
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& ep : endpoints_) {
    if (ep->name == name) {
      return Status::AlreadyExists("cluster: endpoint '" + name +
                                   "' already registered");
    }
  }
  auto ep = std::make_unique<Endpoint>();
  ep->name = std::move(name);
  ep->engine = engine;
  endpoints_.push_back(std::move(ep));
  return Status::OK();
}

Status ClusterClient::DetachEndpoint(const std::string& name) {
  std::unique_lock<std::mutex> lock(mu_);
  for (auto& up : endpoints_) {
    if (up->name != name) continue;
    Endpoint* ep = up.get();
    ep->engine = nullptr;
    // Drain: once inflight calls complete, no code path touches the
    // engine pointer again, so the caller may destroy the engine.
    drain_cv_.wait(lock, [ep] { return ep->inflight == 0; });
    return Status::OK();
  }
  return Status::NotFound("cluster: unknown endpoint '" + name + "'");
}

void ClusterClient::CondemnEndpoint(Endpoint* ep) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (ep->engine == nullptr) return;  // already detached or condemned
    ep->engine = nullptr;
    drain_cv_.wait(lock, [ep] { return ep->inflight == 0; });
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.condemned_endpoints;
}

Status ClusterClient::ReattachEndpoint(const std::string& name, Dvms* engine) {
  if (engine == nullptr) {
    return Status::InvalidArgument("cluster: ReattachEndpoint with null engine");
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& up : endpoints_) {
    if (up->name != name) continue;
    if (up->engine != nullptr) {
      return Status::InvalidArgument("cluster: endpoint '" + name +
                                     "' is still attached");
    }
    up->engine = engine;
    up->breaker = BreakerState::kClosed;
    up->consecutive_failures = 0;
    up->probe_inflight = false;
    return Status::OK();
  }
  return Status::NotFound("cluster: unknown endpoint '" + name + "'");
}

// ---- circuit breaker ----

bool ClusterClient::BreakerAdmits(Endpoint* ep, int64_t now_us) {
  switch (ep->breaker) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kOpen:
      if (now_us - ep->breaker_opened_us <
          options_.breaker_cooldown_ms * 1000) {
        return false;
      }
      ep->breaker = BreakerState::kHalfOpen;
      ep->probe_inflight = false;
      [[fallthrough]];
    case BreakerState::kHalfOpen:
      return !ep->probe_inflight;
  }
  return false;
}

void ClusterClient::OnEndpointSuccess(Endpoint* ep) {
  bool recovered = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ep->consecutive_failures = 0;
    ep->probe_inflight = false;
    if (ep->breaker != BreakerState::kClosed) {
      ep->breaker = BreakerState::kClosed;
      ++ep->breaker_recoveries;
      recovered = true;
    }
  }
  if (recovered) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.breaker_recoveries;
  }
}

void ClusterClient::OnEndpointFailure(Endpoint* ep) {
  bool tripped = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++ep->failures;
    ++ep->consecutive_failures;
    if (ep->breaker == BreakerState::kHalfOpen) {
      // The probe failed: straight back to open, fresh cooldown.
      ep->breaker = BreakerState::kOpen;
      ep->breaker_opened_us = NowUs();
      ep->probe_inflight = false;
    } else if (ep->breaker == BreakerState::kClosed &&
               ep->consecutive_failures >= options_.breaker_failures) {
      ep->breaker = BreakerState::kOpen;
      ep->breaker_opened_us = NowUs();
      ++ep->breaker_trips;
      tripped = true;
    }
  }
  if (tripped) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.breaker_trips;
  }
}

// ---- routing ----

ClusterClient::Target ClusterClient::PickReadEndpoint(const Endpoint* exclude) {
  Target out;
  const uint64_t acked = acked_lsn_.load(std::memory_order_relaxed);
  const uint64_t bound =
      static_cast<uint64_t>(options_.staleness_bound_frames);
  const int64_t now = NowUs();
  uint64_t skips = 0;
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Endpoint*> replicas;
  std::vector<uint64_t> replica_lsns;
  Endpoint* primary = nullptr;
  for (auto& up : endpoints_) {
    Endpoint* ep = up.get();
    if (ep == exclude || ep->engine == nullptr) continue;
    if (!BreakerAdmits(ep, now)) continue;
    if (ep->engine->is_replica()) {
      // replication_stats takes only the engine's leaf repl_mu_, safe
      // under our mu_. replica_lsn is a conservative lower bound on the
      // published snapshot (the apply path publishes before advancing it).
      const Dvms::ReplicationStats rs = ep->engine->replication_stats();
      if (rs.stale || acked > rs.replica_lsn + bound) {
        ++ep->staleness_skips;
        ++skips;
        continue;
      }
      replicas.push_back(ep);
      replica_lsns.push_back(rs.replica_lsn);
    } else {
      primary = ep;
    }
  }
  if (skips != 0) {
    std::lock_guard<std::mutex> slock(stats_mu_);
    stats_.staleness_skips += skips;
  }
  Endpoint* chosen = nullptr;
  if (!replicas.empty()) {
    const size_t idx = rr_++ % replicas.size();
    chosen = replicas[idx];
    out.serve_lsn = replica_lsns[idx];
    out.is_primary = false;
  } else if (primary != nullptr) {
    chosen = primary;
    out.serve_lsn = acked;  // the primary serves everything it acked
    out.is_primary = true;
  }
  if (chosen == nullptr) return out;
  if (chosen->breaker == BreakerState::kHalfOpen) {
    chosen->probe_inflight = true;
    ++chosen->half_open_probes;
    std::lock_guard<std::mutex> slock(stats_mu_);
    ++stats_.breaker_half_open_probes;
  }
  ++chosen->inflight;
  out.ep = chosen;
  out.engine = chosen->engine;
  out.acked_at_pick = acked;
  return out;
}

ClusterClient::Target ClusterClient::AcquirePrimary() {
  Target out;
  const uint64_t acked = acked_lsn_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& up : endpoints_) {
    Endpoint* ep = up.get();
    if (ep->engine == nullptr || ep->engine->is_replica()) continue;
    ++ep->inflight;
    out.ep = ep;
    out.engine = ep->engine;
    out.is_primary = true;
    out.serve_lsn = acked;
    out.acked_at_pick = acked;
    return out;
  }
  return out;
}

void ClusterClient::Release(Target* target) {
  if (target->ep == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    --target->ep->inflight;
  }
  drain_cv_.notify_all();
  target->engine = nullptr;
}

// ---- reads ----

Result<Table> ClusterClient::RunReadAttempt(
    Target target, const std::string& sql, int64_t attempt_deadline_ms,
    std::shared_ptr<std::atomic<bool>> cancel) {
  const int64_t t0 = NowUs();
  Result<Table> r = [&]() -> Result<Table> {
    Session::Options sopts;
    sopts.deadline_ms = attempt_deadline_ms;
    sopts.cancel_flag = std::move(cancel);
    // The session must be destroyed (Close touches the engine) before the
    // inflight pin is released; the lambda scopes it.
    Session session(target.engine, sopts);
    return session.Query(sql);
  }();
  Release(&target);
  if (r.ok()) {
    RecordReadLatency(NowUs() - t0);
    OnEndpointSuccess(target.ep);
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++target.ep->reads;
    }
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.reads_routed;
    if (target.is_primary) {
      ++stats_.reads_primary;
    } else {
      ++stats_.reads_replica;
      // Post-read verification of the bounded-staleness contract: the
      // endpoint's LSN witnessed at pick time must be within the bound of
      // the acked LSN witnessed at the same instant. The pick already
      // enforced this, so violations stay zero unless routing has a bug —
      // which is exactly what the chaos harness asserts.
      ++stats_.staleness_checks;
      const uint64_t bound =
          static_cast<uint64_t>(options_.staleness_bound_frames);
      if (target.acked_at_pick > target.serve_lsn + bound) {
        ++stats_.staleness_violations;
      }
    }
  } else if (r.status().code() != StatusCode::kCancelled &&
             Classify(r.status()) == ErrClass::kRetryEndpoint) {
    OnEndpointFailure(target.ep);
  }
  return r;
}

Result<Table> ClusterClient::Query(const std::string& select_sql) {
  return Query(select_sql, nullptr);
}

Result<Table> ClusterClient::Query(const std::string& select_sql,
                                   RequestContext* ctx) {
  // The client-local dvms_cluster relation is served without touching any
  // endpoint. A cheap case-insensitive scan for the literal relation name
  // gates the parse: routed reads skip it entirely — the endpoint session
  // parses anyway, and a syntax error classifies as terminal there, so it
  // still never consumes retry budget — keeping the healthy-path router
  // overhead to the pick + stats, not a second parse per read.
  if (ContainsCaseInsensitive(select_sql, kClusterRelation)) {
    DVMS_ASSIGN_OR_RETURN(QueryRequest req, ParseQuery(select_sql));
    std::vector<std::string> from_names;
    CollectFromNames(req.select, &from_names);
    bool any_cluster = false;
    bool all_cluster = !from_names.empty();
    for (const std::string& name : from_names) {
      if (IdentEquals(name, kClusterRelation)) {
        any_cluster = true;
      } else {
        all_cluster = false;
      }
    }
    if (any_cluster) {
      if (!all_cluster) {
        return Status::Unsupported(
            "cluster: dvms_cluster is client-local and cannot be joined with "
            "engine relations; query it standalone");
      }
      return LocalClusterQuery(req);
    }
  }

  const int64_t deadline_ms = (ctx != nullptr && ctx->deadline_ms >= 0)
                                  ? ctx->deadline_ms
                                  : options_.deadline_ms;
  const int64_t start_us = NowUs();
  Rng rng = [this] {
    std::lock_guard<std::mutex> lock(stats_mu_);
    return rng_.Fork();
  }();
  Status last = Status::Unavailable("cluster: no endpoint attempted");
  for (int attempt = 0; attempt < options_.max_attempts; ++attempt) {
    if (ctx != nullptr && ctx->cancelled()) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.cancelled;
      return Status::Cancelled("cluster: request cancelled");
    }
    const int64_t remaining = RemainingMs(start_us, deadline_ms);
    if (remaining <= 0) break;  // budget exhausted
    Target target = PickReadEndpoint(nullptr);
    if (target.ep == nullptr) {
      last = Status::Unavailable(
          "cluster: no endpoint eligible for reads (detached, breaker open, "
          "or beyond the staleness bound)");
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.read_retries;
      }
      if (!BackoffSleep(&rng, attempt, start_us, deadline_ms)) break;
      continue;
    }
    const int64_t attempt_deadline =
        deadline_ms > 0 ? std::max<int64_t>(remaining, 1) : -1;
    const int64_t cutoff_us = HedgeCutoffUs();
    Result<Table> r =
        cutoff_us >= 0
            ? HedgedRead(target, select_sql, attempt_deadline, cutoff_us,
                         start_us, deadline_ms)
            : RunReadAttempt(target, select_sql, attempt_deadline,
                             ctx != nullptr ? ctx->cancel : nullptr);
    if (r.ok()) return r;
    last = r.status();
    if (last.code() == StatusCode::kCancelled) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.cancelled;
      return last;
    }
    if (last.code() == StatusCode::kDeadlineExceeded) break;
    if (Classify(last) == ErrClass::kTerminal) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.read_failures;
      return last;
    }
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.read_retries;
    }
    if (!BackoffSleep(&rng, attempt, start_us, deadline_ms)) break;
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.read_failures;
  if (RemainingMs(start_us, deadline_ms) <= 0 ||
      last.code() == StatusCode::kDeadlineExceeded) {
    ++stats_.deadline_exhausted;
    return Status::DeadlineExceeded("cluster: read budget exhausted; last: " +
                                    last.message());
  }
  return last;
}

// ---- hedging ----

void ClusterClient::RecordReadLatency(int64_t us) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  latency_ring_[latency_next_] = us;
  latency_next_ = (latency_next_ + 1) % latency_ring_.size();
  latency_count_ = std::min(latency_count_ + 1, latency_ring_.size());
}

int64_t ClusterClient::HedgeCutoffUs() {
  if (options_.hedge_percentile <= 0) return -1;
  std::vector<int64_t> window;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    if (latency_count_ < options_.hedge_min_samples) return -1;
    window.assign(latency_ring_.begin(),
                  latency_ring_.begin() + latency_count_);
  }
  size_t nth = static_cast<size_t>(static_cast<double>(window.size()) *
                                   options_.hedge_percentile / 100.0);
  nth = std::min(nth, window.size() - 1);
  std::nth_element(window.begin(), window.begin() + nth, window.end());
  // Floor the cutoff so microsecond-fast reads don't hedge pure noise.
  return std::max<int64_t>(window[nth], 100);
}

Result<Table> ClusterClient::HedgedRead(Target target, const std::string& sql,
                                        int64_t attempt_deadline_ms,
                                        int64_t cutoff_us, int64_t start_us,
                                        int64_t deadline_ms) {
  auto state = std::make_shared<HedgeState>();
  state->sql = sql;
  state->attempt_deadline_ms = attempt_deadline_ms;
  state->exclude = target.ep;
  {
    std::lock_guard<std::mutex> lock(hedge_mu_);
    hedge_jobs_.push_back(HedgeJob{NowUs() + cutoff_us, state});
  }
  hedge_cv_.notify_all();
  Result<Table> mine =
      RunReadAttempt(target, sql, attempt_deadline_ms, state->inline_cancel);
  std::unique_lock<std::mutex> slock(state->mu);
  if (mine.ok()) {
    if (!state->done) {
      state->done = true;
      state->winner = 0;
      state->backup_cancel->store(true, std::memory_order_relaxed);
      state->cv.notify_all();
    }
    return mine;
  }
  // The inline attempt failed (possibly cancelled BY a winning backup).
  if (state->done && state->winner == 1) return state->winner_result;
  if (!state->fired) {
    // Cutoff not reached yet: poison the job so the manager skips it, and
    // let the outer retry loop handle the failure.
    state->done = true;
    state->winner = 0;
    return mine;
  }
  // A backup is in flight — it may still save this attempt. Wait for it,
  // bounded by the remaining budget when one exists.
  if (deadline_ms > 0) {
    const int64_t remaining = RemainingMs(start_us, deadline_ms);
    if (remaining > 0) {
      state->cv.wait_for(slock, std::chrono::milliseconds(remaining), [&] {
        return state->backup_finished || state->done;
      });
    }
  } else {
    state->cv.wait(slock,
                   [&] { return state->backup_finished || state->done; });
  }
  if (state->done && state->winner == 1) return state->winner_result;
  state->done = true;  // nobody won; stop late arrivals from lingering
  state->winner = 0;
  return mine;
}

void ClusterClient::HedgeLoop() {
  for (;;) {
    std::shared_ptr<HedgeState> job;
    {
      std::unique_lock<std::mutex> lock(hedge_mu_);
      hedge_cv_.wait(lock,
                     [this] { return hedge_stop_ || !hedge_jobs_.empty(); });
      if (hedge_stop_) return;
      auto it = std::min_element(hedge_jobs_.begin(), hedge_jobs_.end(),
                                 [](const HedgeJob& a, const HedgeJob& b) {
                                   return a.fire_at_us < b.fire_at_us;
                                 });
      const int64_t now = NowUs();
      if (it->fire_at_us > now) {
        hedge_cv_.wait_for(
            lock, std::chrono::microseconds(it->fire_at_us - now));
        continue;  // re-evaluate: stop flag, newer jobs, clock
      }
      job = it->state;
      hedge_jobs_.erase(it);
    }
    {
      std::lock_guard<std::mutex> slock(job->mu);
      if (job->done) continue;  // inline attempt settled before the cutoff
      job->fired = true;
    }
    Target backup = PickReadEndpoint(job->exclude);
    if (backup.ep == nullptr) {
      std::lock_guard<std::mutex> slock(job->mu);
      job->backup_finished = true;
      job->cv.notify_all();
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.hedges_launched;
    }
    Result<Table> r = RunReadAttempt(backup, job->sql,
                                     job->attempt_deadline_ms,
                                     job->backup_cancel);
    bool won = false;
    {
      std::lock_guard<std::mutex> slock(job->mu);
      job->backup_finished = true;
      if (r.ok() && !job->done) {
        job->done = true;
        job->winner = 1;
        job->winner_result = std::move(r);
        job->inline_cancel->store(true, std::memory_order_relaxed);
        won = true;
      }
      job->cv.notify_all();
    }
    std::lock_guard<std::mutex> lock(stats_mu_);
    if (won) {
      ++stats_.hedges_won;
    } else {
      ++stats_.hedges_lost;
      if (!r.ok() && r.status().code() != StatusCode::kCancelled) {
        ++stats_.hedge_failures;
      }
    }
  }
}

void ClusterClient::StopHedgeThread() {
  {
    std::lock_guard<std::mutex> lock(hedge_mu_);
    hedge_stop_ = true;
  }
  hedge_cv_.notify_all();
  if (hedge_thread_.joinable()) hedge_thread_.join();
}

// ---- writes ----

Status ClusterClient::Write(const char* what,
                            const std::function<Status(Dvms&)>& op) {
  std::lock_guard<std::mutex> wlock(write_mu_);
  const int64_t deadline_ms = options_.deadline_ms;
  const int64_t start_us = NowUs();
  Rng rng = [this] {
    std::lock_guard<std::mutex> lock(stats_mu_);
    return rng_.Fork();
  }();
  Status last = Status::Unavailable("cluster: no write attempted");
  // True once `op` has run on some primary: from then on a frame beyond
  // the acked LSN after a failover is THIS request's commit surviving the
  // primary's death, and must not be re-executed.
  bool attempted = false;
  for (int attempt = 0; attempt < options_.max_attempts; ++attempt) {
    const int64_t remaining = RemainingMs(start_us, deadline_ms);
    if (remaining <= 0) break;
    Target target = AcquirePrimary();
    if (target.ep == nullptr) {
      // Primary lost: promote the most caught-up attached replica.
      Status fo = TryFailover(std::string("write '") + what +
                              "' found no attached primary");
      if (!fo.ok()) {
        last = fo;
        {
          std::lock_guard<std::mutex> lock(stats_mu_);
          ++stats_.write_retries;
        }
        if (!BackoffSleep(&rng, attempt, start_us, deadline_ms)) break;
        continue;
      }
      Target np = AcquirePrimary();
      if (np.ep != nullptr) {
        const uint64_t promoted_lsn = np.engine->wal_lsn();
        Release(&np);
        const uint64_t acked = acked_lsn_.load(std::memory_order_relaxed);
        if (promoted_lsn > acked) {
          // The promoted log holds frames never acknowledged to a caller.
          // Writes are serialized through this client, so with `attempted`
          // those frames end in this request's own commit: acknowledge it
          // instead of executing it twice (idempotent replay demotion).
          acked_lsn_.store(promoted_lsn, std::memory_order_relaxed);
          if (attempted) {
            std::lock_guard<std::mutex> lock(stats_mu_);
            ++stats_.write_replays_suppressed;
            ++stats_.writes_routed;
            return Status::OK();
          }
        } else if (attempted) {
          std::lock_guard<std::mutex> lock(stats_mu_);
          ++stats_.write_replays;
        }
      }
      continue;
    }
    attempted = true;
    Status st = op(*target.engine);
    if (st.ok()) {
      const uint64_t lsn = target.engine->wal_lsn();
      Release(&target);
      OnEndpointSuccess(target.ep);
      // max(): absorbs frames the client did not route (tests writing
      // out-of-band) so the staleness anchor only moves forward.
      uint64_t prev = acked_lsn_.load(std::memory_order_relaxed);
      if (lsn > prev) acked_lsn_.store(lsn, std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++target.ep->writes;
      }
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.writes_routed;
      return Status::OK();
    }
    const Status endpoint_health = target.engine->recovery_status();
    Release(&target);
    last = st;
    // Poisoning: the op applied in memory but its frame never reached the
    // log (Dvms fail-stops durability — see PoisonDurability). The
    // engine's state is now a fork the durable log never saw: retrying
    // here would commit ops the fleet cannot replicate, and reads would
    // observe state that dies with the process. Condemn the endpoint and
    // fail over; the sealed log holds exactly the acked prefix, so the
    // promoted replica re-executes this attempt exactly once. `attempted`
    // is deliberately left alone — the poisoned frame was never appended,
    // so replay demotion cannot trigger on it, while a frame from an
    // earlier genuinely-appended attempt is still suppressed correctly.
    if (!endpoint_health.ok()) {
      CondemnEndpoint(target.ep);
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.write_retries;
      }
      continue;
    }
    const ErrClass cls = Classify(st);
    if (cls == ErrClass::kTerminal) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.write_failures;
      return st;
    }
    if (cls == ErrClass::kRetryEndpoint) OnEndpointFailure(target.ep);
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.write_retries;
      if (st.code() == StatusCode::kReadOnlyReplica) ++stats_.readonly_races;
    }
    if (!BackoffSleep(&rng, attempt, start_us, deadline_ms)) break;
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.write_failures;
  if (RemainingMs(start_us, deadline_ms) <= 0) {
    ++stats_.deadline_exhausted;
    return Status::DeadlineExceeded(std::string("cluster: write '") + what +
                                    "' budget exhausted; last: " +
                                    last.message());
  }
  return last;
}

Status ClusterClient::TryFailover(const std::string& reason) {
  // write_mu_ is held: failover is single-shot, and no other write can
  // race the promotion or the acked-LSN reconciliation.
  struct Candidate {
    Endpoint* ep;
    uint64_t lsn;
    bool stale;
  };
  std::vector<Candidate> candidates;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& up : endpoints_) {
      Endpoint* ep = up.get();
      if (ep->engine == nullptr) continue;
      if (!ep->engine->is_replica()) return Status::OK();  // primary is back
      const Dvms::ReplicationStats rs = ep->engine->replication_stats();
      candidates.push_back(Candidate{ep, rs.replica_lsn, rs.stale});
    }
  }
  // Most caught-up first; a stale replica (tailing already failing) is the
  // last resort at equal LSN.
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     if (a.lsn != b.lsn) return a.lsn > b.lsn;
                     return !a.stale && b.stale;
                   });
  if (candidates.empty()) {
    return Status::Unavailable("cluster failover (" + reason +
                               "): no attached replica to promote");
  }
  const int64_t t0 = NowUs();
  Status last = Status::Unavailable("cluster failover: no candidate tried");
  for (const Candidate& cand : candidates) {
    Dvms* engine = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (cand.ep->engine == nullptr) continue;  // detached meanwhile
      engine = cand.ep->engine;
      ++cand.ep->inflight;
    }
    Status st = engine->Promote();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --cand.ep->inflight;
    }
    drain_cv_.notify_all();
    if (st.ok()) {
      OnEndpointSuccess(cand.ep);
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.failovers;
      stats_.last_failover_us = NowUs() - t0;
      return Status::OK();
    }
    last = st;
    OnEndpointFailure(cand.ep);
  }
  return Status::Unavailable("cluster failover (" + reason +
                             ") could not promote any replica; last: " +
                             last.message());
}

// ---- typed write conveniences ----

Status ClusterClient::CreateBaseTable(const std::string& name, Schema schema) {
  return Write("CreateBaseTable", [&](Dvms& engine) {
    return engine.CreateBaseTable(name, schema);
  });
}

Status ClusterClient::Insert(const std::string& name, std::vector<Row> rows) {
  return Write("Insert", [&](Dvms& engine) {
    return engine.Insert(name, rows);  // copied per attempt, retries intact
  });
}

Status ClusterClient::LoadProgram(const std::string& source) {
  return Write("LoadProgram",
               [&](Dvms& engine) { return engine.LoadProgram(source); });
}

Status ClusterClient::Execute(const Statement& statement) {
  return Write("Execute",
               [&](Dvms& engine) { return engine.Execute(statement); });
}

Status ClusterClient::PushEvent(const InputEvent& event) {
  return Write("PushEvent",
               [&](Dvms& engine) { return engine.PushEvent(event); });
}

Status ClusterClient::CreateScale(const std::string& name, double domain_min,
                                  double domain_max, double range_min,
                                  double range_max) {
  return Write("CreateScale", [&](Dvms& engine) {
    return engine.CreateScale(name, domain_min, domain_max, range_min,
                              range_max);
  });
}

// ---- observability ----

Result<std::string> ClusterClient::PrimaryName() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& ep : endpoints_) {
    if (ep->engine != nullptr && !ep->engine->is_replica()) return ep->name;
  }
  return Status::Unavailable("cluster: no attached primary");
}

ClusterStats ClusterClient::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  ClusterStats out = stats_;
  out.acked_lsn = acked_lsn_.load(std::memory_order_relaxed);
  return out;
}

std::vector<EndpointHealth> ClusterClient::endpoint_health() const {
  const uint64_t acked = acked_lsn_.load(std::memory_order_relaxed);
  std::vector<EndpointHealth> out;
  std::lock_guard<std::mutex> lock(mu_);
  out.reserve(endpoints_.size());
  for (const auto& up : endpoints_) {
    const Endpoint* ep = up.get();
    EndpointHealth h;
    h.name = ep->name;
    h.attached = ep->engine != nullptr;
    h.breaker = ep->breaker;
    h.consecutive_failures = ep->consecutive_failures;
    h.reads = ep->reads;
    h.writes = ep->writes;
    h.failures = ep->failures;
    h.staleness_skips = ep->staleness_skips;
    h.breaker_trips = ep->breaker_trips;
    h.half_open_probes = ep->half_open_probes;
    h.breaker_recoveries = ep->breaker_recoveries;
    if (ep->engine != nullptr) {
      h.replica = ep->engine->is_replica();
      h.degraded = ep->engine->storage_degraded();
      if (h.replica) {
        const Dvms::ReplicationStats rs = ep->engine->replication_stats();
        h.lsn = rs.replica_lsn;
        h.stale = rs.stale;
      } else {
        // The acked LSN IS the primary's position from the client's view;
        // wal_lsn() would contend with the engine write mutex.
        h.lsn = acked;
      }
      h.lag_behind_acked = acked > h.lsn ? acked - h.lsn : 0;
    }
    out.push_back(std::move(h));
  }
  return out;
}

Table ClusterClient::BuildClusterTable() const {
  Table out(Schema({{"endpoint", ValueType::kString},
                    {"name", ValueType::kString},
                    {"value", ValueType::kInt64}}));
  auto row = [&out](const std::string& endpoint, const char* name,
                    uint64_t value) {
    out.AppendUnchecked({Value::String(endpoint), Value::String(name),
                         Value::Int(static_cast<int64_t>(value))});
  };
  const ClusterStats s = stats();
  const std::vector<EndpointHealth> eps = endpoint_health();
  row("", "endpoints", eps.size());
  row("", "acked_lsn", s.acked_lsn);
  row("", "reads_routed", s.reads_routed);
  row("", "reads_primary", s.reads_primary);
  row("", "reads_replica", s.reads_replica);
  row("", "read_retries", s.read_retries);
  row("", "read_failures", s.read_failures);
  row("", "writes_routed", s.writes_routed);
  row("", "write_retries", s.write_retries);
  row("", "write_failures", s.write_failures);
  row("", "readonly_races", s.readonly_races);
  row("", "write_replays", s.write_replays);
  row("", "write_replays_suppressed", s.write_replays_suppressed);
  row("", "hedges_launched", s.hedges_launched);
  row("", "hedges_won", s.hedges_won);
  row("", "hedges_lost", s.hedges_lost);
  row("", "hedge_failures", s.hedge_failures);
  row("", "failovers", s.failovers);
  row("", "condemned_endpoints", s.condemned_endpoints);
  row("", "last_failover_us", static_cast<uint64_t>(s.last_failover_us));
  row("", "staleness_checks", s.staleness_checks);
  row("", "staleness_skips", s.staleness_skips);
  row("", "staleness_violations", s.staleness_violations);
  row("", "breaker_trips", s.breaker_trips);
  row("", "breaker_recoveries", s.breaker_recoveries);
  row("", "breaker_half_open_probes", s.breaker_half_open_probes);
  row("", "deadline_exhausted", s.deadline_exhausted);
  row("", "cancelled", s.cancelled);
  for (const EndpointHealth& h : eps) {
    row(h.name, "attached", h.attached ? 1 : 0);
    row(h.name, "replica", h.replica ? 1 : 0);
    row(h.name, "stale", h.stale ? 1 : 0);
    row(h.name, "degraded", h.degraded ? 1 : 0);
    row(h.name, "breaker_state", static_cast<uint64_t>(h.breaker));
    row(h.name, "consecutive_failures",
        static_cast<uint64_t>(h.consecutive_failures));
    row(h.name, "lsn", h.lsn);
    row(h.name, "lag_behind_acked", h.lag_behind_acked);
    row(h.name, "reads", h.reads);
    row(h.name, "writes", h.writes);
    row(h.name, "failures", h.failures);
    row(h.name, "staleness_skips", h.staleness_skips);
    row(h.name, "breaker_trips", h.breaker_trips);
    row(h.name, "half_open_probes", h.half_open_probes);
    row(h.name, "breaker_recoveries", h.breaker_recoveries);
  }
  return out;
}

Result<Table> ClusterClient::LocalClusterQuery(const QueryRequest& req) {
  if (req.explain) {
    return Status::Unsupported(
        "cluster: EXPLAIN over dvms_cluster is not supported");
  }
  // dvms_cluster is client-local state, not engine state: resolve it from
  // the client's registry over an empty base, through the engine's own
  // planner/binder/executor stack.
  StatementView view(EmptyBaseView(), &system_relations_);
  return RunSelect(req.select, /*explain=*/false, /*analyze=*/false, view,
                   udfs_);
}

}  // namespace cluster
}  // namespace dvms
