// Fast, deterministic coverage of the cluster routing layer
// (src/cluster/cluster_client.h): staleness-bounded read routing with
// primary fallback, retry/backoff of transient failures under the budget,
// per-endpoint circuit breaker (trip, half-open probe, recovery),
// automatic failover with idempotent write-replay demotion against the
// acked LSN, the client-local dvms_cluster relation, request-context
// cancellation, and hedged-read accounting. The seeded multi-threaded
// chaos sweep lives in cluster_chaos_test.cc.

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster_client.h"
#include "common/env.h"
#include "core/dvms.h"
#include "core/session.h"
#include "obs/trace.h"
#include "gtest/gtest.h"

namespace dvms {
namespace cluster {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    static int counter = 0;
    path_ = fs::path(::testing::TempDir()) /
            ("dvms_cluster_" + tag + "_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++));
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

Dvms::Options PrimaryOptions(const std::string& dir) {
  Dvms::Options options;
  options.canvas_width = 64;
  options.canvas_height = 64;
  options.num_threads = 1;
  options.data_dir = dir;
  options.wal_fsync = "always";  // an acknowledged op is durable = tailable
  options.snapshot_interval = 0;
  return options;
}

Dvms::Options ReplicaOptions(const std::string& primary_dir) {
  Dvms::Options options;
  options.canvas_width = 64;
  options.canvas_height = 64;
  options.num_threads = 1;
  options.replica_of = primary_dir;
  options.replica_poll_ms = 1;
  return options;
}

/// Client tuned for test wall-clock: everything eligible for reads, short
/// backoffs, hedging off (tests that want it opt in).
ClusterOptions FastOptions() {
  ClusterOptions options;
  options.staleness_bound_frames = 1 << 20;
  options.max_attempts = 6;
  options.backoff_floor_ms = 1;
  options.backoff_cap_ms = 4;
  options.hedge_percentile = 0;  // 0 = disabled (-1 would resolve the env)
  options.breaker_failures = 3;
  options.breaker_cooldown_ms = 20;
  options.deadline_ms = 0;
  options.seed = 7;
  return options;
}

std::string Fingerprint(const Table& table) {
  std::ostringstream out;
  for (const Row& row : table.rows()) {
    for (const Value& v : row) out << v.ToString() << '|';
    out << '\n';
  }
  return out.str();
}

constexpr const char* kReadSql = "SELECT id, v FROM Sales ORDER BY id, v";

Status SeedViaClient(ClusterClient& client) {
  Schema schema({{"id", ValueType::kInt64}, {"v", ValueType::kDouble}});
  DVMS_RETURN_IF_ERROR(client.CreateBaseTable("Sales", schema));
  std::vector<Row> rows;
  for (int64_t i = 0; i < 20; ++i) {
    rows.push_back({Value::Int(i), Value::Double((i * 37) % 101)});
  }
  return client.Insert("Sales", std::move(rows));
}

void AwaitCaughtUp(Dvms& primary, Dvms& replica) {
  ASSERT_TRUE(primary.FlushWal().ok());
  const uint64_t target = primary.wal_lsn();
  const uint64_t applied = replica.WaitForReplicaLsn(target, 20000);
  ASSERT_GE(applied, target) << "replica never caught up to lsn " << target;
}

// ---------------------------------------------------------------------------

TEST(ClusterRoutingTest, ReplicasServeInBoundReads) {
  TempDir dir("route");
  Dvms primary(PrimaryOptions(dir.str()));
  ASSERT_TRUE(primary.recovery_status().ok());
  Dvms replica1(ReplicaOptions(dir.str()));
  Dvms replica2(ReplicaOptions(dir.str()));

  ClusterClient client(FastOptions());
  ASSERT_TRUE(client.AddEndpoint("p", &primary).ok());
  ASSERT_TRUE(client.AddEndpoint("r1", &replica1).ok());
  ASSERT_TRUE(client.AddEndpoint("r2", &replica2).ok());
  ASSERT_TRUE(SeedViaClient(client).ok());
  AwaitCaughtUp(primary, replica1);
  AwaitCaughtUp(primary, replica2);

  const std::string expected = Fingerprint(primary.Query(kReadSql).value());
  for (int i = 0; i < 8; ++i) {
    Result<Table> got = client.Query(kReadSql);
    ASSERT_TRUE(got.ok()) << got.status().message();
    EXPECT_EQ(Fingerprint(got.value()), expected);
  }
  const ClusterStats s = client.stats();
  // With both replicas eligible, the round-robin never falls back.
  EXPECT_EQ(s.reads_replica, 8u);
  EXPECT_EQ(s.reads_primary, 0u);
  EXPECT_EQ(s.staleness_violations, 0u);
  EXPECT_EQ(s.acked_lsn, primary.wal_lsn());
}

TEST(ClusterRoutingTest, StrictBoundFallsBackToPrimary) {
  TempDir dir("strict");
  Dvms primary(PrimaryOptions(dir.str()));
  ASSERT_TRUE(primary.recovery_status().ok());
  // Replicas that effectively never poll inside the test window: their LSN
  // stays at bootstrap, so a strict bound must exclude them.
  Dvms::Options lagged = ReplicaOptions(dir.str());
  lagged.replica_poll_ms = 10000;
  Dvms replica(lagged);

  ClusterOptions copts = FastOptions();
  copts.staleness_bound_frames = 0;  // read-your-acknowledged-writes
  ClusterClient client(copts);
  ASSERT_TRUE(client.AddEndpoint("p", &primary).ok());
  ASSERT_TRUE(client.AddEndpoint("r1", &replica).ok());
  ASSERT_TRUE(SeedViaClient(client).ok());

  for (int i = 0; i < 4; ++i) {
    Result<Table> got = client.Query(kReadSql);
    ASSERT_TRUE(got.ok()) << got.status().message();
  }
  const ClusterStats s = client.stats();
  EXPECT_EQ(s.reads_primary, 4u);
  EXPECT_EQ(s.reads_replica, 0u);
  EXPECT_GT(s.staleness_skips, 0u);
  EXPECT_EQ(s.staleness_violations, 0u);
}

TEST(ClusterRoutingTest, DegradedWriteRetriesUntilProbeHeals) {
  obs::ResetForTesting();
  obs::SetEnabled(true);
  TempDir dir("degraded");
  Dvms primary(PrimaryOptions(dir.str()));
  ASSERT_TRUE(primary.recovery_status().ok());

  ClusterOptions copts = FastOptions();
  copts.max_attempts = 100;
  copts.backoff_floor_ms = 2;
  copts.backoff_cap_ms = 10;
  ClusterClient client(copts);
  ASSERT_TRUE(client.AddEndpoint("p", &primary).ok());
  ASSERT_TRUE(SeedViaClient(client).ok());

  // Every write/fsync fails with ENOSPC until the disk "frees up".
  IoFaultConfig config =
      ParseIoFaultSpec("11:1.0:write,fsync,enospc").value();
  FaultEnv fault_env(env::Posix(), config);
  ScopedEnv scoped(&fault_env);
  std::thread healer([&fault_env] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    fault_env.Disarm();
  });
  Status st =
      client.Insert("Sales", {{Value::Int(100), Value::Double(1.0)}});
  healer.join();
  ASSERT_TRUE(st.ok()) << st.message();
  EXPECT_GT(client.stats().write_retries, 0u);

  Result<Table> row =
      client.Query("SELECT id FROM Sales WHERE id = 100");
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row.value().num_rows(), 1u);

  // Satellite: the degraded rejections CheckWritable produced while the
  // disk was sick are visible as a dvms_metrics counter.
  Table metric =
      Session(&primary)
          .Query("SELECT count FROM dvms_metrics "
                 "WHERE name = 'engine.rejected_storage_degraded'")
          .value();
  ASSERT_EQ(metric.num_rows(), 1u);
  EXPECT_GE(metric.At(0, "count").value().int_value(), 1);
  obs::SetEnabled(false);
  obs::ResetForTesting();
}

TEST(ClusterRoutingTest, ReadOnlyReplicaRejectionsAreCounted) {
  obs::ResetForTesting();
  obs::SetEnabled(true);
  TempDir dir("roreject");
  Dvms primary(PrimaryOptions(dir.str()));
  ASSERT_TRUE(primary.recovery_status().ok());
  ASSERT_TRUE(primary.CreateBaseTable(
                         "Sales", Schema({{"id", ValueType::kInt64}}))
                  .ok());
  Dvms replica(ReplicaOptions(dir.str()));
  ASSERT_TRUE(replica.recovery_status().ok());

  for (int i = 0; i < 3; ++i) {
    Status st = replica.Insert("Sales", {{Value::Int(i)}});
    EXPECT_EQ(st.code(), StatusCode::kReadOnlyReplica);
  }
  Table metric =
      Session(&replica)
          .Query("SELECT count FROM dvms_metrics "
                 "WHERE name = 'engine.rejected_readonly_replica'")
          .value();
  ASSERT_EQ(metric.num_rows(), 1u);
  EXPECT_GE(metric.At(0, "count").value().int_value(), 3);
  obs::SetEnabled(false);
  obs::ResetForTesting();
}

TEST(ClusterRoutingTest, BreakerTripsThenHalfOpenProbeRecovers) {
  TempDir dir("breaker");
  Dvms primary(PrimaryOptions(dir.str()));
  ASSERT_TRUE(primary.recovery_status().ok());

  ClusterOptions copts = FastOptions();
  copts.max_attempts = 3;
  copts.backoff_floor_ms = 1;
  copts.backoff_cap_ms = 2;
  copts.breaker_failures = 3;
  copts.breaker_cooldown_ms = 20;
  ClusterClient client(copts);
  ASSERT_TRUE(client.AddEndpoint("p", &primary).ok());
  ASSERT_TRUE(SeedViaClient(client).ok());

  IoFaultConfig config =
      ParseIoFaultSpec("13:1.0:write,fsync,enospc").value();
  FaultEnv fault_env(env::Posix(), config);
  ScopedEnv scoped(&fault_env);

  // Three consecutive endpoint-attributable write failures trip the
  // primary's breaker.
  Status st = client.Insert("Sales", {{Value::Int(200), Value::Double(0)}});
  ASSERT_FALSE(st.ok());
  ClusterStats s = client.stats();
  EXPECT_EQ(s.breaker_trips, 1u);

  // While the breaker is open (cooldown not elapsed), reads fail fast with
  // kUnavailable instead of queueing on the sick endpoint.
  Result<Table> blocked = client.Query(kReadSql);
  ASSERT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.status().code(), StatusCode::kUnavailable);

  // Past the cooldown, exactly one half-open probe is let through; reads
  // stay available on a degraded engine, so the probe succeeds and closes
  // the breaker.
  fault_env.Disarm();
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  Result<Table> probe = client.Query(kReadSql);
  ASSERT_TRUE(probe.ok()) << probe.status().message();
  s = client.stats();
  EXPECT_GE(s.breaker_half_open_probes, 1u);
  EXPECT_GE(s.breaker_recoveries, 1u);
  const std::vector<EndpointHealth> health = client.endpoint_health();
  ASSERT_EQ(health.size(), 1u);
  EXPECT_EQ(health[0].breaker, BreakerState::kClosed);

  // Writes recover too once the engine's own space probe re-enables them.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  Status write = Status::Internal("not attempted");
  while (std::chrono::steady_clock::now() < deadline) {
    write = client.Insert("Sales", {{Value::Int(201), Value::Double(0)}});
    if (write.ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(write.ok()) << write.message();
}

TEST(ClusterFailoverTest, PromotesReplicaAndReroutesWrites) {
  TempDir dir("failover");
  auto primary = std::make_unique<Dvms>(PrimaryOptions(dir.str()));
  ASSERT_TRUE(primary->recovery_status().ok());
  Dvms replica(ReplicaOptions(dir.str()));
  ASSERT_TRUE(replica.recovery_status().ok());

  ClusterClient client(FastOptions());
  ASSERT_TRUE(client.AddEndpoint("p", primary.get()).ok());
  ASSERT_TRUE(client.AddEndpoint("r1", &replica).ok());
  ASSERT_TRUE(SeedViaClient(client).ok());
  AwaitCaughtUp(*primary, replica);
  const uint64_t acked_before = client.acked_lsn();

  // Kill the primary: detach (drains in-flight calls), then destroy.
  ASSERT_TRUE(client.DetachEndpoint("p").ok());
  primary.reset();

  // The next write triggers automatic failover onto the replica.
  Status st = client.Insert("Sales", {{Value::Int(500), Value::Double(5)}});
  ASSERT_TRUE(st.ok()) << st.message();
  const ClusterStats s = client.stats();
  EXPECT_EQ(s.failovers, 1u);
  EXPECT_FALSE(replica.is_replica());
  EXPECT_EQ(client.PrimaryName().value(), "r1");
  EXPECT_GT(client.acked_lsn(), acked_before);

  // Reads keep flowing through the promoted primary; nothing was lost.
  Result<Table> all = client.Query("SELECT id FROM Sales ORDER BY id");
  ASSERT_TRUE(all.ok()) << all.status().message();
  EXPECT_EQ(all.value().num_rows(), 21u);  // 20 seeded + the failover write
}

TEST(ClusterFailoverTest, SuppressesReplayOfCommitWhoseAckWasLost) {
  TempDir dir("replay");
  auto primary = std::make_unique<Dvms>(PrimaryOptions(dir.str()));
  ASSERT_TRUE(primary->recovery_status().ok());
  Dvms replica(ReplicaOptions(dir.str()));
  ASSERT_TRUE(replica.recovery_status().ok());

  ClusterOptions copts = FastOptions();
  // Generous gap between attempts so the killer thread detaches the
  // primary before the retry runs.
  copts.backoff_floor_ms = 100;
  copts.backoff_cap_ms = 100;
  ClusterClient client(copts);
  ASSERT_TRUE(client.AddEndpoint("p", primary.get()).ok());
  ASSERT_TRUE(client.AddEndpoint("r1", &replica).ok());
  ASSERT_TRUE(SeedViaClient(client).ok());

  // The classic ambiguous failure: the commit reaches the log, the
  // acknowledgement does not. Modeled by an op that commits and then
  // reports a transport error; the primary dies before the retry.
  std::atomic<int> calls{0};
  std::promise<void> committed;
  std::thread killer([&] {
    committed.get_future().wait();
    ASSERT_TRUE(client.DetachEndpoint("p").ok());
    primary.reset();
  });
  Status st = client.Write("flaky-insert", [&](Dvms& engine) {
    const int call = ++calls;
    Status inner =
        engine.Insert("Sales", {{Value::Int(999), Value::Double(9)}});
    if (call == 1 && inner.ok()) {
      committed.set_value();
      return Status::Unavailable("simulated lost acknowledgement");
    }
    return inner;
  });
  killer.join();

  // The failover found the committed frame beyond the acked LSN and
  // demoted the retry into an acknowledgement: the op ran exactly once.
  ASSERT_TRUE(st.ok()) << st.message();
  EXPECT_EQ(calls.load(), 1);
  const ClusterStats s = client.stats();
  EXPECT_EQ(s.failovers, 1u);
  EXPECT_EQ(s.write_replays_suppressed, 1u);
  Result<Table> rows =
      client.Query("SELECT id FROM Sales WHERE id = 999");
  ASSERT_TRUE(rows.ok()) << rows.status().message();
  EXPECT_EQ(rows.value().num_rows(), 1u);  // at-most-once under ack loss
}

TEST(ClusterObsTest, ClusterRelationIsQueryable) {
  TempDir dir("obs");
  Dvms primary(PrimaryOptions(dir.str()));
  ASSERT_TRUE(primary.recovery_status().ok());
  ClusterClient client(FastOptions());
  ASSERT_TRUE(client.AddEndpoint("p", &primary).ok());
  ASSERT_TRUE(SeedViaClient(client).ok());
  ASSERT_TRUE(client.Query(kReadSql).ok());

  // Global counters: endpoint = ''.
  Result<Table> routed = client.Query(
      "SELECT value FROM dvms_cluster "
      "WHERE endpoint = '' AND name = 'reads_routed'");
  ASSERT_TRUE(routed.ok()) << routed.status().message();
  ASSERT_EQ(routed.value().num_rows(), 1u);
  EXPECT_GE(routed.value().At(0, "value").value().int_value(), 1);

  // Per-endpoint health rows.
  Result<Table> attached = client.Query(
      "SELECT value FROM dvms_cluster "
      "WHERE endpoint = 'p' AND name = 'attached'");
  ASSERT_TRUE(attached.ok());
  ASSERT_EQ(attached.value().num_rows(), 1u);
  EXPECT_EQ(attached.value().At(0, "value").value().int_value(), 1);

  // Aggregation over the relation works (it is a real relation in the
  // planner's eyes, just client-local).
  Result<Table> count =
      client.Query("SELECT COUNT(*) AS n FROM dvms_cluster");
  ASSERT_TRUE(count.ok());
  EXPECT_GT(count.value().At(0, "n").value().int_value(), 20);

  // dvms_cluster lives in the client, engine relations in the fleet; a
  // join cannot be served from either side.
  Result<Table> mixed =
      client.Query("SELECT * FROM dvms_cluster, Sales");
  ASSERT_FALSE(mixed.ok());
  EXPECT_EQ(mixed.status().code(), StatusCode::kUnsupported);
  Result<Table> explain =
      client.Query("EXPLAIN SELECT * FROM dvms_cluster");
  ASSERT_FALSE(explain.ok());
  EXPECT_EQ(explain.status().code(), StatusCode::kUnsupported);

  // A named EXPLAIN report is an engine relation: routed and session reads
  // see it once its program commits.
  ASSERT_TRUE(client.LoadProgram("rep = EXPLAIN SELECT * FROM Sales;").ok());
  Result<Table> routed_rep = client.Query("SELECT * FROM rep");
  ASSERT_TRUE(routed_rep.ok()) << routed_rep.status().message();
  EXPECT_GE(routed_rep.value().num_rows(), 1u);
  Result<Table> session_rep = Session(&primary).Query("SELECT * FROM rep");
  ASSERT_TRUE(session_rep.ok()) << session_rep.status().message();
  EXPECT_EQ(session_rep.value().num_rows(), routed_rep.value().num_rows());
}

TEST(ClusterRoutingTest, RequestContextCancelShortCircuits) {
  TempDir dir("cancel");
  Dvms primary(PrimaryOptions(dir.str()));
  ASSERT_TRUE(primary.recovery_status().ok());
  ClusterClient client(FastOptions());
  ASSERT_TRUE(client.AddEndpoint("p", &primary).ok());
  ASSERT_TRUE(SeedViaClient(client).ok());

  RequestContext ctx;
  ctx.RequestCancel();
  Result<Table> r = client.Query(kReadSql, &ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  EXPECT_GE(client.stats().cancelled, 1u);

  // The cancel token is per-request state: after the abort consumed it,
  // the same context serves the next read normally (mirroring Session's
  // consume-on-abort semantics).
  ctx.cancel->store(false);
  Result<Table> again = client.Query(kReadSql, &ctx);
  EXPECT_TRUE(again.ok()) << again.status().message();
}

TEST(ClusterRoutingTest, HedgedReadAccountingStaysConsistent) {
  TempDir dir("hedge");
  Dvms primary(PrimaryOptions(dir.str()));
  ASSERT_TRUE(primary.recovery_status().ok());
  Dvms replica1(ReplicaOptions(dir.str()));
  Dvms replica2(ReplicaOptions(dir.str()));

  ClusterOptions copts = FastOptions();
  copts.hedge_percentile = 50;  // hedge anything beyond the median
  copts.hedge_min_samples = 4;
  ClusterClient client(copts);
  ASSERT_TRUE(client.AddEndpoint("p", &primary).ok());
  ASSERT_TRUE(client.AddEndpoint("r1", &replica1).ok());
  ASSERT_TRUE(client.AddEndpoint("r2", &replica2).ok());
  ASSERT_TRUE(SeedViaClient(client).ok());
  AwaitCaughtUp(primary, replica1);
  AwaitCaughtUp(primary, replica2);

  const std::string expected = Fingerprint(primary.Query(kReadSql).value());
  for (int i = 0; i < 100; ++i) {
    Result<Table> got = client.Query(kReadSql);
    ASSERT_TRUE(got.ok()) << got.status().message();
    EXPECT_EQ(Fingerprint(got.value()), expected);
  }
  // Let any backup still in flight settle, then the books must balance:
  // every launched hedge either won or lost, nothing leaks.
  ClusterStats s = client.stats();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (s.hedges_won + s.hedges_lost < s.hedges_launched &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    s = client.stats();
  }
  EXPECT_EQ(s.hedges_won + s.hedges_lost, s.hedges_launched);
  EXPECT_EQ(s.staleness_violations, 0u);
}

}  // namespace
}  // namespace cluster
}  // namespace dvms
