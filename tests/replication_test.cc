// Fast, deterministic replication coverage: a replica opened with
// Options::replica_of bootstraps from the primary's durability directory,
// continuously tails its WAL, and serves snapshot-isolated reads that
// converge to the primary's committed state. Writes on a replica are
// rejected with kReadOnlyReplica; lag and tailer health are queryable via
// the dvms_replication system relation; injected FaultSite::kReplication
// faults only raise lag / staleness and never crash the replica; Promote()
// turns the replica into a durable, writable primary over the same
// directory. The fork-based divergence harness lives in
// replication_crash_test.cc.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "core/dvms.h"
#include "core/session.h"
#include "durability/tailer.h"
#include "gtest/gtest.h"

namespace dvms {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    static int counter = 0;
    path_ = fs::path(::testing::TempDir()) /
            ("dvms_repl_" + tag + "_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++));
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }
  fs::path path() const { return path_; }

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
  options.replica_poll_ms = 1;  // keep test wall-clock low
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

Status SeedPrimary(Dvms& primary) {
  Schema schema({{"id", ValueType::kInt64}, {"v", ValueType::kDouble}});
  DVMS_RETURN_IF_ERROR(primary.CreateBaseTable("Sales", schema));
  std::vector<Row> rows;
  for (int64_t i = 0; i < 20; ++i) {
    rows.push_back({Value::Int(i), Value::Double((i * 37) % 101)});
  }
  return primary.Insert("Sales", std::move(rows));
}

constexpr const char* kReadSql = "SELECT id, v FROM Sales ORDER BY id, v";

/// dvms_replication as a name -> value map (the relation is two-column).
std::map<std::string, int64_t> ReplicationRows(Dvms& engine) {
  std::map<std::string, int64_t> out;
  Result<Table> table =
      engine.Query("SELECT name, value FROM dvms_replication");
  EXPECT_TRUE(table.ok()) << table.status().message();
  if (!table.ok()) return out;
  for (const Row& row : table.value().rows()) {
    out[row[0].string_value()] = row[1].int_value();
  }
  return out;
}

/// Blocks until the replica has applied everything the primary has
/// committed (flushing first so the frames are on disk to tail).
void AwaitCaughtUp(Dvms& primary, Dvms& replica) {
  ASSERT_TRUE(primary.FlushWal().ok());
  const uint64_t target = primary.wal_lsn();
  const uint64_t applied = replica.WaitForReplicaLsn(target, 20000);
  ASSERT_GE(applied, target) << "replica never caught up to lsn " << target;
}

// ---------------------------------------------------------------------------

TEST(ReplicationTest, ReplicaConvergesAndServesReads) {
  TempDir dir("converge");
  Dvms primary(PrimaryOptions(dir.str()));
  ASSERT_TRUE(primary.recovery_status().ok());
  ASSERT_TRUE(SeedPrimary(primary).ok());

  Dvms replica(ReplicaOptions(dir.str()));
  ASSERT_TRUE(replica.recovery_status().ok())
      << replica.recovery_status().message();
  EXPECT_TRUE(replica.is_replica());
  AwaitCaughtUp(primary, replica);

  // Same rows through the engine-level read path...
  EXPECT_EQ(Fingerprint(replica.Query(kReadSql).value()),
            Fingerprint(primary.Query(kReadSql).value()));

  // ...and through the lock-free Session path.
  Session session(&replica);
  EXPECT_EQ(Fingerprint(session.Query(kReadSql).value()),
            Fingerprint(primary.Query(kReadSql).value()));

  // New commits keep flowing: the tail is continuous, not a one-shot copy.
  ASSERT_TRUE(primary
                  .Insert("Sales", {{Value::Int(100), Value::Double(1.5)},
                                    {Value::Int(101), Value::Double(2.5)}})
                  .ok());
  AwaitCaughtUp(primary, replica);
  EXPECT_EQ(Fingerprint(session.Query(kReadSql).value()),
            Fingerprint(primary.Query(kReadSql).value()));
}

TEST(ReplicationTest, WritesRejectedReadsAllowed) {
  TempDir dir("readonly");
  Dvms primary(PrimaryOptions(dir.str()));
  ASSERT_TRUE(SeedPrimary(primary).ok());

  Dvms replica(ReplicaOptions(dir.str()));
  AwaitCaughtUp(primary, replica);

  // Every mutating entry point refuses with the dedicated code.
  Status st = replica.Insert("Sales", {{Value::Int(7), Value::Double(7)}});
  EXPECT_EQ(st.code(), StatusCode::kReadOnlyReplica) << st.message();
  st = replica.CreateBaseTable(
      "Other", Schema({{"x", ValueType::kInt64}}));
  EXPECT_EQ(st.code(), StatusCode::kReadOnlyReplica);
  st = replica.PushEvent(InputEvent::MouseDown(0, 3, 3));
  EXPECT_EQ(st.code(), StatusCode::kReadOnlyReplica);
  st = replica.Delete("Sales", nullptr).status();
  EXPECT_EQ(st.code(), StatusCode::kReadOnlyReplica);
  st = replica.Undo();
  EXPECT_EQ(st.code(), StatusCode::kReadOnlyReplica);
  st = replica.Checkpoint();
  EXPECT_EQ(st.code(), StatusCode::kReadOnlyReplica);

  // Reads — plain, EXPLAIN, system relations — all still serve.
  EXPECT_TRUE(replica.Query(kReadSql).ok());
  EXPECT_TRUE(replica.Query("EXPLAIN " + std::string(kReadSql)).ok());
  EXPECT_TRUE(replica.Query("SELECT name, count FROM dvms_metrics").ok());

  // Rejected writes changed nothing.
  AwaitCaughtUp(primary, replica);
  EXPECT_EQ(Fingerprint(replica.Query(kReadSql).value()),
            Fingerprint(primary.Query(kReadSql).value()));
}

TEST(ReplicationTest, ReplicationRelationReportsLag) {
  TempDir dir("lag");
  Dvms primary(PrimaryOptions(dir.str()));
  ASSERT_TRUE(SeedPrimary(primary).ok());

  Dvms replica(ReplicaOptions(dir.str()));
  AwaitCaughtUp(primary, replica);

  // Commit after the replica attached so the frames flow through the
  // tailer (the bootstrap copy is not counted as "applied frames").
  ASSERT_TRUE(
      primary.Insert("Sales", {{Value::Int(42), Value::Double(4.2)}}).ok());
  AwaitCaughtUp(primary, replica);

  std::map<std::string, int64_t> rows = ReplicationRows(replica);
  EXPECT_EQ(rows["replica"], 1);
  EXPECT_EQ(rows["promoted"], 0);
  EXPECT_EQ(rows["stale"], 0);
  EXPECT_EQ(rows["lag_frames"], 0) << "quiesced primary must show zero lag";
  EXPECT_EQ(rows["lag_bytes"], 0);
  EXPECT_EQ(rows["replica_lsn"], static_cast<int64_t>(primary.wal_lsn()));
  EXPECT_EQ(rows["replica_lsn"], rows["primary_lsn"]);
  EXPECT_GT(rows["frames_applied"], 0);
  EXPECT_GT(rows["polls"], 0);

  // The same rows are visible through a lock-free Session read.
  Session session(&replica);
  Result<Table> via_session =
      session.Query("SELECT name, value FROM dvms_replication");
  ASSERT_TRUE(via_session.ok()) << via_session.status().message();
  EXPECT_EQ(via_session.value().rows().size(), 13u);

  // A primary reports replica=0 and no lag counters.
  std::map<std::string, int64_t> primary_rows = ReplicationRows(primary);
  EXPECT_EQ(primary_rows["replica"], 0);
  EXPECT_EQ(primary_rows["lag_frames"], 0);
}

TEST(ReplicationTest, PromoteMakesReplicaWritableAndDurable) {
  TempDir dir("promote");
  uint64_t committed_lsn = 0;
  {
    Dvms primary(PrimaryOptions(dir.str()));
    ASSERT_TRUE(SeedPrimary(primary).ok());
    committed_lsn = primary.wal_lsn();
  }  // primary gone — simulated failover

  Dvms replica(ReplicaOptions(dir.str()));
  ASSERT_TRUE(replica.recovery_status().ok());
  replica.WaitForReplicaLsn(committed_lsn, 20000);

  Status promoted = replica.Promote();
  ASSERT_TRUE(promoted.ok()) << promoted.message();
  EXPECT_FALSE(replica.is_replica());

  std::map<std::string, int64_t> rows = ReplicationRows(replica);
  EXPECT_EQ(rows["replica"], 0);
  EXPECT_EQ(rows["promoted"], 1);

  // Promoting twice is an error, as is promoting a primary.
  EXPECT_FALSE(replica.Promote().ok());

  // The promoted engine accepts and logs writes...
  ASSERT_TRUE(
      replica.Insert("Sales", {{Value::Int(500), Value::Double(9.5)}}).ok());
  const std::string after = Fingerprint(replica.Query(kReadSql).value());
  const uint64_t final_lsn = replica.wal_lsn();
  EXPECT_GT(final_lsn, committed_lsn);

  // ...durably: a fresh engine over the same directory recovers them.
  Dvms reopened(PrimaryOptions(dir.str()));
  ASSERT_TRUE(reopened.recovery_status().ok())
      << reopened.recovery_status().message();
  EXPECT_EQ(reopened.durability_stats().recovered_lsn, final_lsn);
  EXPECT_EQ(Fingerprint(reopened.Query(kReadSql).value()), after);
}

TEST(ReplicationTest, PromoteOnPrimaryFails) {
  Dvms engine(Dvms::Options{});
  Status st = engine.Promote();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.message();
}

TEST(ReplicationTest, ReplicationFaultsRaiseLagNeverCrash) {
  TempDir dir("faults");
  Dvms primary(PrimaryOptions(dir.str()));
  ASSERT_TRUE(SeedPrimary(primary).ok());

  Dvms replica(ReplicaOptions(dir.str()));
  AwaitCaughtUp(primary, replica);

  {
    // Half of all tailer directory reads fail. Replication-site faults are
    // scoped to the tailer: the primary's own commits are untouched.
    FaultConfig config;
    config.seed = 20260808;
    config.rate = 0.5;
    config.site_mask = 1u << static_cast<uint32_t>(FaultSite::kReplication);
    ScopedFaultInjector faults(config);
    for (int64_t i = 0; i < 30; ++i) {
      ASSERT_TRUE(
          replica.Query(kReadSql).ok());  // replica keeps serving throughout
      ASSERT_TRUE(
          primary.Insert("Sales", {{Value::Int(1000 + i), Value::Double(i)}})
              .ok());
    }
    // The inserts can all finish before the tail thread polls under the
    // injector: keep it installed until a poll has been faulted (or 5 s).
    for (int i = 0; i < 5000 &&
                    faults.injector()->injections(FaultSite::kReplication) == 0;
         ++i) {
      usleep(1000);
    }
    EXPECT_GT(faults.injector()->injections(FaultSite::kReplication), 0u);
  }

  // With the injector gone the replica drains the backlog and converges.
  AwaitCaughtUp(primary, replica);
  EXPECT_EQ(Fingerprint(replica.Query(kReadSql).value()),
            Fingerprint(primary.Query(kReadSql).value()));
  Dvms::ReplicationStats stats = replica.replication_stats();
  EXPECT_GT(stats.poll_errors, 0u) << "faults never hit the tail loop";
  EXPECT_FALSE(stats.stale);
  EXPECT_EQ(stats.lag_frames, 0u);
}

/// A pass-through `hold(x)` UDF that, once armed, parks the calling thread
/// until released — here the replica's tail thread, mid-apply.
struct HoldLatch {
  std::mutex mu;
  std::condition_variable cv;
  bool armed = false;
  bool entered = false;
  bool released = false;

  void Arm() {
    std::lock_guard<std::mutex> lock(mu);
    armed = true;
  }
  bool AwaitEntered() {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, std::chrono::seconds(20),
                       [this] { return entered; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu);
    released = true;
    cv.notify_all();
  }
};

ScalarUdf HoldUdf(std::shared_ptr<HoldLatch> latch) {
  ScalarUdf udf;
  udf.name = "hold";
  udf.arity = 1;
  udf.pure = true;
  udf.return_type = ValueType::kDouble;
  udf.fn = [latch](const std::vector<Value>& args) -> Result<Value> {
    if (latch != nullptr) {
      std::unique_lock<std::mutex> lock(latch->mu);
      if (latch->armed && !latch->released) {
        latch->entered = true;
        latch->cv.notify_all();
        latch->cv.wait(lock, [&latch] { return latch->released; });
      }
    }
    return args[0];
  };
  return udf;
}

TEST(ReplicationTest, ReplicaReadDuringApplyTakesReaderSlot) {
  // The tail thread's batch apply is internal work for that thread alone:
  // a read issued on another thread mid-apply still passes the reader gate.
  TempDir dir("apply_admission");
  Dvms primary(PrimaryOptions(dir.str()));
  ASSERT_TRUE(primary.udfs()->RegisterScalar(HoldUdf(nullptr)).ok());
  ASSERT_TRUE(SeedPrimary(primary).ok());
  Dvms replica(ReplicaOptions(dir.str()));
  AwaitCaughtUp(primary, replica);
  auto latch = std::make_shared<HoldLatch>();
  ASSERT_TRUE(replica.udfs()->RegisterScalar(HoldUdf(latch)).ok());
  // Taking mu_ orders the registration before the tail thread's next apply.
  ASSERT_TRUE(replica.recovery_status().ok());
  // Declared after the replica: a failed assertion still frees the tail
  // thread before the replica joins it.
  struct ReleaseOnExit {
    HoldLatch* latch;
    ~ReleaseOnExit() { latch->Release(); }
  } release_on_exit{latch.get()};
  ASSERT_TRUE(primary.LoadProgram("V = SELECT hold(v) AS y FROM Sales;").ok());
  AwaitCaughtUp(primary, replica);

  latch->Arm();
  ASSERT_TRUE(
      primary.Insert("Sales", {{Value::Int(500), Value::Double(5)}}).ok());
  ASSERT_TRUE(latch->AwaitEntered()) << "the tail thread never reached hold()";
  const int64_t admitted = replica.governor_stats().readers_admitted;
  ASSERT_TRUE(replica.Query(kReadSql).ok());
  EXPECT_EQ(replica.governor_stats().readers_admitted, admitted + 1)
      << "a read during a replica apply skipped the reader gate";
  latch->Release();
  AwaitCaughtUp(primary, replica);
}

TEST(ReplicationTest, SustainedFaultsDegradeToStaleThenRecover) {
  TempDir dir("stale");
  Dvms primary(PrimaryOptions(dir.str()));
  ASSERT_TRUE(SeedPrimary(primary).ok());

  Dvms::Options options = ReplicaOptions(dir.str());
  options.replica_retry_budget = 2;  // report staleness quickly
  Dvms replica(options);
  AwaitCaughtUp(primary, replica);
  const std::string frozen = Fingerprint(replica.Query(kReadSql).value());

  {
    FaultConfig config;
    config.seed = 7;
    config.rate = 1.0;  // every poll fails: the primary is unreachable
    config.site_mask = 1u << static_cast<uint32_t>(FaultSite::kReplication);
    ScopedFaultInjector faults(config);
    ASSERT_TRUE(
        primary.Insert("Sales", {{Value::Int(777), Value::Double(7.7)}}).ok());
    ASSERT_TRUE(primary.FlushWal().ok());
    // Degraded, not dead: the replica marks itself stale once the retry
    // budget is spent, while still serving its last applied epoch.
    const uint64_t stale_deadline_lsn = primary.wal_lsn();
    for (int i = 0; i < 20000 && !replica.replication_stats().stale; ++i) {
      usleep(1000);
    }
    EXPECT_TRUE(replica.replication_stats().stale);
    EXPECT_LT(replica.wal_lsn(), stale_deadline_lsn);
    EXPECT_EQ(Fingerprint(replica.Query(kReadSql).value()), frozen);
    std::map<std::string, int64_t> rows = ReplicationRows(replica);
    EXPECT_EQ(rows["stale"], 1);
    EXPECT_FALSE(replica.replication_stats().last_error.empty());
  }

  // Primary "reachable" again: the replica clears staleness and catches up.
  AwaitCaughtUp(primary, replica);
  EXPECT_FALSE(replica.replication_stats().stale);
  EXPECT_EQ(Fingerprint(replica.Query(kReadSql).value()),
            Fingerprint(primary.Query(kReadSql).value()));
}

TEST(ReplicationTest, ReplicaStartedBeforePrimaryCatchesUp) {
  TempDir base("early");
  const std::string dir = (base.path() / "primary").string();

  // The primary's directory does not exist yet: the replica starts empty
  // (degraded, lsn 0) instead of failing, and attaches once it appears.
  Dvms replica(ReplicaOptions(dir));
  ASSERT_TRUE(replica.recovery_status().ok());
  EXPECT_EQ(replica.wal_lsn(), 0u);

  Dvms primary(PrimaryOptions(dir));
  ASSERT_TRUE(primary.recovery_status().ok());
  ASSERT_TRUE(SeedPrimary(primary).ok());
  AwaitCaughtUp(primary, replica);
  EXPECT_EQ(Fingerprint(replica.Query(kReadSql).value()),
            Fingerprint(primary.Query(kReadSql).value()));
}

TEST(ReplicationTest, ReplicaBootstrapsFromSnapshotPlusSuffix) {
  TempDir dir("snapshot");
  Dvms::Options options = PrimaryOptions(dir.str());
  options.snapshot_interval = 8;  // force snapshots + segment rotation
  Dvms primary(options);
  ASSERT_TRUE(SeedPrimary(primary).ok());
  for (int64_t i = 0; i < 30; ++i) {
    ASSERT_TRUE(
        primary.Insert("Sales", {{Value::Int(2000 + i), Value::Double(i)}})
            .ok());
  }

  Dvms replica(ReplicaOptions(dir.str()));
  ASSERT_TRUE(replica.recovery_status().ok());
  AwaitCaughtUp(primary, replica);
  EXPECT_EQ(Fingerprint(replica.Query(kReadSql).value()),
            Fingerprint(primary.Query(kReadSql).value()));

  // More writes rotate further segments under the running tailer.
  for (int64_t i = 0; i < 30; ++i) {
    ASSERT_TRUE(
        primary.Insert("Sales", {{Value::Int(3000 + i), Value::Double(i)}})
            .ok());
  }
  AwaitCaughtUp(primary, replica);
  EXPECT_EQ(Fingerprint(replica.Query(kReadSql).value()),
            Fingerprint(primary.Query(kReadSql).value()));
}

// ---------------------------------------------------------------------------

// N replicas started together would otherwise tail in lockstep; the seeded
// jitter decorrelates them while staying deterministic per seed.
TEST(PollCadenceTest, SameSeedYieldsIdenticalSchedule) {
  PollCadence a(8, 42);
  PollCadence b(8, 42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.NextWaitMs(0), b.NextWaitMs(0));
  }
}

TEST(PollCadenceTest, JitterStaysWithinHalfToOneAndAHalf) {
  PollCadence cadence(8, 7);
  bool below_base = false;
  bool above_base = false;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t w = cadence.NextWaitMs(0);
    EXPECT_GE(w, 4u);   // 0.5 * base
    EXPECT_LT(w, 12u);  // 1.5 * base
    below_base |= w < 8;
    above_base |= w > 8;
  }
  // The draw actually spreads; a degenerate constant would re-synchronize
  // the fleet.
  EXPECT_TRUE(below_base);
  EXPECT_TRUE(above_base);
}

TEST(PollCadenceTest, FailureBackoffShiftIsCappedAtSixDoublings) {
  PollCadence cadence(1, 11);
  for (uint64_t failures : {uint64_t{6}, uint64_t{9}, uint64_t{50}}) {
    const uint64_t w = cadence.NextWaitMs(failures);
    EXPECT_GE(w, 32u);  // 0.5 * (1 << 6)
    EXPECT_LT(w, 96u);  // 1.5 * (1 << 6)
  }
}

TEST(PollCadenceTest, WaitNeverRoundsToZero) {
  PollCadence cadence(1, 3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(cadence.NextWaitMs(0), 1u);  // 0.5 * 1 must clamp up
  }
}

TEST(PollCadenceTest, DifferentSeedsDecorrelate) {
  PollCadence a(8, 1);
  PollCadence b(8, 2);
  int diverged = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextWaitMs(0) != b.NextWaitMs(0)) ++diverged;
  }
  EXPECT_GT(diverged, 0);
}

// ---------------------------------------------------------------------------

// Promote() racing in-flight Session reads: a pinned epoch survives the
// role flip bit-for-bit, pin accounting stays exact, and concurrent
// dvms_replication scans see the (replica, promoted) flags flip atomically
// — only (1,0) or (0,1), never a mixed row pair.
TEST(ReplicationTest, PromoteRacesPinnedSessionReads) {
  TempDir dir("promote_race");
  auto primary = std::make_unique<Dvms>(PrimaryOptions(dir.str()));
  ASSERT_TRUE(SeedPrimary(*primary).ok());
  Dvms replica(ReplicaOptions(dir.str()));
  ASSERT_TRUE(replica.recovery_status().ok());
  AwaitCaughtUp(*primary, replica);

  Session pinned(&replica);
  ASSERT_TRUE(pinned.Pin().ok());
  Result<Table> before = pinned.Query(kReadSql);
  ASSERT_TRUE(before.ok()) << before.status().message();
  const std::string fp = Fingerprint(before.value());
  EXPECT_EQ(replica.governor_stats().pinned_snapshots, 1);

  primary.reset();  // single-owner: release the directory before promoting

  std::atomic<bool> stop{false};
  std::atomic<int> mixed_role_rows{0};
  std::atomic<int> failed_reads{0};
  std::vector<std::thread> racers;
  for (int t = 0; t < 4; ++t) {
    racers.emplace_back([&replica, &stop, &mixed_role_rows, &failed_reads] {
      while (!stop.load(std::memory_order_relaxed)) {
        Result<Table> table =
            replica.Query("SELECT name, value FROM dvms_replication");
        if (!table.ok()) {
          failed_reads.fetch_add(1);
          continue;
        }
        int64_t is_replica = -1, promoted = -1;
        for (const Row& row : table.value().rows()) {
          if (row[0].string_value() == "replica") {
            is_replica = row[1].int_value();
          }
          if (row[0].string_value() == "promoted") promoted = row[1].int_value();
        }
        const bool consistent = (is_replica == 1 && promoted == 0) ||
                                (is_replica == 0 && promoted == 1);
        if (!consistent) mixed_role_rows.fetch_add(1);
        Result<Table> read = replica.Query(kReadSql);
        if (!read.ok()) failed_reads.fetch_add(1);
      }
    });
  }
  ASSERT_TRUE(replica.Promote().ok());
  stop.store(true);
  for (std::thread& t : racers) t.join();
  EXPECT_EQ(mixed_role_rows.load(), 0)
      << "dvms_replication exposed a half-flipped role";
  EXPECT_EQ(failed_reads.load(), 0);

  // The pinned epoch survived the role flip, bit-for-bit, and its pin is
  // still the only one now that the racers are gone.
  Result<Table> after = pinned.Query(kReadSql);
  ASSERT_TRUE(after.ok()) << after.status().message();
  EXPECT_EQ(Fingerprint(after.value()), fp);
  EXPECT_EQ(replica.governor_stats().pinned_snapshots, 1);

  // A post-promotion write moves the fleet forward; the pin still reads
  // the pre-promotion epoch until released.
  ASSERT_TRUE(
      replica.Insert("Sales", {{Value::Int(999), Value::Double(1)}}).ok());
  Result<Table> still_pinned = pinned.Query(kReadSql);
  ASSERT_TRUE(still_pinned.ok());
  EXPECT_EQ(Fingerprint(still_pinned.value()), fp);
  Result<Table> latest = replica.Query(kReadSql);
  ASSERT_TRUE(latest.ok());
  EXPECT_NE(Fingerprint(latest.value()), fp);

  pinned.Unpin();
  EXPECT_EQ(replica.governor_stats().pinned_snapshots, 0);
}

}  // namespace
}  // namespace dvms
