// Resource-governor coverage: QueryContext deadline/cancel/budget
// semantics on a fake clock, the admission gate, and the engine-level
// contract — a governed abort is cooperative, rolls back all-or-nothing,
// appends no WAL frame, and is visible in governor_stats() and the
// dvms_governor system relation. Deterministic throughout: every deadline
// test drives an injected clock, never wall time.

#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/request_context.h"
#include "core/dvms.h"
#include "governor/governor.h"
#include "parser/parser.h"
#include "gtest/gtest.h"

namespace dvms {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// QueryContext unit coverage
// ---------------------------------------------------------------------------

TEST(QueryContextTest, DeadlineAbortsAtFirstCheckPastIt) {
  int64_t now = 1000;
  QueryContext ctx;
  ctx.ArmDeadline(10, [&now] { return now; });  // absolute: 1000 + 10ms
  EXPECT_TRUE(ctx.Check().ok());
  now += 9999;
  EXPECT_TRUE(ctx.Check().ok());
  now += 2;  // past 11000
  Status st = ctx.Check();
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(ctx.aborted());
  EXPECT_EQ(ctx.abort_code(), StatusCode::kDeadlineExceeded);
}

TEST(QueryContextTest, AbortIsSticky) {
  int64_t now = 0;
  QueryContext ctx;
  ctx.ArmDeadline(1, [&now] { return now; });
  now = 10'000'000;
  ASSERT_EQ(ctx.Check().code(), StatusCode::kDeadlineExceeded);
  // Later checks — even ones that would pass in isolation — repeat the
  // terminal status so every morsel unwinds with the same error.
  now = 0;
  EXPECT_EQ(ctx.Check().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(ctx.Charge(1).code(), StatusCode::kDeadlineExceeded);
}

TEST(QueryContextTest, CancelFlagObservedAtNextCheck) {
  QueryContext ctx;
  auto flag = std::make_shared<std::atomic<bool>>(false);
  ctx.ShareCancelFlag(flag);
  EXPECT_TRUE(ctx.Check().ok());
  flag->store(true);
  EXPECT_EQ(ctx.Check().code(), StatusCode::kCancelled);
  EXPECT_EQ(ctx.abort_code(), StatusCode::kCancelled);
}

TEST(QueryContextTest, MemoryBudgetChargesReleasesAndPeaks) {
  QueryContext ctx;
  ctx.ArmMemoryBudget(1000);
  EXPECT_TRUE(ctx.Charge(400).ok());
  EXPECT_TRUE(ctx.Charge(400).ok());
  EXPECT_EQ(ctx.charged_bytes(), 800);
  ctx.Release(300);
  EXPECT_EQ(ctx.charged_bytes(), 500);
  EXPECT_EQ(ctx.peak_bytes(), 800);
  EXPECT_TRUE(ctx.Charge(400).ok());  // back to 900, still under
  Status st = ctx.Charge(200);        // would be 1100
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ctx.abort_code(), StatusCode::kResourceExhausted);
}

TEST(QueryContextTest, UnarmedContextNeverAborts) {
  QueryContext ctx;
  EXPECT_TRUE(ctx.Check().ok());
  EXPECT_TRUE(ctx.Charge(INT64_MAX / 2).ok());
  EXPECT_EQ(ctx.checkpoints(), 1u);
}

// ---------------------------------------------------------------------------
// Free-function plumbing
// ---------------------------------------------------------------------------

TEST(GovernorPlumbingTest, UncontextedCheckpointIsFree) {
  ASSERT_EQ(CurrentRequest().query, nullptr);
  EXPECT_TRUE(governor::CheckPoint().ok());
  EXPECT_TRUE(governor::ChargeMemory(1 << 30).ok());
}

TEST(GovernorPlumbingTest, SuppressScopeMasksInstalledContext) {
  QueryContext ctx;
  auto flag = std::make_shared<std::atomic<bool>>(true);  // pre-cancelled
  ctx.ShareCancelFlag(flag);
  GovernorRequestScope scope(&ctx);
  {
    InternalScope internal;
    EXPECT_TRUE(CurrentRequest().is_internal());
    EXPECT_TRUE(governor::CheckPoint().ok());
  }
  EXPECT_FALSE(CurrentRequest().is_internal());
  EXPECT_EQ(governor::CheckPoint().code(), StatusCode::kCancelled);
}

TEST(GovernorPlumbingTest, SuppressionIsThreadLocal) {
  // One request's internal work (rollback, replica apply) must never blind
  // the governor on a concurrently executing request's thread.
  QueryContext ctx;
  auto flag = std::make_shared<std::atomic<bool>>(true);  // pre-cancelled
  ctx.ShareCancelFlag(flag);
  InternalScope internal;
  ASSERT_TRUE(CurrentRequest().is_internal());
  bool other_suppressed = true;
  std::thread peer([&] {
    GovernorRequestScope scope(&ctx);
    other_suppressed = governor::CheckPoint().ok();
  });
  peer.join();
  EXPECT_FALSE(other_suppressed) << "suppression leaked across threads";
}

// ---------------------------------------------------------------------------
// Admission gate
// ---------------------------------------------------------------------------

TEST(AdmissionGateTest, ShedsAtCapacityWithZeroQueue) {
  AdmissionGate gate(/*max_inflight=*/1, /*queue_us=*/0);
  ASSERT_TRUE(gate.Enter().ok());
  Status st = gate.Enter();
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(gate.rejected(), 1);
  gate.Leave();
  EXPECT_TRUE(gate.Enter().ok());
  gate.Leave();
  EXPECT_EQ(gate.admitted(), 2);
}

TEST(AdmissionGateTest, QueuedArrivalAdmitsWhenSlotFrees) {
  AdmissionGate gate(1, /*queue_us=*/5'000'000);
  ASSERT_TRUE(gate.Enter().ok());
  std::thread releaser([&gate] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    gate.Leave();
  });
  // Blocks until the releaser frees the slot — well inside the queue wait.
  EXPECT_TRUE(gate.Enter().ok());
  releaser.join();
  gate.Leave();
  EXPECT_EQ(gate.admitted(), 2);
  EXPECT_EQ(gate.rejected(), 0);
}

// ---------------------------------------------------------------------------
// Engine-level contract
// ---------------------------------------------------------------------------

const char* kGovernedProgram = R"(
  totals = SELECT bucket, SUM(v) AS total FROM Pts GROUP BY bucket;
  MARKS = SELECT 3 AS radius, 'blue' AS fill,
      linear_scale(t.total, 0, 5000, 0, 180) AS center_x,
      linear_scale(t.bucket, 0, 16, 0, 120) AS center_y
    FROM totals AS t;
  P = render(SELECT * FROM MARKS);
)";

/// Step-controlled fake clock: returns a counter that advances by `step`
/// microseconds per read. step = 0 freezes time (setup never expires).
struct FakeClock {
  std::shared_ptr<std::atomic<int64_t>> now =
      std::make_shared<std::atomic<int64_t>>(0);
  std::shared_ptr<std::atomic<int64_t>> step =
      std::make_shared<std::atomic<int64_t>>(0);
  QueryContext::Clock fn() const {
    auto n = now;
    auto s = step;
    return [n, s] { return n->fetch_add(s->load()); };
  }
};

std::unique_ptr<Dvms> MakeGovernedEngine(Dvms::Options options) {
  options.canvas_width = 200;
  options.canvas_height = 150;
  auto engine = std::make_unique<Dvms>(options);
  Schema schema({{"bucket", ValueType::kInt64}, {"v", ValueType::kDouble}});
  EXPECT_TRUE(engine->CreateBaseTable("Pts", schema).ok());
  std::vector<Row> rows;
  for (int i = 0; i < 256; ++i) {
    rows.push_back({Value::Int(i % 16), Value::Double(i)});
  }
  EXPECT_TRUE(engine->Insert("Pts", rows).ok());
  EXPECT_TRUE(engine->LoadProgram(kGovernedProgram).ok());
  return engine;
}

std::string Fingerprint(const Dvms& engine) {
  std::ostringstream out;
  for (const std::string& name : engine.catalog().Names()) {
    auto table = engine.GetTable(name);
    if (!table.ok()) continue;
    out << "== " << name << " ==\n";
    for (size_t r = 0; r < table.value()->num_rows(); ++r) {
      for (const Value& v : table.value()->row(r)) out << v.ToString() << "|";
      out << "\n";
    }
  }
  return out.str();
}

std::vector<Row> SomeRows(int n, int base) {
  std::vector<Row> rows;
  for (int i = 0; i < n; ++i) {
    rows.push_back({Value::Int((base + i) % 16), Value::Double(base + i)});
  }
  return rows;
}

TEST(GovernorEngineTest, DeadlineAbortRollsBackBitIdentically) {
  FakeClock clock;
  Dvms::Options options;
  options.deadline_ms = 50;
  options.governor_clock = clock.fn();
  auto engine = MakeGovernedEngine(options);

  const std::string before = Fingerprint(*engine);
  const PixelBuffer before_pixels = engine->pixels();

  // 20 ms per checkpoint: the third check crosses the 50 ms deadline, so
  // the insert aborts cooperatively mid-maintenance.
  clock.step->store(20'000);
  Status st = engine->Insert("Pts", SomeRows(64, 1000));
  clock.step->store(0);
  ASSERT_EQ(st.code(), StatusCode::kDeadlineExceeded) << st.message();

  EXPECT_EQ(Fingerprint(*engine), before);
  EXPECT_TRUE(engine->pixels().Equals(before_pixels));
  Dvms::GovernorStats stats = engine->governor_stats();
  EXPECT_EQ(stats.deadline_aborts, 1u);
  EXPECT_GT(stats.checkpoints, 0u);

  // Frozen clock again: the identical statement lands cleanly.
  EXPECT_TRUE(engine->Insert("Pts", SomeRows(64, 1000)).ok());
}

TEST(GovernorEngineTest, CancelAbortsNextRequestAndIsConsumed) {
  FakeClock clock;
  Dvms::Options options;
  options.deadline_ms = 1'000'000;  // arms the governor; never expires
  options.governor_clock = clock.fn();
  auto engine = MakeGovernedEngine(options);
  const std::string before = Fingerprint(*engine);

  engine->RequestCancel();
  Status st = engine->Insert("Pts", SomeRows(8, 500));
  ASSERT_EQ(st.code(), StatusCode::kCancelled) << st.message();
  EXPECT_EQ(Fingerprint(*engine), before);
  EXPECT_EQ(engine->governor_stats().cancel_aborts, 1u);

  // The flag is consumed by the abort: the retry goes through.
  EXPECT_TRUE(engine->Insert("Pts", SomeRows(8, 500)).ok());
  EXPECT_EQ(engine->governor_stats().cancel_aborts, 1u);
}

TEST(GovernorEngineTest, MemoryBudgetAbortsOversizedJoin) {
  Dvms::Options options;
  options.mem_budget = 256 * 1024;
  auto engine = MakeGovernedEngine(options);

  // Setup traffic (256-row inserts, small views) fits the budget easily;
  // a self-cross-join (256 x 256 pairs) does not.
  Status st = engine->Query(
                       "SELECT a.v AS x, b.v AS y FROM Pts AS a, Pts AS b")
                  .status();
  ASSERT_EQ(st.code(), StatusCode::kResourceExhausted) << st.message();
  Dvms::GovernorStats stats = engine->governor_stats();
  EXPECT_EQ(stats.mem_aborts, 1u);
  EXPECT_GT(stats.peak_mem_bytes, 0);

  // The engine stays usable and in-budget statements still run.
  EXPECT_TRUE(engine->Query("SELECT COUNT(*) AS n FROM Pts").ok());
  EXPECT_TRUE(engine->Insert("Pts", SomeRows(8, 900)).ok());
}

TEST(GovernorEngineTest, AdmissionShedsConcurrentArrival) {
  // A clock that parks the first governed request until released, so the
  // second arrival deterministically finds the gate full.
  std::mutex m;
  std::condition_variable cv;
  bool in_request = false;
  bool release = true;  // un-parked during engine setup

  Dvms::Options options;
  options.deadline_ms = 1'000'000;
  options.max_inflight = 1;
  options.queue_ms = 0;  // shed immediately at capacity
  options.governor_clock = [&]() -> int64_t {
    std::unique_lock<std::mutex> lock(m);
    if (!in_request) {
      in_request = true;
      cv.notify_all();
    }
    cv.wait(lock, [&] { return release; });
    return 0;
  };
  auto engine = MakeGovernedEngine(options);

  // Park the next governed request at its first clock read.
  {
    std::unique_lock<std::mutex> lock(m);
    release = false;
    in_request = false;
  }
  std::thread holder([&] {
    EXPECT_TRUE(engine->Insert("Pts", SomeRows(4, 700)).ok());
  });
  {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return in_request; });
  }
  // The holder owns the single slot and is parked inside its request.
  Status st = engine->Insert("Pts", SomeRows(4, 800));
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st.message();
  {
    std::unique_lock<std::mutex> lock(m);
    release = true;
    cv.notify_all();
  }
  holder.join();

  Dvms::GovernorStats stats = engine->governor_stats();
  EXPECT_EQ(stats.rejected, 1);
  EXPECT_GT(stats.admitted, 0);

  // With the slot free again the shed statement retries cleanly.
  EXPECT_TRUE(engine->Insert("Pts", SomeRows(4, 800)).ok());
}

TEST(GovernorEngineTest, AbortedRequestAppendsNoWalFrame) {
  fs::path dir = fs::path(::testing::TempDir()) /
                 ("dvms_governor_wal_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);

  FakeClock clock;
  Dvms::Options options;
  options.deadline_ms = 50;
  options.governor_clock = clock.fn();
  options.data_dir = dir.string();
  options.snapshot_interval = 0;  // log-only: byte comparison is exact
  {
    auto engine = MakeGovernedEngine(options);
    ASSERT_TRUE(engine->Insert("Pts", SomeRows(16, 400)).ok());
    ASSERT_TRUE(engine->FlushWal().ok());
    const uint64_t committed_frames =
        engine->durability_stats().frames_appended;
    uintmax_t log_bytes = 0;
    for (const auto& entry : fs::directory_iterator(dir)) {
      log_bytes += fs::file_size(entry.path());
    }

    clock.step->store(20'000);
    Status st = engine->Insert("Pts", SomeRows(64, 2000));
    clock.step->store(0);
    ASSERT_EQ(st.code(), StatusCode::kDeadlineExceeded) << st.message();

    // No frame, no bytes: the log cannot contain an aborted request.
    ASSERT_TRUE(engine->FlushWal().ok());
    EXPECT_EQ(engine->durability_stats().frames_appended, committed_frames);
    uintmax_t log_bytes_after = 0;
    for (const auto& entry : fs::directory_iterator(dir)) {
      log_bytes_after += fs::file_size(entry.path());
    }
    EXPECT_EQ(log_bytes_after, log_bytes);
  }

  // Recovery replays only committed frames: the recovered engine matches a
  // never-aborted twin.
  Dvms::Options recovered_options;
  recovered_options.canvas_width = 200;
  recovered_options.canvas_height = 150;
  recovered_options.data_dir = dir.string();
  Dvms recovered(recovered_options);
  ASSERT_TRUE(recovered.recovery_status().ok())
      << recovered.recovery_status().message();

  auto control = MakeGovernedEngine(Dvms::Options());
  ASSERT_TRUE(control->Insert("Pts", SomeRows(16, 400)).ok());
  EXPECT_EQ(Fingerprint(recovered), Fingerprint(*control));
  fs::remove_all(dir);
}

TEST(GovernorEngineTest, GovernorRelationIsQueryable) {
  FakeClock clock;
  Dvms::Options options;
  options.deadline_ms = 50;
  options.mem_budget = 1 << 30;
  options.governor_clock = clock.fn();
  auto engine = MakeGovernedEngine(options);

  clock.step->store(20'000);
  ASSERT_EQ(engine->Insert("Pts", SomeRows(32, 300)).code(),
            StatusCode::kDeadlineExceeded);
  clock.step->store(0);

  auto result = engine->Query(
      "SELECT name, value FROM dvms_governor ORDER BY name");
  ASSERT_TRUE(result.ok()) << result.status().message();
  const Table& t = result.value();
  int64_t deadline_aborts = -1, armed = -1, deadline_ms = -1;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    const std::string key = t.row(r)[0].ToString();
    int64_t value = t.row(r)[1].AsInt().value();
    if (key == "deadline_aborts") deadline_aborts = value;
    if (key == "armed") armed = value;
    if (key == "deadline_ms") deadline_ms = value;
  }
  EXPECT_EQ(deadline_aborts, 1);
  EXPECT_EQ(armed, 1);
  EXPECT_EQ(deadline_ms, 50);
}

TEST(GovernorEngineTest, ArmedButUntriggeredMatchesUnarmedBitIdentically) {
  // The governor must be pure overhead policy: armed-with-roomy-limits and
  // unarmed engines produce identical tables and pixels.
  auto unarmed = MakeGovernedEngine(Dvms::Options());

  Dvms::Options armed_options;
  armed_options.deadline_ms = 1'000'000'000;
  armed_options.mem_budget = INT64_MAX / 2;
  armed_options.max_inflight = 8;
  armed_options.queue_ms = 1000;
  auto armed = MakeGovernedEngine(armed_options);

  for (Dvms* engine : {unarmed.get(), armed.get()}) {
    ASSERT_TRUE(engine->Insert("Pts", SomeRows(64, 600)).ok());
    ASSERT_TRUE(
        engine->Query("SELECT a.v AS x, b.v AS y FROM Pts AS a, Pts AS b "
                      "WHERE a.bucket = b.bucket")
            .ok());
    auto removed = engine->Delete(
        "Pts", ParseExpression("bucket % 3 = 1").value());
    ASSERT_TRUE(removed.ok());
    ASSERT_TRUE(engine->Render().ok());
  }
  EXPECT_EQ(Fingerprint(*armed), Fingerprint(*unarmed));
  EXPECT_TRUE(armed->pixels().Equals(unarmed->pixels()));
  EXPECT_GT(armed->governor_stats().checkpoints, 0u);
  EXPECT_EQ(armed->governor_stats().deadline_aborts, 0u);
  EXPECT_EQ(armed->governor_stats().mem_aborts, 0u);
  EXPECT_EQ(armed->governor_stats().rejected, 0);
}

}  // namespace
}  // namespace dvms
