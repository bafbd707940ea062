// Chaos differential harness: replays interaction traces under seeded,
// site-tagged fault injection and asserts the engine converges to the
// bit-identical fault-free final state — at 1 and at 4 threads. Every
// statement batch is all-or-nothing (transactional interaction rollback),
// so a faulted op leaves no trace and a bounded retry eventually lands it.

#include <atomic>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/request_context.h"
#include "core/dvms.h"
#include "parser/parser.h"
#include "gtest/gtest.h"

namespace dvms {
namespace {

// ---------------------------------------------------------------------------
// Fault framework unit coverage
// ---------------------------------------------------------------------------

TEST(FaultSpecTest, ParsesSeedRateAndSites) {
  FaultConfig c = ParseFaultSpec("42:0.25").value();
  EXPECT_EQ(c.seed, 42u);
  EXPECT_DOUBLE_EQ(c.rate, 0.25);
  for (size_t i = 0; i < kNumFaultSites; ++i) {
    EXPECT_TRUE(c.SiteEnabled(static_cast<FaultSite>(i)));
  }

  FaultConfig masked = ParseFaultSpec("7:1.0:storage,raster").value();
  EXPECT_TRUE(masked.SiteEnabled(FaultSite::kStorageAppend));
  EXPECT_TRUE(masked.SiteEnabled(FaultSite::kRasterBand));
  EXPECT_FALSE(masked.SiteEnabled(FaultSite::kIvmApply));
  EXPECT_FALSE(masked.SiteEnabled(FaultSite::kThreadPoolTask));
  EXPECT_FALSE(masked.SiteEnabled(FaultSite::kStreamTick));
}

TEST(FaultSpecTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(ParseFaultSpec("").ok());
  EXPECT_FALSE(ParseFaultSpec("notanumber:0.5").ok());
  EXPECT_FALSE(ParseFaultSpec("1:2.0").ok());   // rate out of [0, 1]
  EXPECT_FALSE(ParseFaultSpec("1:-0.5").ok());
  EXPECT_FALSE(ParseFaultSpec("1:0.5:warp_core").ok());  // unknown site
  EXPECT_FALSE(ParseFaultSpec("1").ok());
}

TEST(FaultSpecTest, SiteNamesRoundTrip) {
  for (size_t i = 0; i < kNumFaultSites; ++i) {
    FaultSite site = static_cast<FaultSite>(i);
    EXPECT_EQ(FaultSiteFromName(FaultSiteToString(site)).value(), site);
  }
  EXPECT_FALSE(FaultSiteFromName("bogus").ok());
}

TEST(FaultInjectorTest, ScheduleIsDeterministicPerSeed) {
  FaultConfig config;
  config.seed = 1234;
  config.rate = 0.3;
  FaultInjector a(config), b(config);
  for (size_t i = 0; i < kNumFaultSites; ++i) {
    FaultSite site = static_cast<FaultSite>(i);
    for (int n = 0; n < 500; ++n) {
      EXPECT_EQ(a.ShouldInject(site), b.ShouldInject(site));
    }
  }
  // A different seed produces a different schedule (overwhelmingly likely
  // across 500 draws at rate 0.3).
  config.seed = 1235;
  FaultInjector c(config);
  a.Reset();
  int diffs = 0;
  for (int n = 0; n < 500; ++n) {
    diffs += a.ShouldInject(FaultSite::kStorageAppend) !=
             c.ShouldInject(FaultSite::kStorageAppend);
  }
  EXPECT_GT(diffs, 0);
}

TEST(FaultInjectorTest, RateBoundsAndBudgetHold) {
  FaultConfig config;
  config.seed = 9;
  config.rate = 0.2;
  FaultInjector inj(config);
  int fired = 0;
  for (int n = 0; n < 2000; ++n) {
    fired += inj.ShouldInject(FaultSite::kIvmApply);
  }
  EXPECT_GT(fired, 2000 * 0.1);
  EXPECT_LT(fired, 2000 * 0.3);

  config.rate = 1.0;
  config.max_injections = 3;
  FaultInjector budgeted(config);
  int total = 0;
  for (int n = 0; n < 100; ++n) {
    total += budgeted.ShouldInject(FaultSite::kStorageAppend);
  }
  EXPECT_EQ(total, 3);
  EXPECT_EQ(budgeted.total_injections(), 3u);
}

TEST(FaultInjectorTest, SuppressionScopeMasksInjection) {
  FaultConfig config;
  config.seed = 5;
  config.rate = 1.0;
  ScopedFaultInjector scoped(config);
  EXPECT_FALSE(fault::MaybeInject(FaultSite::kStorageAppend).ok());
  {
    InternalScope internal;
    EXPECT_TRUE(fault::MaybeInject(FaultSite::kStorageAppend).ok());
    EXPECT_FALSE(fault::ShouldInject(FaultSite::kIvmApply));
  }
  EXPECT_FALSE(fault::MaybeInject(FaultSite::kStorageAppend).ok());
}

TEST(FaultInjectorTest, SuppressionIsThreadLocal) {
  // A writer's rollback suppressing faults must not silence checks on
  // concurrent threads (e.g. a replica's tailer or a session read).
  FaultConfig config;
  config.seed = 5;
  config.rate = 1.0;
  ScopedFaultInjector scoped(config);
  InternalScope internal;
  EXPECT_TRUE(CurrentRequest().is_internal());
  EXPECT_TRUE(fault::MaybeInject(FaultSite::kStorageAppend).ok());
  bool other_suppressed = true;
  bool other_injected = false;
  std::thread peer([&] {
    other_suppressed = CurrentRequest().is_internal();
    other_injected = fault::ShouldInject(FaultSite::kStorageAppend);
  });
  peer.join();
  EXPECT_FALSE(other_suppressed) << "suppression leaked across threads";
  EXPECT_TRUE(other_injected);
}

TEST(FaultInjectorTest, MaybeInjectTagsSiteInMessage) {
  FaultConfig config;
  config.seed = 5;
  config.rate = 1.0;
  ScopedFaultInjector scoped(config);
  Status st = fault::MaybeInject(FaultSite::kRasterBand);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("raster"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Chaos differential replay
// ---------------------------------------------------------------------------

// One scripted mutation against the engine; retried verbatim after a fault.
struct TraceOp {
  std::string label;
  std::function<Status(Dvms&)> run;
};

const char* kChaosProgram = R"(
  C = EVENT MOUSE_DOWN AS D, MOUSE_MOVE* AS M, MOUSE_UP AS U
      RETURN (D.t, D.x AS x, D.x AS x2),
             (M.t, D.x AS x, M.x AS x2);
  C_RANGE = SELECT min2(x, x2) AS lo, max2(x, x2) AS hi
    FROM C ORDER BY t DESC LIMIT 1;
  picked = SELECT p.id AS id, p.v AS v
    FROM C_RANGE, Pts AS p
    WHERE p.px >= C_RANGE.lo AND p.px <= C_RANGE.hi;
  MARKS = SELECT 4 AS radius, 'red' AS fill,
      linear_scale(k.v, 0, 100, 0, 180) AS center_x,
      linear_scale(k.id, 0, 24, 0, 120) AS center_y
    FROM picked AS k;
  P = render(SELECT * FROM MARKS);
)";

std::unique_ptr<Dvms> MakeChaosEngine(size_t num_threads) {
  Dvms::Options options;
  options.canvas_width = 200;
  options.canvas_height = 150;
  options.num_threads = num_threads;
  auto engine = std::make_unique<Dvms>(options);
  Schema schema({{"id", ValueType::kInt64},
                 {"v", ValueType::kDouble},
                 {"px", ValueType::kDouble}});
  EXPECT_TRUE(engine->CreateBaseTable("Pts", schema).ok());
  std::vector<Row> rows;
  for (int i = 0; i < 24; ++i) {
    rows.push_back({Value::Int(i), Value::Double((i * 37) % 100),
                    Value::Double(5.0 + i * 8.0)});
  }
  EXPECT_TRUE(engine->Insert("Pts", rows).ok());
  EXPECT_TRUE(engine->LoadProgram(kChaosProgram).ok());
  return engine;
}

// Serializes every relation (schema + rows, creation order) — the textual
// half of the bit-identical check; pixels are compared separately.
std::string Fingerprint(const Dvms& engine) {
  std::ostringstream out;
  for (const std::string& name : engine.catalog().Names()) {
    auto table = engine.GetTable(name);
    if (!table.ok()) continue;
    out << "== " << name << " ==\n";
    const Table* t = table.value();
    for (size_t c = 0; c < t->schema().num_columns(); ++c) {
      out << t->schema().column(c).name << "|";
    }
    out << "\n";
    for (size_t r = 0; r < t->num_rows(); ++r) {
      for (const Value& v : t->row(r)) out << v.ToString() << "|";
      out << "\n";
    }
  }
  return out.str();
}

// A deterministic interaction trace: two brushes with inserts and a delete
// interleaved, exercising storage appends, IVM recomputes, and rendering.
std::vector<TraceOp> ChaosTrace() {
  std::vector<TraceOp> ops;
  auto push = [](InputEvent e) {
    return [e](Dvms& d) { return d.PushEvent(e); };
  };
  ops.push_back({"down@40", push(InputEvent::MouseDown(0, 40, 50))});
  ops.push_back({"move@90", push(InputEvent::MouseMove(1, 90, 50))});
  ops.push_back({"up@90", push(InputEvent::MouseUp(2, 90, 50))});
  ops.push_back({"insert", [](Dvms& d) {
                   return d.Insert("Pts", {{Value::Int(100), Value::Double(55),
                                            Value::Double(60.0)}});
                 }});
  ops.push_back({"down@20", push(InputEvent::MouseDown(3, 20, 40))});
  ops.push_back({"move@160", push(InputEvent::MouseMove(4, 160, 40))});
  ops.push_back({"up@160", push(InputEvent::MouseUp(5, 160, 40))});
  ops.push_back({"delete", [](Dvms& d) {
                   auto removed = d.Delete(
                       "Pts", ParseExpression("id % 2 = 1").value());
                   return removed.ok() ? Status::OK() : removed.status();
                 }});
  ops.push_back({"down@10", push(InputEvent::MouseDown(6, 10, 30))});
  ops.push_back({"up@10", push(InputEvent::MouseUp(7, 10, 30))});
  return ops;
}

// Replays the trace fault-free and returns the final state.
void RunCleanTrace(Dvms& engine) {
  for (const TraceOp& op : ChaosTrace()) {
    ASSERT_TRUE(op.run(engine).ok()) << op.label;
  }
}

class ChaosDifferentialTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ChaosDifferentialTest, FaultedReplayConvergesToCleanState) {
  const size_t threads = GetParam();
  auto clean = MakeChaosEngine(threads);
  RunCleanTrace(*clean);
  const std::string want = Fingerprint(*clean);
  const PixelBuffer want_pixels = clean->pixels();

  for (uint64_t seed : {11u, 23u, 47u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    auto engine = MakeChaosEngine(threads);
    FaultConfig config;
    config.seed = seed;
    config.rate = 0.02;
    ScopedFaultInjector scoped(config);

    size_t failures = 0;
    for (const TraceOp& op : ChaosTrace()) {
      SCOPED_TRACE(op.label);
      bool done = false;
      // Per-op bounded retry: the site schedules advance on every draw, so
      // at rate 0.02 a clean pass lands with overwhelming probability well
      // inside the bound.
      for (int attempt = 0; attempt < 50 && !done; ++attempt) {
        Status st = op.run(*engine);
        if (st.ok()) {
          done = true;
        } else {
          ++failures;
          EXPECT_NE(st.message().find("injected fault"), std::string::npos)
              << st.message();
        }
      }
      ASSERT_TRUE(done) << "op never landed within the retry bound";
    }
    EXPECT_EQ(engine->stats().interactions_rolled_back, failures);
    EXPECT_EQ(Fingerprint(*engine), want);
    EXPECT_TRUE(engine->pixels().Equals(want_pixels));
    // The injector saw real traffic (checks at the wired sites).
    EXPECT_GT(scoped.injector()->checks(FaultSite::kStorageAppend), 0u);
    EXPECT_GT(scoped.injector()->checks(FaultSite::kIvmApply), 0u);
  }
}

TEST_P(ChaosDifferentialTest, SingleFaultRollsBackBitIdentically) {
  const size_t threads = GetParam();
  for (const char* site : {"storage", "ivm", "raster"}) {
    SCOPED_TRACE(site);
    auto engine = MakeChaosEngine(threads);
    // A committed brush first, so rollback must preserve real history.
    ASSERT_TRUE(engine->PushEvent(InputEvent::MouseDown(0, 40, 50)).ok());
    ASSERT_TRUE(engine->PushEvent(InputEvent::MouseUp(1, 40, 50)).ok());
    const std::string before = Fingerprint(*engine);
    const PixelBuffer before_pixels = engine->pixels();
    const size_t before_events = engine->stats().events_processed;

    FaultConfig config = ParseFaultSpec(std::string("1:1.0:") + site).value();
    config.max_injections = 1;  // exactly one fault, then clean
    Status st;
    {
      ScopedFaultInjector scoped(config);
      st = engine->PushEvent(InputEvent::MouseDown(2, 20, 40));
    }
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("injected fault"), std::string::npos);

    // Bit-identical pre-op state: tables, pixels, and stats.
    EXPECT_EQ(Fingerprint(*engine), before);
    EXPECT_TRUE(engine->pixels().Equals(before_pixels));
    EXPECT_EQ(engine->stats().events_processed, before_events);
    EXPECT_EQ(engine->stats().interactions_rolled_back, 1u);

    // The replayed op (injection budget spent) matches a never-faulted run.
    ASSERT_TRUE(engine->PushEvent(InputEvent::MouseDown(2, 20, 40)).ok());
    ASSERT_TRUE(engine->PushEvent(InputEvent::MouseUp(3, 160, 40)).ok());

    auto control = MakeChaosEngine(threads);
    ASSERT_TRUE(control->PushEvent(InputEvent::MouseDown(0, 40, 50)).ok());
    ASSERT_TRUE(control->PushEvent(InputEvent::MouseUp(1, 40, 50)).ok());
    ASSERT_TRUE(control->PushEvent(InputEvent::MouseDown(2, 20, 40)).ok());
    ASSERT_TRUE(control->PushEvent(InputEvent::MouseUp(3, 160, 40)).ok());
    EXPECT_EQ(Fingerprint(*engine), Fingerprint(*control));
    EXPECT_TRUE(engine->pixels().Equals(control->pixels()));
  }
}

TEST_P(ChaosDifferentialTest, PoolFaultsAreTransparentlyRetried) {
  // Thread-pool faults are transient: the morsel is rescheduled (bounded),
  // then runs exactly once — results stay bit-identical and no op fails.
  const size_t threads = GetParam();
  auto clean = MakeChaosEngine(threads);
  RunCleanTrace(*clean);

  auto engine = MakeChaosEngine(threads);
  FaultConfig config = ParseFaultSpec("3:0.5:pool").value();
  ScopedFaultInjector scoped(config);
  for (const TraceOp& op : ChaosTrace()) {
    EXPECT_TRUE(op.run(*engine).ok()) << op.label;
  }
  EXPECT_EQ(Fingerprint(*engine), Fingerprint(*clean));
  EXPECT_TRUE(engine->pixels().Equals(clean->pixels()));
  EXPECT_GT(scoped.injector()->retries(), 0u);
  EXPECT_EQ(engine->stats().interactions_rolled_back, 0u);
}

TEST_P(ChaosDifferentialTest, RollbackDisabledReproducesLegacyEngine) {
  // transactional_rollback = false must not change fault-free behavior.
  const size_t threads = GetParam();
  Dvms::Options options;
  options.canvas_width = 200;
  options.canvas_height = 150;
  options.num_threads = threads;
  options.transactional_rollback = false;
  Dvms legacy(options);
  Schema schema({{"id", ValueType::kInt64},
                 {"v", ValueType::kDouble},
                 {"px", ValueType::kDouble}});
  ASSERT_TRUE(legacy.CreateBaseTable("Pts", schema).ok());
  std::vector<Row> rows;
  for (int i = 0; i < 24; ++i) {
    rows.push_back({Value::Int(i), Value::Double((i * 37) % 100),
                    Value::Double(5.0 + i * 8.0)});
  }
  ASSERT_TRUE(legacy.Insert("Pts", rows).ok());
  ASSERT_TRUE(legacy.LoadProgram(kChaosProgram).ok());
  for (const TraceOp& op : ChaosTrace()) {
    ASSERT_TRUE(op.run(legacy).ok()) << op.label;
  }

  auto transactional = MakeChaosEngine(threads);
  RunCleanTrace(*transactional);
  EXPECT_EQ(Fingerprint(legacy), Fingerprint(*transactional));
  EXPECT_TRUE(legacy.pixels().Equals(transactional->pixels()));
}

TEST_P(ChaosDifferentialTest, GovernorArmedFaultedReplayConverges) {
  // The resource governor armed (roomy limits, real clock) on top of fault
  // injection must change nothing: checkpoints fire on every morsel, yet
  // the faulted replay still converges to the bit-identical clean state.
  const size_t threads = GetParam();
  auto clean = MakeChaosEngine(threads);
  RunCleanTrace(*clean);
  const std::string want = Fingerprint(*clean);

  Dvms::Options options;
  options.canvas_width = 200;
  options.canvas_height = 150;
  options.num_threads = threads;
  options.deadline_ms = 1'000'000'000;  // armed, never expires
  options.mem_budget = INT64_MAX / 2;
  Dvms engine(options);
  Schema schema({{"id", ValueType::kInt64},
                 {"v", ValueType::kDouble},
                 {"px", ValueType::kDouble}});
  ASSERT_TRUE(engine.CreateBaseTable("Pts", schema).ok());
  std::vector<Row> rows;
  for (int i = 0; i < 24; ++i) {
    rows.push_back({Value::Int(i), Value::Double((i * 37) % 100),
                    Value::Double(5.0 + i * 8.0)});
  }
  ASSERT_TRUE(engine.Insert("Pts", rows).ok());
  ASSERT_TRUE(engine.LoadProgram(kChaosProgram).ok());

  FaultConfig config;
  config.seed = 23;
  config.rate = 0.02;
  ScopedFaultInjector scoped(config);
  size_t op_index = 0;
  size_t cancels = 0;
  for (const TraceOp& op : ChaosTrace()) {
    SCOPED_TRACE(op.label);
    // Every third op first arrives pre-cancelled: the governed abort must
    // roll back exactly like an injected fault, then the retry lands.
    if (op_index++ % 3 == 2) {
      engine.RequestCancel();
      // The attempt fails — with kCancelled at its first checkpoint, or
      // with an injected fault that happened to fire even earlier (the
      // still-raised flag then cancels the next attempt instead). Either
      // way exactly one later abort consumes the flag.
      Status st = op.run(engine);
      EXPECT_FALSE(st.ok());
      ++cancels;
    }
    bool done = false;
    for (int attempt = 0; attempt < 50 && !done; ++attempt) {
      done = op.run(engine).ok();
    }
    ASSERT_TRUE(done) << "op never landed within the retry bound";
  }
  EXPECT_EQ(Fingerprint(engine), want);
  EXPECT_TRUE(engine.pixels().Equals(clean->pixels()));
  EXPECT_EQ(engine.governor_stats().cancel_aborts, cancels);
  EXPECT_GT(engine.governor_stats().checkpoints, 0u);
  EXPECT_EQ(engine.governor_stats().deadline_aborts, 0u);
  EXPECT_EQ(engine.governor_stats().mem_aborts, 0u);
}

INSTANTIATE_TEST_SUITE_P(Threads, ChaosDifferentialTest,
                         ::testing::Values(1, 4));

// ---------------------------------------------------------------------------
// Undo/redo boundaries, including during faulted rollback
// ---------------------------------------------------------------------------

TEST(UndoRedoBoundaryTest, ExhaustedHistoryFailsCleanly) {
  auto engine = MakeChaosEngine(1);
  ASSERT_TRUE(engine->PushEvent(InputEvent::MouseDown(0, 40, 50)).ok());
  ASSERT_TRUE(engine->PushEvent(InputEvent::MouseUp(1, 40, 50)).ok());

  // Redo at the newest state fails and changes nothing.
  const std::string newest = Fingerprint(*engine);
  EXPECT_FALSE(engine->CanRedo());
  EXPECT_FALSE(engine->Redo().ok());
  EXPECT_EQ(Fingerprint(*engine), newest);

  // Undo to exhaustion, then one more: clean failure, state intact.
  int undone = 0;
  while (engine->CanUndo() && undone < 32) {
    ASSERT_TRUE(engine->Undo().ok());
    ++undone;
  }
  ASSERT_GT(undone, 0);
  const std::string oldest = Fingerprint(*engine);
  EXPECT_FALSE(engine->Undo().ok());
  EXPECT_EQ(Fingerprint(*engine), oldest);

  // Walk forward again to the newest state.
  while (engine->CanRedo()) ASSERT_TRUE(engine->Redo().ok());
  EXPECT_EQ(Fingerprint(*engine), newest);
}

TEST(UndoRedoBoundaryTest, FaultedUndoRollsBackAndHistorySurvives) {
  auto engine = MakeChaosEngine(1);
  ASSERT_TRUE(engine->PushEvent(InputEvent::MouseDown(0, 40, 50)).ok());
  ASSERT_TRUE(engine->PushEvent(InputEvent::MouseUp(1, 40, 50)).ok());
  ASSERT_TRUE(engine->CanUndo());
  const std::string before = Fingerprint(*engine);
  const PixelBuffer before_pixels = engine->pixels();

  // Undo itself faults mid-recompute: it must roll back to the pre-undo
  // state (cursor included), not leave a half-restored engine.
  FaultConfig config = ParseFaultSpec("1:1.0:ivm").value();
  config.max_injections = 1;
  Status st;
  {
    ScopedFaultInjector scoped(config);
    st = engine->Undo();
  }
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(Fingerprint(*engine), before);
  EXPECT_TRUE(engine->pixels().Equals(before_pixels));
  EXPECT_EQ(engine->stats().interactions_rolled_back, 1u);

  // History is uncorrupted: undo/redo still round-trip.
  ASSERT_TRUE(engine->CanUndo());
  ASSERT_TRUE(engine->Undo().ok());
  ASSERT_TRUE(engine->CanRedo());
  ASSERT_TRUE(engine->Redo().ok());
  EXPECT_EQ(Fingerprint(*engine), before);
  EXPECT_TRUE(engine->pixels().Equals(before_pixels));
}

}  // namespace
}  // namespace dvms
