// PR-4 observability: registry semantics (counters, histograms, spans,
// Save/Restore), the dvms_metrics / dvms_spans system relations, EXPLAIN /
// EXPLAIN ANALYZE, the full-Stats DumpState + snapshot round-trip, and the
// rollback no-leak guarantee under fault injection.

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/fault.h"
#include "core/dvms.h"
#include "core/session.h"
#include "obs/trace.h"
#include "parser/parser.h"
#include "gtest/gtest.h"

namespace dvms {
namespace {

namespace fs = std::filesystem;

// The obs registry is process-global; every fixture starts from a clean,
// enabled registry and leaves tracing off for the next test.
class ObsRegistryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::ResetForTesting();
    obs::SetEnabled(true);
  }
  void TearDown() override {
    obs::SetEnabled(false);
    obs::ResetForTesting();
  }
};

const obs::MetricRow* FindMetric(const std::vector<obs::MetricRow>& rows,
                                 const std::string& name) {
  for (const obs::MetricRow& r : rows) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

TEST_F(ObsRegistryTest, CountersAccumulate) {
  obs::Count("a");
  obs::Count("a", 4);
  obs::Count("b", 2);
  auto rows = obs::SnapshotMetrics();
  const obs::MetricRow* a = FindMetric(rows, "a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->kind, "counter");
  EXPECT_EQ(a->count, 5u);
  const obs::MetricRow* b = FindMetric(rows, "b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->count, 2u);
  // Rows come back sorted by name.
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].name, "a");
  EXPECT_EQ(rows[1].name, "b");
}

TEST_F(ObsRegistryTest, HistogramStatsAndPercentiles) {
  for (int i = 0; i < 100; ++i) obs::Observe("h", 8.0);
  auto rows = obs::SnapshotMetrics();
  const obs::MetricRow* h = FindMetric(rows, "h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->kind, "histogram");
  EXPECT_EQ(h->count, 100u);
  EXPECT_DOUBLE_EQ(h->sum, 800.0);
  EXPECT_DOUBLE_EQ(h->min, 8.0);
  EXPECT_DOUBLE_EQ(h->max, 8.0);
  // All mass in one bucket: percentiles clamp to the observed range.
  EXPECT_DOUBLE_EQ(h->p50, 8.0);
  EXPECT_DOUBLE_EQ(h->p95, 8.0);
  EXPECT_DOUBLE_EQ(h->p99, 8.0);
}

TEST_F(ObsRegistryTest, HistogramPercentilesAreOrderedAndBounded) {
  for (int i = 1; i <= 1000; ++i) obs::Observe("h", static_cast<double>(i));
  auto rows = obs::SnapshotMetrics();
  const obs::MetricRow* h = FindMetric(rows, "h");
  ASSERT_NE(h, nullptr);
  EXPECT_DOUBLE_EQ(h->min, 1.0);
  EXPECT_DOUBLE_EQ(h->max, 1000.0);
  EXPECT_LE(h->min, h->p50);
  EXPECT_LE(h->p50, h->p95);
  EXPECT_LE(h->p95, h->p99);
  EXPECT_LE(h->p99, h->max);
  // Log2 buckets are coarse but p50 must land in the right half-ish.
  EXPECT_GT(h->p50, 100.0);
}

TEST_F(ObsRegistryTest, DisabledRecordsNothing) {
  obs::SetEnabled(false);
  obs::Count("a");
  obs::Observe("h", 1.0);
  { obs::Span span("s"); }
  EXPECT_TRUE(obs::SnapshotMetrics().empty());
  EXPECT_TRUE(obs::SnapshotSpans().empty());
}

TEST_F(ObsRegistryTest, SpansNestWithParentIds) {
  {
    obs::Span outer("outer");
    { obs::Span inner("inner"); }
  }
  auto spans = obs::SnapshotSpans();
  ASSERT_EQ(spans.size(), 2u);
  // Completion order: inner closes first.
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[1].name, "outer");
  EXPECT_EQ(spans[1].parent, 0u);
  EXPECT_EQ(spans[0].parent, spans[1].id);
  EXPECT_NE(spans[0].id, spans[1].id);
  EXPECT_GE(spans[0].dur_us, 0);
  // The child starts no earlier than its parent.
  EXPECT_GE(spans[0].start_us, spans[1].start_us);
}

TEST_F(ObsRegistryTest, SaveRestoreRewindsCountersHistogramsAndSpans) {
  obs::Count("kept", 3);
  obs::Observe("h", 2.0);
  { obs::Span span("before"); }
  obs::SavedState saved = obs::Save();
  ASSERT_TRUE(saved.valid);

  obs::Count("kept", 10);
  obs::Count("fresh");
  obs::Observe("h", 64.0);
  { obs::Span span("after"); }

  obs::Restore(saved);
  auto rows = obs::SnapshotMetrics();
  const obs::MetricRow* kept = FindMetric(rows, "kept");
  ASSERT_NE(kept, nullptr);
  EXPECT_EQ(kept->count, 3u);
  // Metrics first touched after the capture vanish entirely.
  EXPECT_EQ(FindMetric(rows, "fresh"), nullptr);
  const obs::MetricRow* h = FindMetric(rows, "h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 1u);
  EXPECT_DOUBLE_EQ(h->sum, 2.0);
  EXPECT_DOUBLE_EQ(h->max, 2.0);
  auto spans = obs::SnapshotSpans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "before");
}

TEST_F(ObsRegistryTest, SaveWhileDisabledIsInvalidAndRestoreIsNoop) {
  obs::SetEnabled(false);
  obs::SavedState saved = obs::Save();
  EXPECT_FALSE(saved.valid);
  obs::SetEnabled(true);
  obs::Count("a");
  obs::Restore(saved);  // must not wipe anything
  EXPECT_NE(FindMetric(obs::SnapshotMetrics(), "a"), nullptr);
}

// ---------------------------------------------------------------------------
// Engine-level: system relations, EXPLAIN, DumpState
// ---------------------------------------------------------------------------

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    static int counter = 0;
    path_ = fs::path(::testing::TempDir()) /
            ("dvms_obs_" + tag + "_" + std::to_string(counter++));
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

class ObsEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::ResetForTesting();
    Dvms::Options options;
    options.canvas_width = 100;
    options.canvas_height = 100;
    options.trace = true;
    engine_ = std::make_unique<Dvms>(options);
    ASSERT_TRUE(engine_
                    ->CreateBaseTable("Sales",
                                      Schema({{"productId", ValueType::kInt64},
                                              {"region", ValueType::kString},
                                              {"revenue", ValueType::kDouble}}))
                    .ok());
    std::vector<Row> rows = {
        {Value::Int(1), Value::String("east"), Value::Double(100)},
        {Value::Int(2), Value::String("west"), Value::Double(200)},
        {Value::Int(3), Value::String("east"), Value::Double(300)},
        {Value::Int(4), Value::String("west"), Value::Double(400)},
    };
    ASSERT_TRUE(engine_->Insert("Sales", rows).ok());
  }
  void TearDown() override {
    engine_.reset();
    obs::SetEnabled(false);
    obs::ResetForTesting();
  }

  std::unique_ptr<Dvms> engine_;
};

TEST_F(ObsEngineTest, MetricsRelationIsQueryable) {
  // Generate executor traffic, then read it back through DeVIL itself —
  // via a read session, the path an observability dashboard would use.
  ASSERT_TRUE(engine_->Query("SELECT * FROM Sales").ok());
  Table t = Session(engine_.get())
                .Query("SELECT name, count FROM dvms_metrics "
                       "WHERE name = 'exec.rows.Scan'")
                .value();
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_GE(t.At(0, "count").value().int_value(), 4);
}

TEST_F(ObsEngineTest, MetricsRelationRendersCounterGaugesAsNull) {
  ASSERT_TRUE(engine_->Query("SELECT * FROM Sales").ok());
  Table t = engine_
                ->Query("SELECT min, p50 FROM dvms_metrics "
                        "WHERE name = 'exec.rows.Scan'")
                .value();
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_TRUE(t.At(0, "min").value().is_null());
  EXPECT_TRUE(t.At(0, "p50").value().is_null());
}

TEST_F(ObsEngineTest, SpansRelationIsQueryable) {
  ASSERT_TRUE(engine_->Query("SELECT * FROM Sales").ok());
  Table t = Session(engine_.get())
                .Query("SELECT name, dur_us FROM dvms_spans "
                       "WHERE name = 'engine.query'")
                .value();
  ASSERT_GE(t.num_rows(), 1u);
  EXPECT_GE(t.At(0, "dur_us").value().int_value(), 0);
}

TEST_F(ObsEngineTest, SystemRelationsAreExcludedFromCommitHistory) {
  // A system relation exists only for the statement that reads it: after
  // reads on either side of an interaction commit it is in none of the
  // catalog, the undo history, or a durable snapshot.
  TempDir dir("system_relations");
  Dvms::Options options;
  options.data_dir = dir.str();
  options.snapshot_interval = 0;
  Dvms engine(options);
  ASSERT_TRUE(engine.CreateBaseTable("T", Schema({{"x", ValueType::kInt64}}))
                  .ok());
  ASSERT_TRUE(engine.Query("SELECT * FROM dvms_metrics").ok());
  ASSERT_TRUE(engine.Insert("T", {{Value::Int(1)}}).ok());
  ASSERT_TRUE(engine.LoadProgram("v = SELECT x FROM T;").ok());  // commits
  ASSERT_TRUE(Session(&engine).Query("SELECT * FROM dvms_metrics").ok());
  EXPECT_FALSE(engine.catalog()->Exists("dvms_metrics"));
  EXPECT_EQ(engine.DumpState().find("dvms_metrics"), std::string::npos);

  ASSERT_TRUE(engine.Checkpoint().ok());
  Result<std::vector<uint64_t>> snaps = ListWalSnapshots(dir.str());
  ASSERT_TRUE(snaps.ok());
  ASSERT_EQ(snaps.value().size(), 1u);
  auto file = ReadSnapshotFile(WalSnapshotPath(dir.str(), snaps.value()[0]));
  ASSERT_TRUE(file.ok()) << file.status().message();
  Result<EngineSnapshot> snapshot = DecodeEngineSnapshot(file.value().second);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().message();
  for (const EngineSnapshot::RelationState& rel : snapshot.value().relations) {
    EXPECT_NE(IdentKey(rel.name), "dvms_metrics");
  }
  ASSERT_FALSE(snapshot.value().undo_history.empty());
  for (const auto& committed : snapshot.value().undo_history) {
    for (const auto& [name, table] : committed) {
      EXPECT_NE(IdentKey(name), "dvms_metrics");
    }
  }
}

TEST_F(ObsEngineTest, ExplainReturnsPlanWithoutExecuting) {
  Table t = engine_
                ->Query("EXPLAIN SELECT region, SUM(revenue) AS total "
                        "FROM Sales GROUP BY region")
                .value();
  ASSERT_GE(t.num_rows(), 2u);
  bool saw_scan = false, saw_agg = false;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    const std::string op = t.At(r, "operator").value().string_value();
    if (op == "Scan") {
      saw_scan = true;
      EXPECT_EQ(t.At(r, "detail").value().string_value(), "Sales");
    }
    if (op == "Aggregate") saw_agg = true;
    // Plan-only report: no runtime columns.
    EXPECT_TRUE(t.At(r, "rows").value().is_null());
    EXPECT_TRUE(t.At(r, "self_us").value().is_null());
  }
  EXPECT_TRUE(saw_scan);
  EXPECT_TRUE(saw_agg);
}

TEST_F(ObsEngineTest, ExplainAnalyzeReportsRowsTimeAndMorsels) {
  Table t = engine_
                ->Query("EXPLAIN ANALYZE SELECT region, SUM(revenue) AS total "
                        "FROM Sales GROUP BY region")
                .value();
  ASSERT_GE(t.num_rows(), 2u);
  // Row 0 is the root (depth 0); its output is the query result size.
  EXPECT_EQ(t.At(0, "depth").value().int_value(), 0);
  EXPECT_EQ(t.At(0, "rows").value().int_value(), 2);
  bool saw_scan = false;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    EXPECT_GE(t.At(r, "rows").value().int_value(), 0);
    EXPECT_GE(t.At(r, "morsels").value().int_value(), 1);
    EXPECT_GE(t.At(r, "self_us").value().int_value(), 0);
    EXPECT_GE(t.At(r, "total_us").value().int_value(),
              t.At(r, "self_us").value().int_value());
    if (t.At(r, "operator").value().string_value() == "Scan") {
      saw_scan = true;
      EXPECT_EQ(t.At(r, "rows").value().int_value(), 4);
    }
  }
  EXPECT_TRUE(saw_scan);
}

TEST_F(ObsEngineTest, ExplainAnalyzeWorksWithTracingDisabled) {
  obs::SetEnabled(false);
  Table t = engine_->Query("EXPLAIN ANALYZE SELECT * FROM Sales").value();
  ASSERT_GE(t.num_rows(), 1u);
  EXPECT_EQ(t.At(0, "rows").value().int_value(), 4);
}

TEST_F(ObsEngineTest, NamedExplainMaterializesSystemRelation) {
  ASSERT_TRUE(
      engine_->LoadProgram("rep = EXPLAIN ANALYZE SELECT * FROM Sales;").ok());
  auto kind = engine_->catalog()->KindOf("rep");
  ASSERT_TRUE(kind.ok());
  EXPECT_EQ(kind.value(), RelationKind::kSystem);
  const Table* rep = engine_->GetTable("rep").value();
  ASSERT_GE(rep->num_rows(), 1u);
  // And it joins like any other relation.
  Table t = engine_->Query("SELECT operator FROM rep WHERE rows = 4").value();
  EXPECT_GE(t.num_rows(), 1u);
}

TEST_F(ObsEngineTest, NamedExplainRejectsNonSystemTarget) {
  EXPECT_FALSE(
      engine_->LoadProgram("Sales = EXPLAIN SELECT * FROM Sales;").ok());
}

TEST_F(ObsEngineTest, ExplainOfViewNamedExplainStillParses) {
  // A view literally named EXPLAIN: `EXPLAIN = SELECT ...` must stay a view
  // definition, not a bare EXPLAIN statement.
  ASSERT_TRUE(
      engine_->LoadProgram("EXPLAIN = SELECT productId FROM Sales;").ok());
  EXPECT_EQ(engine_->GetTable("EXPLAIN").value()->num_rows(), 4u);
}

TEST_F(ObsEngineTest, DumpStatePrintsEveryStatsCounter) {
  std::string state = engine_->DumpState();
  for (const char* field :
       {"events_processed:", "transactions_started:",
        "transactions_committed:", "transactions_aborted:", "renders:",
        "trace_recomputes:", "rollbacks:"}) {
    EXPECT_NE(state.find(field), std::string::npos) << field;
  }
}

// ---------------------------------------------------------------------------
// Full-Stats durability round-trip
// ---------------------------------------------------------------------------

TEST(ObsStatsRoundTripTest, SnapshotRestoresEveryStatsCounter) {
  const char* kProgram = R"(
    C = EVENT MOUSE_DOWN AS D, MOUSE_MOVE* AS M, MOUSE_UP AS U
        RETURN (D.t, D.x, D.y);
    v = SELECT productId, revenue FROM Sales WHERE revenue > 150;
    F = FORWARD TRACE FROM Sales WHERE productId = 3 TO v;
    P = render(SELECT 4 AS radius, 'red' AS fill,
               revenue / 4 AS center_x, revenue / 4 AS center_y FROM v);
  )";
  TempDir dir("stats");
  Dvms::Options options;
  options.canvas_width = 120;
  options.canvas_height = 120;
  options.data_dir = dir.str();
  options.wal_fsync = "always";
  Dvms::Stats want;
  {
    Dvms engine(options);
    ASSERT_TRUE(engine
                    .CreateBaseTable(
                        "Sales", Schema({{"productId", ValueType::kInt64},
                                         {"revenue", ValueType::kDouble}}))
                    .ok());
    ASSERT_TRUE(engine
                    .Insert("Sales",
                            {{Value::Int(1), Value::Double(100)},
                             {Value::Int(2), Value::Double(200)},
                             {Value::Int(3), Value::Double(300)}})
                    .ok());
    ASSERT_TRUE(engine.LoadProgram(kProgram).ok());
    // Committed click: started + committed.
    ASSERT_TRUE(engine.PushEvent(InputEvent::MouseDown(0, 10, 10)).ok());
    ASSERT_TRUE(engine.PushEvent(InputEvent::MouseUp(1, 10, 10)).ok());
    // A second MOUSE_DOWN mid-pattern: started + aborted.
    ASSERT_TRUE(engine.PushEvent(InputEvent::MouseDown(2, 20, 20)).ok());
    ASSERT_TRUE(engine.PushEvent(InputEvent::MouseMove(3, 30, 30)).ok());
    ASSERT_TRUE(engine.PushEvent(InputEvent::MouseDown(4, 31, 31)).ok());
    // A failing statement inside a mutation unit: one rollback.
    EXPECT_FALSE(engine.Delete("v", nullptr).ok());
    ASSERT_TRUE(engine.Render().ok());
    ASSERT_TRUE(engine.Checkpoint().ok());
    want = engine.stats();
    // The workload drove every counter away from zero.
    EXPECT_GT(want.events_processed, 0u);
    EXPECT_GT(want.transactions_started, 0u);
    EXPECT_GT(want.transactions_committed, 0u);
    EXPECT_GT(want.transactions_aborted, 0u);
    EXPECT_GT(want.renders, 0u);
    EXPECT_GT(want.trace_recomputes, 0u);
    EXPECT_GT(want.interactions_rolled_back, 0u);
  }
  Dvms recovered(options);
  ASSERT_TRUE(recovered.recovery_status().ok())
      << recovered.recovery_status().message();
  const Dvms::Stats& got = recovered.stats();
  EXPECT_EQ(got.events_processed, want.events_processed);
  EXPECT_EQ(got.transactions_started, want.transactions_started);
  EXPECT_EQ(got.transactions_committed, want.transactions_committed);
  EXPECT_EQ(got.transactions_aborted, want.transactions_aborted);
  EXPECT_EQ(got.renders, want.renders);
  EXPECT_EQ(got.trace_recomputes, want.trace_recomputes);
  EXPECT_EQ(got.interactions_rolled_back, want.interactions_rolled_back);
}

// ---------------------------------------------------------------------------
// Rollback no-leak under fault injection
// ---------------------------------------------------------------------------

std::map<std::string, uint64_t> CounterValues() {
  std::map<std::string, uint64_t> out;
  for (const obs::MetricRow& m : obs::SnapshotMetrics()) {
    out[m.name] = m.count;
  }
  return out;
}

TEST(ObsFaultTest, RolledBackUnitLeaksNoMetricsOrSpans) {
  obs::ResetForTesting();
  obs::SetEnabled(true);
  Dvms::Options options;
  options.canvas_width = 200;
  options.canvas_height = 150;
  options.num_threads = 4;  // pool workers must be wiped too
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
  ASSERT_TRUE(engine.LoadProgram(R"(
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
  )")
                  .ok());
  ASSERT_TRUE(engine.PushEvent(InputEvent::MouseDown(0, 40, 50)).ok());
  ASSERT_TRUE(engine.PushEvent(InputEvent::MouseUp(1, 90, 50)).ok());

  for (const char* site : {"storage", "ivm", "raster"}) {
    SCOPED_TRACE(site);
    const auto before = CounterValues();
    const size_t spans_before = obs::SnapshotSpans().size();
    FaultConfig config = ParseFaultSpec(std::string("1:1.0:") + site).value();
    config.max_injections = 1;
    Status st;
    {
      ScopedFaultInjector scoped(config);
      st = engine.PushEvent(InputEvent::MouseDown(2, 20, 40));
    }
    ASSERT_FALSE(st.ok());
    // Everything the failed unit recorded — on any thread — was rewound;
    // only the rollback itself is visible.
    auto after = CounterValues();
    auto expected = before;
    ++expected["dvms.rollbacks"];
    EXPECT_EQ(after, expected);
    EXPECT_EQ(obs::SnapshotSpans().size(), spans_before);
    // Replay the op cleanly so the next site starts from a committed state.
    ASSERT_TRUE(engine.PushEvent(InputEvent::MouseDown(2, 20, 40)).ok());
    ASSERT_TRUE(engine.PushEvent(InputEvent::MouseUp(3, 160, 40)).ok());
  }
  obs::SetEnabled(false);
  obs::ResetForTesting();
}

}  // namespace
}  // namespace dvms
