// PR-4 observability overhead: the tracing layer's cost on the PR-1
// parallel brushing workload. Three numbers matter:
//   1. baseline_ms  — the instrumented build with tracing DISABLED (the
//      shipping default; every site is one relaxed atomic load).
//   2. traced_ms    — the same workload with DVMS_TRACE-equivalent tracing
//      enabled (registry locks, clock reads, span ring).
//   3. disabled_ns  — microbenchmarked per-site cost of the disabled guard,
//      multiplied by a deliberately overcounted site-hit estimate to bound
//      the disabled-path overhead as a percentage of the workload.
// The acceptance bar is disabled overhead < 2%; ci.sh records the JSON
// lines into BENCH_obs.json.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "benchmark/benchmark.h"
#include "common/rng.h"
#include "core/dvms.h"
#include "core/session.h"
#include "json_line.h"
#include "obs/trace.h"

namespace {

using namespace dvms;
using Clock = std::chrono::steady_clock;

const char* kProgram = R"(
  C = EVENT MOUSE_DOWN AS D, MOUSE_MOVE* AS M, MOUSE_UP AS U
      RETURN (D.t, D.x, D.y, 0 AS dx, 0 AS dy),
             (M.t, D.x, D.y, (M.x - D.x) AS dx, (M.y - D.y) AS dy);
  BBOX = SELECT x AS x0, y AS y0, x + dx AS x1, y + dy AS y1
    FROM C ORDER BY t DESC LIMIT 1;
  SPLOT_POINTS = SELECT 3 AS radius, 'gray' AS fill,
      linear_scale(Sales.revenue, 0, 100, 0, 400) AS center_x,
      linear_scale(Sales.profit, 0, 100, 0, 400) AS center_y,
      productId
    FROM Sales;
  selected = SELECT SP.productId AS productId
    FROM BBOX, SPLOT_POINTS@vnow-1 AS SP
    WHERE in_rectangle(SP.center_x, SP.center_y,
                       BBOX.x0, BBOX.y0, BBOX.x1, BBOX.y1);
  P = render(SELECT * FROM SPLOT_POINTS);
)";

std::unique_ptr<Dvms> MakeEngine(size_t points) {
  Dvms::Options options;
  options.canvas_width = 400;
  options.canvas_height = 400;
  options.auto_render = true;
  auto engine = std::make_unique<Dvms>(options);
  (void)engine->CreateBaseTable("Sales",
                                Schema({{"productId", ValueType::kInt64},
                                        {"profit", ValueType::kDouble},
                                        {"revenue", ValueType::kDouble}}));
  Rng rng(11);
  std::vector<Row> rows;
  for (size_t i = 0; i < points; ++i) {
    rows.push_back({Value::Int(static_cast<int64_t>(i)),
                    Value::Double(rng.Uniform(0, 100)),
                    Value::Double(rng.Uniform(0, 100))});
  }
  (void)engine->Insert("Sales", rows);
  if (!engine->LoadProgram(kProgram).ok()) return nullptr;
  return engine;
}

/// One fig2-style interaction: a 20-move drag, maintenance + render per
/// event. Returns milliseconds.
double RunDrag(Dvms& engine, int64_t t0) {
  Clock::time_point start = Clock::now();
  (void)engine.PushEvent(InputEvent::MouseDown(t0, 10, 10));
  for (int m = 1; m <= 20; ++m) {
    (void)engine.PushEvent(
        InputEvent::MouseMove(t0 + m, 10.0 + m * 15, 10.0 + m * 15));
  }
  (void)engine.PushEvent(InputEvent::MouseUp(t0 + 21, 310, 310));
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Best-of-N drags against a fresh engine, tracing on or off.
double MeasureWorkloadMs(size_t points, bool traced, int reps) {
  obs::SetEnabled(traced);
  auto engine = MakeEngine(points);
  if (engine == nullptr) return -1;
  double best = 1e300;
  int64_t t = 0;
  for (int r = 0; r < reps; ++r) {
    double ms = RunDrag(*engine, t);
    if (ms < best) best = ms;
    t += 100;
  }
  obs::SetEnabled(false);
  return best;
}

/// Per-call cost of the disabled guard: Count + Observe + an inert Span.
double MeasureDisabledNsPerSite() {
  obs::SetEnabled(false);
  constexpr int kCalls = 2'000'000;
  Clock::time_point start = Clock::now();
  for (int i = 0; i < kCalls; ++i) {
    obs::Count("bench.disabled");
    obs::Observe("bench.disabled_h", 1.0);
    obs::Span span("bench.disabled_span");
    benchmark::DoNotOptimize(i);
  }
  double ns =
      std::chrono::duration<double, std::nano>(Clock::now() - start).count();
  return ns / (kCalls * 3.0);
}

/// Deliberate overcount of instrumentation hits in one traced workload:
/// every counter increment (row-valued counters count each ROW as a hit,
/// a large overestimate) plus every span.
double CountSiteHits(size_t points) {
  obs::ResetForTesting();
  obs::SetEnabled(true);
  auto engine = MakeEngine(points);
  if (engine == nullptr) return -1;
  (void)RunDrag(*engine, 0);
  double hits = 0;
  for (const obs::MetricRow& m : obs::SnapshotMetrics()) hits += m.count;
  hits += static_cast<double>(obs::SnapshotSpans().size());
  obs::SetEnabled(false);
  obs::ResetForTesting();
  return hits;
}

void PrintObsOverhead() {
  std::printf("=== Observability overhead (fig2 brushing workload) ===\n\n");
  constexpr size_t kPoints = 5000;
  constexpr int kReps = 5;
  (void)MeasureWorkloadMs(kPoints, false, 2);  // warm-up (allocators, pool)
  const double baseline_ms = MeasureWorkloadMs(kPoints, false, kReps);
  const double traced_ms = MeasureWorkloadMs(kPoints, true, kReps);
  const double disabled_ns = MeasureDisabledNsPerSite();
  const double hits = CountSiteHits(kPoints);
  // Upper bound: even if every row-hit were a full guard check, the
  // disabled path costs hits * disabled_ns out of the whole workload.
  const double disabled_pct =
      100.0 * (hits * disabled_ns) / (baseline_ms * 1e6);
  const double traced_pct = 100.0 * (traced_ms - baseline_ms) / baseline_ms;

  std::printf("%zu points, 22-event drag, best of %d:\n", kPoints, kReps);
  std::printf("  tracing off:        %8.2f ms\n", baseline_ms);
  std::printf("  tracing on:         %8.2f ms  (%+.1f%%)\n", traced_ms,
              traced_pct);
  std::printf("  disabled guard:     %8.2f ns/site\n", disabled_ns);
  std::printf("  site hits (overcounted): %.0f\n", hits);
  std::printf("  disabled overhead bound: %.4f%%  (budget 2%%)\n\n",
              disabled_pct);

  AppendJsonLine(
      "{\"bench\": \"obs_overhead\", \"points\": %zu, "
      "\"baseline_ms\": %.4f, \"traced_ms\": %.4f, "
      "\"traced_overhead_pct\": %.2f, \"disabled_ns_per_site\": %.2f, "
      "\"site_hits_overcounted\": %.0f, "
      "\"disabled_overhead_pct_bound\": %.4f, \"pass\": %s}",
      kPoints, baseline_ms, traced_ms, traced_pct, disabled_ns, hits,
      disabled_pct, disabled_pct < 2.0 ? "true" : "false");
}

void PrintExplainAnalyze() {
  std::printf("=== EXPLAIN ANALYZE of the brushing hit-test ===\n\n");
  obs::SetEnabled(false);
  auto engine = MakeEngine(5000);
  if (engine == nullptr) return;
  (void)engine->PushEvent(InputEvent::MouseDown(0, 10, 10));
  (void)engine->PushEvent(InputEvent::MouseMove(1, 200, 200));
  // Through a read session: EXPLAIN ANALYZE is a read and takes the same
  // lock-free snapshot path as any other session query.
  Session session(engine.get());
  auto report = session.Query(
      "EXPLAIN ANALYZE SELECT SP.productId AS productId "
      "FROM BBOX, SPLOT_POINTS@vnow-1 AS SP "
      "WHERE in_rectangle(SP.center_x, SP.center_y, "
      "BBOX.x0, BBOX.y0, BBOX.x1, BBOX.y1)");
  if (!report.ok()) {
    std::printf("explain failed: %s\n", report.status().message().c_str());
    return;
  }
  const Table& t = report.value();
  std::printf("%-12s %-24s %8s %8s %10s\n", "operator", "detail", "rows",
              "morsels", "total_us");
  for (size_t r = 0; r < t.num_rows(); ++r) {
    std::string indent(
        static_cast<size_t>(t.At(r, "depth").value().int_value()) * 2, ' ');
    std::printf("%-12s %-24s %8lld %8lld %10lld\n",
                (indent + t.At(r, "operator").value().string_value()).c_str(),
                t.At(r, "detail").value().string_value().c_str(),
                static_cast<long long>(t.At(r, "rows").value().int_value()),
                static_cast<long long>(t.At(r, "morsels").value().int_value()),
                static_cast<long long>(
                    t.At(r, "total_us").value().int_value()));
  }
  std::printf("\n");
}

void BM_CountDisabled(benchmark::State& state) {
  obs::SetEnabled(false);
  for (auto _ : state) {
    obs::Count("bm.disabled");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CountDisabled);

void BM_CountEnabled(benchmark::State& state) {
  obs::ResetForTesting();
  obs::SetEnabled(true);
  for (auto _ : state) {
    obs::Count("bm.enabled");
  }
  obs::SetEnabled(false);
  obs::ResetForTesting();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CountEnabled);

void BM_SpanEnabled(benchmark::State& state) {
  obs::ResetForTesting();
  obs::SetEnabled(true);
  for (auto _ : state) {
    obs::Span span("bm.span");
  }
  obs::SetEnabled(false);
  obs::ResetForTesting();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpanEnabled);

}  // namespace

int main(int argc, char** argv) {
  PrintObsOverhead();
  PrintExplainAnalyze();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
