// Fault-injection cost and survival: (1) the undo-log overhead of
// transactional interaction rollback on a fault-free figure-1/figure-2
// interaction workload — the budget is < 10% over the rollback-disabled
// engine — and (2) a chaos survival run showing the engine converging to
// the bit-identical fault-free state under injected faults with bounded
// per-op retry.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "benchmark/benchmark.h"
#include "common/fault.h"
#include "common/rng.h"
#include "core/dvms.h"
#include "json_line.h"

namespace {

using namespace dvms;
using Clock = std::chrono::steady_clock;

// The figure-2 linked-brushing program: event recognition, a versioned
// hit test, view maintenance over the scatterplot, and rasterization.
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

std::unique_ptr<Dvms> MakeEngine(size_t points, bool transactional,
                                 size_t num_threads = 1) {
  Dvms::Options options;
  options.canvas_width = 400;
  options.canvas_height = 400;
  options.num_threads = num_threads;
  options.transactional_rollback = transactional;
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

/// One fig2-style interaction: a 20-move drag plus a mid-session insert.
double DriveWorkloadMs(Dvms* engine, int64_t t_base) {
  Clock::time_point t0 = Clock::now();
  (void)engine->PushEvent(InputEvent::MouseDown(t_base, 10, 10));
  for (int m = 1; m <= 20; ++m) {
    (void)engine->PushEvent(
        InputEvent::MouseMove(t_base + m, 10.0 + m * 15, 10.0 + m * 15));
  }
  (void)engine->PushEvent(InputEvent::MouseUp(t_base + 21, 310, 310));
  (void)engine->Insert(
      "Sales", {{Value::Int(t_base + 1000000), Value::Double(50),
                 Value::Double(50)}});
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

/// Undo-log overhead on the fault-free path: the transactional engine must
/// stay within 10% of the rollback-disabled engine on the same workload.
void PrintUndoLogOverhead() {
  std::printf("=== Undo-log overhead (fault-free fig2 workload) ===\n\n");
  constexpr size_t kPoints = 20000;
  constexpr int kRounds = 5;

  double baseline_ms = 0, transactional_ms = 0;
  // Interleave measurements so thermal / allocator drift hits both arms.
  for (int mode = 0; mode < 2; ++mode) {
    const bool transactional = mode == 1;
    auto engine = MakeEngine(kPoints, transactional);
    if (engine == nullptr) {
      std::printf("program failed to load\n");
      return;
    }
    (void)DriveWorkloadMs(engine.get(), 0);  // warmup
    double best = 0;
    for (int round = 0; round < kRounds; ++round) {
      double ms = DriveWorkloadMs(engine.get(), (round + 1) * 100);
      if (best == 0 || ms < best) best = ms;
    }
    (transactional ? transactional_ms : baseline_ms) = best;
  }

  double overhead_pct =
      (transactional_ms - baseline_ms) / baseline_ms * 100.0;
  bool within_budget = overhead_pct < 10.0;
  std::printf("%zu points, 22-event drag + insert, best of %d rounds:\n",
              kPoints, kRounds);
  std::printf("  rollback off: %8.2f ms\n", baseline_ms);
  std::printf("  rollback on:  %8.2f ms\n", transactional_ms);
  std::printf("  overhead:     %8.2f %%  (budget < 10%%) -> %s\n\n",
              overhead_pct, within_budget ? "OK" : "OVER BUDGET");
  AppendJsonLine(
      "{\"bench\": \"faults_undo_log_overhead\", \"points\": %zu, "
      "\"baseline_ms\": %.4f, \"transactional_ms\": %.4f, "
      "\"overhead_pct\": %.2f, \"within_budget\": %s}",
      kPoints, baseline_ms, transactional_ms, overhead_pct,
      within_budget ? "true" : "false");
}

/// Chaos survival: replay the workload under a 2% fault rate with bounded
/// per-op retry; the final pixels must match the fault-free engine's.
void PrintChaosSurvival() {
  std::printf("=== Chaos survival (2%% faults, bounded retry) ===\n\n");
  constexpr size_t kPoints = 5000;

  auto clean = MakeEngine(kPoints, /*transactional=*/true);
  if (clean == nullptr) return;
  (void)DriveWorkloadMs(clean.get(), 0);

  auto chaotic = MakeEngine(kPoints, /*transactional=*/true);
  FaultConfig config;
  config.seed = 2024;
  config.rate = 0.02;
  size_t rollbacks = 0, retried_ops = 0;
  {
    ScopedFaultInjector scoped(config);
    std::vector<InputEvent> trace;
    trace.push_back(InputEvent::MouseDown(0, 10, 10));
    for (int m = 1; m <= 20; ++m) {
      trace.push_back(
          InputEvent::MouseMove(m, 10.0 + m * 15, 10.0 + m * 15));
    }
    trace.push_back(InputEvent::MouseUp(21, 310, 310));
    for (const InputEvent& e : trace) {
      bool landed = false;
      for (int attempt = 0; attempt < 50 && !landed; ++attempt) {
        if (attempt == 1) ++retried_ops;
        landed = chaotic->PushEvent(e).ok();
      }
      if (!landed) {
        std::printf("op never landed within the retry bound\n");
        return;
      }
    }
    bool inserted = false;
    for (int attempt = 0; attempt < 50 && !inserted; ++attempt) {
      inserted = chaotic
                     ->Insert("Sales", {{Value::Int(1000000),
                                         Value::Double(50),
                                         Value::Double(50)}})
                     .ok();
    }
    rollbacks = chaotic->stats().interactions_rolled_back;
  }

  bool identical = chaotic->pixels().Equals(clean->pixels());
  std::printf("23 ops, %zu rolled back (%zu ops needed a retry); final "
              "pixels %s the fault-free run\n\n",
              rollbacks, retried_ops,
              identical ? "IDENTICAL to" : "DIVERGED from");
  AppendJsonLine(
      "{\"bench\": \"faults_chaos_survival\", \"points\": %zu, "
      "\"rollbacks\": %zu, \"identical\": %s}",
      kPoints, rollbacks, identical ? "true" : "false");
}

void BM_PushEventTransactional(benchmark::State& state) {
  auto engine = MakeEngine(static_cast<size_t>(state.range(0)),
                           /*transactional=*/state.range(1) != 0);
  (void)engine->PushEvent(InputEvent::MouseDown(0, 10, 10));
  int64_t t = 1;
  double x = 11;
  for (auto _ : state) {
    (void)engine->PushEvent(InputEvent::MouseMove(t++, x, x));
    x = x < 390 ? x + 1 : 11;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PushEventTransactional)
    ->Args({10000, 0})
    ->Args({10000, 1});

}  // namespace

int main(int argc, char** argv) {
  PrintUndoLogOverhead();
  PrintChaosSurvival();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
