// Figure 2: linked brushing end-to-end through the full DVMS engine —
// event recognition, view maintenance, versioned hit testing, and
// rasterization — with per-event latency as the dataset grows.

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "benchmark/benchmark.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/dvms.h"
#include "json_line.h"

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
  SPLOT_POINTS = SELECT 3 AS radius, 'gray' AS fill,
      linear_scale(Sales.revenue, 0, 100, 0, 400) AS center_x,
      linear_scale(Sales.profit, 0, 100, 0, 400) AS center_y,
      productId
    FROM Sales WHERE productId NOT IN selected
    UNION SELECT 3 AS radius, 'red' AS fill,
      linear_scale(Sales.revenue, 0, 100, 0, 400) AS center_x,
      linear_scale(Sales.profit, 0, 100, 0, 400) AS center_y,
      productId
    FROM Sales WHERE productId IN selected;
  P = render(SELECT * FROM SPLOT_POINTS);
)";

std::unique_ptr<Dvms> MakeEngine(size_t points, bool auto_render,
                                 size_t num_threads = 0) {
  Dvms::Options options;
  options.canvas_width = 400;
  options.canvas_height = 400;
  options.auto_render = auto_render;
  options.num_threads = num_threads;
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

void PrintFigure2() {
  std::printf("=== Figure 2: linked brushing through the full engine ===\n\n");
  // Correctness of the three steps at a readable size.
  {
    auto engine = MakeEngine(200, /*auto_render=*/true);
    if (engine == nullptr) {
      std::printf("program failed to load\n");
      return;
    }
    (void)engine->PushEvent(InputEvent::MouseDown(0, 50, 50));
    (void)engine->PushEvent(InputEvent::MouseMove(1, 200, 200));
    size_t selected = engine->GetTable("selected").value()->num_rows();
    std::printf("step 1: brush (50,50)-(200,200) selects %zu of 200 points\n",
                selected);
    (void)engine->PushEvent(InputEvent::MouseDown(2, 51, 51));  // reject
    std::printf("step 2: rollback clears the selection (%zu selected, "
                "%zu aborts)\n\n",
                engine->GetTable("selected").value()->num_rows(),
                engine->stats().transactions_aborted);
  }

  std::printf("per-event latency during a 20-move drag "
              "(maintenance + render):\n");
  std::printf("%10s %16s %16s\n", "points", "with render", "without render");
  for (size_t points : {100ul, 1000ul, 5000ul, 20000ul}) {
    double with_render = 0, without_render = 0;
    for (int mode = 0; mode < 2; ++mode) {
      auto engine = MakeEngine(points, mode == 0);
      Clock::time_point t0 = Clock::now();
      (void)engine->PushEvent(InputEvent::MouseDown(0, 10, 10));
      for (int m = 1; m <= 20; ++m) {
        (void)engine->PushEvent(
            InputEvent::MouseMove(m, 10.0 + m * 15, 10.0 + m * 15));
      }
      (void)engine->PushEvent(InputEvent::MouseUp(21, 310, 310));
      double ms =
          std::chrono::duration<double, std::milli>(Clock::now() - t0)
              .count() /
          22.0;
      if (mode == 0) {
        with_render = ms;
      } else {
        without_render = ms;
      }
    }
    std::printf("%10zu %13.2f ms %13.2f ms\n", points, with_render,
                without_render);
  }
  std::printf("\n");
}

/// One BENCH_parallel.json line (see json_line.h).
void AppendBenchJson(const char* bench, double serial_ms, double parallel_ms,
                     bool identical) {
  AppendJsonLine(
      "{\"bench\": \"%s\", \"threads\": 4, \"serial_ms\": %.4f, "
      "\"parallel_ms\": %.4f, \"speedup\": %.2f, \"identical\": %s}",
      bench, serial_ms, parallel_ms, serial_ms / parallel_ms,
      identical ? "true" : "false");
}

/// The same 20-move drag through two engines: fully serial vs a dedicated
/// 4-thread pool (morsel-parallel maintenance + band-parallel render).
/// Final pixels must match bit for bit.
void PrintParallelComparison() {
  std::printf("=== Engine parallelism: serial vs 4 threads ===\n\n");
  constexpr size_t kPoints = 20000;
  auto drive = [](Dvms* engine) {
    Clock::time_point t0 = Clock::now();
    (void)engine->PushEvent(InputEvent::MouseDown(0, 10, 10));
    for (int m = 1; m <= 20; ++m) {
      (void)engine->PushEvent(
          InputEvent::MouseMove(m, 10.0 + m * 15, 10.0 + m * 15));
    }
    (void)engine->PushEvent(InputEvent::MouseUp(21, 310, 310));
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
               .count() /
           22.0;
  };
  auto serial = MakeEngine(kPoints, /*auto_render=*/true, /*num_threads=*/1);
  auto parallel = MakeEngine(kPoints, /*auto_render=*/true, /*num_threads=*/4);
  double serial_ms = drive(serial.get());
  double parallel_ms = drive(parallel.get());
  bool identical = true;
  const PixelBuffer& a = serial->pixels();
  const PixelBuffer& b = parallel->pixels();
  for (size_t y = 0; identical && y < a.height(); ++y) {
    for (size_t x = 0; identical && x < a.width(); ++x) {
      identical = a.At(static_cast<int64_t>(x), static_cast<int64_t>(y)) ==
                  b.At(static_cast<int64_t>(x), static_cast<int64_t>(y));
    }
  }
  std::printf("per-event latency, %zu points: serial %.2f ms, 4 threads "
              "%.2f ms (%.2fx, %zu hw cores), pixels %s\n\n",
              kPoints, serial_ms, parallel_ms, serial_ms / parallel_ms,
              ThreadPool::DefaultThreadCount(),
              identical ? "identical" : "MISMATCH");
  AppendBenchJson("fig2_brushing_drag", serial_ms, parallel_ms, identical);
}

void BM_BrushMoveEvent(benchmark::State& state) {
  auto engine = MakeEngine(static_cast<size_t>(state.range(0)),
                           /*auto_render=*/false);
  (void)engine->PushEvent(InputEvent::MouseDown(0, 10, 10));
  int64_t t = 1;
  double x = 11;
  for (auto _ : state) {
    (void)engine->PushEvent(InputEvent::MouseMove(t++, x, x));
    x = x < 390 ? x + 1 : 11;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BrushMoveEvent)->Arg(1000)->Arg(10000);

}  // namespace

int main(int argc, char** argv) {
  PrintFigure2();
  PrintParallelComparison();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
