// fig2_drag: the Fig. 2 linked-brushing program (bench_fig2_brushing's
// program) over 2,000 seeded points on a 400x400 canvas, serial and
// durable. One user plays seeded drags; every move re-runs the row-path
// views (SPLOT_POINTS' UNION of IN / NOT IN subqueries and the @vnow-1
// hit-test join in `selected`) and redraws every circle.

#include <cmath>
#include <memory>
#include <optional>

#include "common/rng.h"
#include "driver/interaction.h"
#include "driver/reference.h"
#include "driver/workloads.h"

namespace perfbench {

namespace {

using dvms::InputEvent;
using dvms::Value;

constexpr const char* kProgram = R"(
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

constexpr int kPoints = 2000;
constexpr int kCanvas = 400;
/// 32 commits fill the undo history; the extra one makes sure the history
/// is full, not just reaching its cap, when timing starts.
constexpr int kWarmupGestures = 33;
/// Every drag is MOUSE_DOWN, kMoves MOUSE_MOVEs and MOUSE_UP, so the op
/// count and the share of each event type are the same for every seed.
constexpr int64_t kMoves = 10;
/// Timed events per second of --seconds (about the rate on a 4-core x86
/// host, so a run measures for roughly --seconds).
constexpr double kNominalEventsPerS = 80;
/// Setup is ~20 ms, so take the best of many builds.
constexpr size_t kSetupBuilds = 25;
/// A timed slice is 64 events, 64 WAL frames, so every slice carries
/// exactly one automatic checkpoint and the slices' rates compare. Slices
/// need not hold whole drags, but the timed phase does: 3 slices are 16.
constexpr size_t kSliceEvents = 64;
constexpr size_t kSlicesPerDrags = 3;
constexpr int64_t kFrameMs = 16;

struct Rect {
  double ax, ay, bx, by;
};

}  // namespace

RunResult RunFig2Drag(const RunConfig& config) {
  dvms::Rng rng(config.seed);
  std::vector<dvms::Row> rows;
  auto points = std::make_shared<std::vector<ScatterPoint>>();
  for (int i = 0; i < kPoints; ++i) {
    double profit = rng.Uniform(0, 100);
    double revenue = rng.Uniform(0, 100);
    rows.push_back({Value::Int(i), Value::Double(profit),
                    Value::Double(revenue)});
    points->push_back({i, LinearScale(revenue, 0, 100, 0, kCanvas),
                       LinearScale(profit, 0, 100, 0, kCanvas)});
  }

  // Seeded drags: MOUSE_DOWN at one corner, kMoves moves along a straight
  // line to the other, MOUSE_UP there. After the MOUSE_UP the selection is
  // the points inside the dragged rectangle.
  InteractionSpec spec;
  auto expect = std::make_shared<std::vector<std::optional<Rect>>>();
  int64_t t = 0;
  auto add_gesture = [&] {
    double x0 = rng.UniformInt(0, kCanvas), y0 = rng.UniformInt(0, kCanvas);
    double x1 = rng.UniformInt(0, kCanvas), y1 = rng.UniformInt(0, kCanvas);
    const int64_t moves = kMoves;
    spec.events.push_back(InputEvent::MouseDown(t += kFrameMs, x0, y0));
    for (int64_t j = 1; j <= moves; ++j) {
      double x = std::round(x0 + (x1 - x0) * j / moves);
      double y = std::round(y0 + (y1 - y0) * j / moves);
      spec.events.push_back(InputEvent::MouseMove(t += kFrameMs, x, y));
    }
    spec.events.push_back(InputEvent::MouseUp(t += kFrameMs, x1, y1));
    expect->resize(spec.events.size());
    expect->back() = Rect{x0, y0, x1, y1};
  };
  for (int g = 0; g < kWarmupGestures; ++g) add_gesture();
  spec.warmup_events = spec.events.size();
  spec.slice_events = kSliceEvents;
  size_t slices = TimedSlices(config.seconds, kNominalEventsPerS, kSliceEvents);
  slices += (kSlicesPerDrags - slices % kSlicesPerDrags) % kSlicesPerDrags;
  while (spec.events.size() - spec.warmup_events < slices * kSliceEvents) {
    add_gesture();
  }
  expect->resize(spec.events.size());

  spec.options = PinnedOptions();
  spec.options.canvas_width = kCanvas;
  spec.options.canvas_height = kCanvas;
  spec.options.num_threads = 1;
  spec.program = kProgram;
  spec.event_table = std::string("C");
  spec.replay_pixels = true;
  spec.setup_builds = kSetupBuilds;
  spec.load = [rows](dvms::Dvms& engine) {
    DVMS_RETURN_IF_ERROR(engine.CreateBaseTable(
        "Sales", dvms::Schema({{"productId", dvms::ValueType::kInt64},
                               {"profit", dvms::ValueType::kDouble},
                               {"revenue", dvms::ValueType::kDouble}})));
    DVMS_RETURN_IF_ERROR(engine.Insert("Sales", rows));
    return engine.LoadProgram(kProgram);
  };
  spec.check = [points, expect](dvms::Dvms& engine, size_t i) -> std::string {
    const std::optional<Rect>& rect = (*expect)[i];
    if (!rect.has_value()) return "";
    auto selected = engine.GetTable("selected");
    if (!selected.ok()) return selected.status().ToString();
    return CompareIdSet(
        *selected.value(), 0,
        PointsInRect(*points, rect->ax, rect->ay, rect->bx, rect->by));
  };
  return RunInteraction(config, spec);
}

}  // namespace perfbench
