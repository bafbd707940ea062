// fig1_brush: the Fig. 1 crossfilter program (examples/crossfilter.cpp: 8
// group-by-SUM views and 8 bar-mark views) over 20,000 TPC-H-shaped Sales
// rows on an 800x600 canvas, serial and durable. One user brushes seeded
// year ranges on the year chart; the three cube-adoptable filtered views
// refresh from crossfilter cubes, while rev_year_f (grouped on its own
// filter column) rescans Sales. Every MOUSE_UP copies Sales into the undo
// history, so every checkpoint encodes 33 copies of it.

#include <algorithm>
#include <memory>
#include <utility>

#include "common/rng.h"
#include "driver/interaction.h"
#include "driver/reference.h"
#include "driver/workloads.h"
#include "workload/tpch.h"

namespace perfbench {

namespace {

using dvms::InputEvent;
using dvms::Value;

constexpr const char* kProgram = R"(
  C = EVENT MOUSE_DOWN AS D, MOUSE_MOVE* AS M, MOUSE_UP AS U
      WHERE D.x > 420 AND D.y < 280
      RETURN (D.t, D.x AS x, D.x AS x2),
             (M.t, D.x AS x, M.x AS x2);

  C_RANGE = SELECT min2(x, x2) AS lo, max2(x, x2) AS hi
    FROM C ORDER BY t DESC LIMIT 1;

  selected_years = SELECT yb.year AS year
    FROM C_RANGE, year_bands AS yb
    WHERE yb.x1 >= C_RANGE.lo AND yb.x0 <= C_RANGE.hi;

  rev_region   = SELECT region, SUM(revenue) AS revenue FROM Sales GROUP BY region;
  rev_region_f = SELECT region, SUM(revenue) AS revenue FROM Sales
                 WHERE year IN selected_years GROUP BY region;
  rev_year     = SELECT year, SUM(revenue) AS revenue FROM Sales GROUP BY year;
  rev_year_f   = SELECT year, SUM(revenue) AS revenue FROM Sales
                 WHERE year IN selected_years GROUP BY year;
  rev_month    = SELECT month, SUM(revenue) AS revenue FROM Sales GROUP BY month;
  rev_month_f  = SELECT month, SUM(revenue) AS revenue FROM Sales
                 WHERE year IN selected_years GROUP BY month;
  rev_dow      = SELECT dow, SUM(revenue) AS revenue FROM Sales GROUP BY dow;
  rev_dow_f    = SELECT dow, SUM(revenue) AS revenue FROM Sales
                 WHERE year IN selected_years GROUP BY dow;

  REGION_BARS = SELECT
      band_scale(d.idx, 5, 20.0, 380.0, 0.2) AS x,
      280.0 - linear_scale(r.revenue, s.domain_min, s.domain_max,
                           s.range_min, s.range_max) AS y,
      band_width(5, 20.0, 380.0, 0.2) AS width,
      linear_scale(r.revenue, s.domain_min, s.domain_max,
                   s.range_min, s.range_max) AS height,
      'lightgray' AS fill
    FROM rev_region AS r, region_dim AS d, chart_scale AS s
    WHERE r.region = d.region;
  REGION_BARS_F = SELECT
      band_scale(d.idx, 5, 20.0, 380.0, 0.2) AS x,
      280.0 - linear_scale(r.revenue, s.domain_min, s.domain_max,
                           s.range_min, s.range_max) AS y,
      band_width(5, 20.0, 380.0, 0.2) AS width,
      linear_scale(r.revenue, s.domain_min, s.domain_max,
                   s.range_min, s.range_max) AS height,
      'green' AS fill
    FROM rev_region_f AS r, region_dim AS d, chart_scale AS s
    WHERE r.region = d.region;

  YEAR_BARS = SELECT
      band_scale(r.year - 1992, 7, 420.0, 780.0, 0.2) AS x,
      280.0 - linear_scale(r.revenue, s.domain_min, s.domain_max,
                           s.range_min, s.range_max) AS y,
      band_width(7, 420.0, 780.0, 0.2) AS width,
      linear_scale(r.revenue, s.domain_min, s.domain_max,
                   s.range_min, s.range_max) AS height,
      'lightgray' AS fill
    FROM rev_year AS r, chart_scale AS s;
  YEAR_BARS_F = SELECT
      band_scale(r.year - 1992, 7, 420.0, 780.0, 0.2) AS x,
      280.0 - linear_scale(r.revenue, s.domain_min, s.domain_max,
                           s.range_min, s.range_max) AS y,
      band_width(7, 420.0, 780.0, 0.2) AS width,
      linear_scale(r.revenue, s.domain_min, s.domain_max,
                   s.range_min, s.range_max) AS height,
      'green' AS fill
    FROM rev_year_f AS r, chart_scale AS s;

  MONTH_BARS = SELECT
      band_scale(r.month - 1, 12, 20.0, 380.0, 0.2) AS x,
      580.0 - linear_scale(r.revenue, s.domain_min, s.domain_max,
                           s.range_min, s.range_max) AS y,
      band_width(12, 20.0, 380.0, 0.2) AS width,
      linear_scale(r.revenue, s.domain_min, s.domain_max,
                   s.range_min, s.range_max) AS height,
      'lightgray' AS fill
    FROM rev_month AS r, chart_scale AS s;
  MONTH_BARS_F = SELECT
      band_scale(r.month - 1, 12, 20.0, 380.0, 0.2) AS x,
      580.0 - linear_scale(r.revenue, s.domain_min, s.domain_max,
                           s.range_min, s.range_max) AS y,
      band_width(12, 20.0, 380.0, 0.2) AS width,
      linear_scale(r.revenue, s.domain_min, s.domain_max,
                   s.range_min, s.range_max) AS height,
      'green' AS fill
    FROM rev_month_f AS r, chart_scale AS s;

  DOW_BARS = SELECT
      band_scale(r.dow, 7, 420.0, 780.0, 0.2) AS x,
      580.0 - linear_scale(r.revenue, s.domain_min, s.domain_max,
                           s.range_min, s.range_max) AS y,
      band_width(7, 420.0, 780.0, 0.2) AS width,
      linear_scale(r.revenue, s.domain_min, s.domain_max,
                   s.range_min, s.range_max) AS height,
      'lightgray' AS fill
    FROM rev_dow AS r, chart_scale AS s;
  DOW_BARS_F = SELECT
      band_scale(r.dow, 7, 420.0, 780.0, 0.2) AS x,
      580.0 - linear_scale(r.revenue, s.domain_min, s.domain_max,
                           s.range_min, s.range_max) AS y,
      band_width(7, 420.0, 780.0, 0.2) AS width,
      linear_scale(r.revenue, s.domain_min, s.domain_max,
                   s.range_min, s.range_max) AS height,
      'green' AS fill
    FROM rev_dow_f AS r, chart_scale AS s;

  P1 = render(SELECT * FROM REGION_BARS);
  P2 = render(SELECT * FROM REGION_BARS_F);
  P3 = render(SELECT * FROM YEAR_BARS);
  P4 = render(SELECT * FROM YEAR_BARS_F);
  P5 = render(SELECT * FROM MONTH_BARS);
  P6 = render(SELECT * FROM MONTH_BARS_F);
  P7 = render(SELECT * FROM DOW_BARS);
  P8 = render(SELECT * FROM DOW_BARS_F);
)";

constexpr size_t kRows = 20000;
constexpr double kYearX0 = 420, kYearX1 = 780;
constexpr int kYears = 7;
constexpr int kFirstYear = 1992;
constexpr int kWarmupGestures = 33;
/// Every brush is MOUSE_DOWN, kMoves MOUSE_MOVEs and MOUSE_UP, so the op
/// count and the share of each event type are the same for every seed.
constexpr int64_t kMoves = 6;
/// A timed slice is 8 brushes, 64 events: 64 WAL frames, so every slice
/// carries exactly one automatic checkpoint and the slices' rates compare.
constexpr size_t kSliceGestures = 8;
/// Timed events per second of --seconds (about the rate on a 4-core x86
/// host, so a run measures for roughly --seconds).
constexpr double kNominalEventsPerS = 45;
constexpr size_t kSetupBuilds = 13;
constexpr int64_t kFrameMs = 16;

/// The four crossfiltered views and the dimension each groups by.
struct FilteredView {
  const char* view;
  Value (*group)(const SalesRow&);
};
const FilteredView kFilteredViews[] = {
    {"rev_region_f", [](const SalesRow& r) { return Value::String(r.region); }},
    {"rev_year_f", [](const SalesRow& r) { return Value::Int(r.year); }},
    {"rev_month_f", [](const SalesRow& r) { return Value::Int(r.month); }},
    {"rev_dow_f", [](const SalesRow& r) { return Value::Int(r.dow); }},
};

}  // namespace

RunResult RunFig1Brush(const RunConfig& config) {
  dvms::TpchConfig tpch;
  tpch.num_rows = kRows;
  tpch.seed = config.seed;
  tpch.first_year = kFirstYear;
  tpch.num_years = kYears;
  const dvms::Table sales = dvms::GenerateTpchSales(tpch);
  std::vector<SalesRow> facts;
  for (const dvms::Row& row : sales.rows()) facts.push_back(SalesRowFrom(row));

  std::vector<YearBand> bands;
  const double band = (kYearX1 - kYearX0) / kYears;
  for (int y = 0; y < kYears; ++y) {
    bands.push_back({kFirstYear + y, kYearX0 + y * band,
                     kYearX0 + (y + 1) * band});
  }
  auto reference = std::make_shared<std::vector<PerYearSums>>();
  for (const FilteredView& fv : kFilteredViews) {
    reference->emplace_back(facts, fv.group);
  }
  double max_total = 1;
  for (const auto& [region, sum] :
       SumBy(facts, [](const SalesRow&) { return true; },
             [](const SalesRow& r) { return Value::String(r.region); },
             [](const SalesRow& r) { return r.revenue; })) {
    max_total = std::max(max_total, sum);
  }

  // Seeded brushes: MOUSE_DOWN inside one year's band, kMoves moves to a
  // point inside another (or the same) band, MOUSE_UP there. After each
  // event the selection is every year whose band overlaps [down.x, last.x].
  dvms::Rng rng(config.seed ^ 0xb5u);
  InteractionSpec spec;
  auto ranges = std::make_shared<std::vector<std::pair<double, double>>>();
  int64_t t = 0;
  auto band_point = [&](int64_t year_index) {
    return kYearX0 + (static_cast<double>(year_index) + 0.5) * band +
           rng.Uniform(-0.3, 0.3) * band;
  };
  auto add_gesture = [&] {
    double xa = band_point(rng.UniformInt(0, kYears - 1));
    double xb = band_point(rng.UniformInt(0, kYears - 1));
    double y = rng.Uniform(20, 260);
    const int64_t moves = kMoves;
    spec.events.push_back(InputEvent::MouseDown(t += kFrameMs, xa, y));
    ranges->emplace_back(xa, xa);
    double x = xa;
    for (int64_t j = 1; j <= moves; ++j) {
      x = j == moves ? xb : xa + (xb - xa) * j / moves;
      spec.events.push_back(InputEvent::MouseMove(t += kFrameMs, x, y));
      ranges->emplace_back(xa, x);
    }
    spec.events.push_back(InputEvent::MouseUp(t += kFrameMs, x, y));
    ranges->emplace_back(xa, x);
  };
  for (int g = 0; g < kWarmupGestures; ++g) add_gesture();
  spec.warmup_events = spec.events.size();
  spec.slice_events = kSliceGestures * (kMoves + 2);
  const size_t slices = TimedSlices(config.seconds, kNominalEventsPerS,
                                    spec.slice_events);
  for (size_t g = 0; g < slices * kSliceGestures; ++g) add_gesture();

  spec.options = PinnedOptions();
  spec.options.canvas_width = 800;
  spec.options.canvas_height = 600;
  spec.options.num_threads = 1;
  spec.program = kProgram;
  spec.event_table = std::string("C");
  spec.setup_builds = kSetupBuilds;
  spec.load = [&sales, bands, max_total](dvms::Dvms& engine) {
    DVMS_RETURN_IF_ERROR(engine.CreateBaseTable("Sales", sales.schema()));
    DVMS_RETURN_IF_ERROR(engine.Insert("Sales", sales.rows()));
    DVMS_RETURN_IF_ERROR(engine.CreateBaseTable(
        "region_dim", dvms::Schema({{"region", dvms::ValueType::kString},
                                    {"idx", dvms::ValueType::kInt64}})));
    std::vector<dvms::Row> regions;
    for (size_t i = 0; i < dvms::TpchRegions().size(); ++i) {
      regions.push_back({Value::String(dvms::TpchRegions()[i]),
                         Value::Int(static_cast<int64_t>(i))});
    }
    DVMS_RETURN_IF_ERROR(engine.Insert("region_dim", regions));
    DVMS_RETURN_IF_ERROR(engine.CreateBaseTable(
        "year_bands", dvms::Schema({{"year", dvms::ValueType::kInt64},
                                    {"x0", dvms::ValueType::kDouble},
                                    {"x1", dvms::ValueType::kDouble}})));
    std::vector<dvms::Row> band_rows;
    for (const YearBand& b : bands) {
      band_rows.push_back(
          {Value::Int(b.year), Value::Double(b.x0), Value::Double(b.x1)});
    }
    DVMS_RETURN_IF_ERROR(engine.Insert("year_bands", band_rows));
    DVMS_RETURN_IF_ERROR(
        engine.CreateScale("chart_scale", 0, max_total * 1.05, 0, 240));
    return engine.LoadProgram(kProgram);
  };
  spec.check = [reference, ranges, bands](dvms::Dvms& engine,
                                          size_t i) -> std::string {
    std::vector<int64_t> years =
        SelectedYears(bands, (*ranges)[i].first, (*ranges)[i].second);
    auto selected = engine.GetTable("selected_years");
    if (!selected.ok()) return selected.status().ToString();
    std::string diff = CompareIdSet(*selected.value(), 0, years);
    if (!diff.empty()) return "selected_years: " + diff;
    for (size_t v = 0; v < std::size(kFilteredViews); ++v) {
      auto table = engine.GetTable(kFilteredViews[v].view);
      if (!table.ok()) return table.status().ToString();
      diff = CompareGroupSums(*table.value(), 0, 1,
                              (*reference)[v].Filtered(years));
      if (!diff.empty()) {
        return std::string(kFilteredViews[v].view) + ": " + diff;
      }
    }
    return "";
  };
  return RunInteraction(config, spec);
}

}  // namespace perfbench
