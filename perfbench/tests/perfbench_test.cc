// Tests of the benchmark's own helpers: the percentile reporting rule, the
// reference calculators and comparators, metric-name validation, the stray
// DVMS_* refusal and span self times.

#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/dvms.h"
#include "core/session.h"
#include "driver/env_guard.h"
#include "driver/reference.h"
#include "driver/stats.h"
#include "driver/tracer.h"
#include "driver/util.h"
#include "gtest/gtest.h"
#include "workload/tpch.h"

namespace perfbench {
namespace {

using dvms::Value;

TEST(PercentileRule, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(Percentile(v, 5000), 50);
  EXPECT_EQ(Percentile(v, 9900), 99);
  EXPECT_EQ(Percentile(v, 10000), 100);
  EXPECT_EQ(Percentile({7}, 9900), 7);
  EXPECT_EQ(Percentile({}, 5000), 0);
  EXPECT_EQ(Median({3, 1, 2}), 2);
}

TEST(PercentileRule, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(1000, 9900), 10u);
  EXPECT_EQ(SamplesBeyond(999, 9900), 9u);
  EXPECT_EQ(HighestSupportedPercentile(1000), 9900);
  EXPECT_EQ(HighestSupportedPercentile(999), 9500);
  EXPECT_EQ(HighestSupportedPercentile(10000), 9990);
  EXPECT_EQ(HighestSupportedPercentile(200), 9500);
  EXPECT_EQ(HighestSupportedPercentile(20), 5000);
  EXPECT_FALSE(HighestSupportedPercentile(19).has_value());
  EXPECT_FALSE(HighestSupportedPercentile(0).has_value());
}

TEST(PercentileRule, BestOverSlices) {
  // Three undisturbed slices and four slowed ones: the median over slices
  // flips to the slowed mode, the best slice does not.
  std::vector<std::vector<double>> slices = {{7, 7, 8},   {11, 12, 11}, {7, 6, 7},
                                             {},          {12, 13, 12}, {7, 8, 7},
                                             {12},        {13}};
  EXPECT_EQ(SliceMedians(slices),
            (std::vector<double>{7, 11, 7, 12, 7, 12, 13}));
  EXPECT_EQ(Median(SliceMedians(slices)), 11);
  EXPECT_EQ(Best(SliceMedians(slices)), 7);
  EXPECT_EQ(Pooled(slices).size(), 17u);
  EXPECT_EQ(Best({}), 0);
  // Rates: 4 ops in 8 ms, 2 in 1 ms, 1 in 10 ms, 3 in 3 ms.
  std::vector<double> rates =
      SliceRates({{2, 2, 2, 2}, {}, {0.5, 0.5}, {10}, {1, 1, 1}});
  EXPECT_EQ(rates, (std::vector<double>{500, 2000, 100, 1000}));
  EXPECT_EQ(BestRate(rates), 2000);
  EXPECT_EQ(BestRate({}), 0);
}

TEST(CpuRotationTest, PinsOneCpuAndRestores) {
  cpu_set_t before;
  ASSERT_EQ(sched_getaffinity(0, sizeof(before), &before), 0);
  for (size_t slice = 0; slice < 3; ++slice) {
    {
      CpuRotation pin(slice);
      cpu_set_t now;
      ASSERT_EQ(sched_getaffinity(0, sizeof(now), &now), 0);
      EXPECT_EQ(CPU_COUNT(&now), CPU_COUNT(&before) > 1 ? 1 : CPU_COUNT(&before));
    }
    cpu_set_t after;
    ASSERT_EQ(sched_getaffinity(0, sizeof(after), &after), 0);
    EXPECT_TRUE(CPU_EQUAL(&after, &before));
  }
}

TEST(MetricNames, OnlyLettersDigitsUnderscoreDotDash) {
  EXPECT_TRUE(ValidMetricName("op_p50_ms"));
  EXPECT_TRUE(ValidMetricName("query.view_ms.SPLOT_POINTS"));
  EXPECT_TRUE(ValidMetricName("9-lives.x"));
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName("_lead"));
  EXPECT_FALSE(ValidMetricName(".lead"));
  EXPECT_FALSE(ValidMetricName("a b"));
  EXPECT_FALSE(ValidMetricName("rate/s"));
  EXPECT_FALSE(ValidMetricName("na\xc3\xafve"));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
  EXPECT_TRUE(ValidMetricName(std::string(64, 'a')));
}

TEST(MetricNames, ResultJsonCarriesEveryKey) {
  RunResult result;
  result.attempted = 3;
  result.metrics.Set("op_p50_ms", 1.25, "ms");
  EXPECT_EQ(ResultJson(result),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
            "\"metrics\": {\"op_p50_ms\": {\"value\": 1.25, \"unit\": "
            "\"ms\"}}}");
  result.Fail("wrong");
  EXPECT_FALSE(result.correct);
  EXPECT_EQ(result.failed, 1u);
}

TEST(EnvGuard, RefusesEveryEngineOverride) {
  for (const char* name :
       {"DVMS_THREADS", "DVMS_TRACE", "DVMS_FAULTS", "DVMS_IO_FAULTS",
        "DVMS_VECTORIZE", "DVMS_WAL_FSYNC", "DVMS_CLUSTER_SEED",
        "DVMS_CLUSTER_HEDGE_PCT", "DVMS_CLUSTER_STALENESS_FRAMES"}) {
    std::vector<std::string> stray =
        StrayDvmsVariables({"PATH=/bin", std::string(name) + "=1", "HOME=/"});
    ASSERT_EQ(stray.size(), 1u) << name;
    EXPECT_EQ(stray[0], name);
  }
  EXPECT_TRUE(StrayDvmsVariables({"PATH=/bin", "XDVMS_THREADS=2", "DVMS=1"})
                  .empty());
}

TEST(EnvGuard, ReadsTheProcessEnvironment) {
  ASSERT_EQ(setenv("DVMS_THREADS", "4", 1), 0);
  std::vector<std::string> stray = StrayDvmsVariables();
  unsetenv("DVMS_THREADS");
  ASSERT_EQ(stray.size(), 1u);
  EXPECT_EQ(stray[0], "DVMS_THREADS");
  EXPECT_TRUE(StrayDvmsVariables().empty());
}

TEST(Reference, PointsInRectIsClosedAndCornerOrderFree) {
  std::vector<ScatterPoint> points = {
      {1, 1, 1}, {2, 5, 5}, {3, 10, 10}, {4, 5, 7}};
  EXPECT_EQ(PointsInRect(points, 10, 0, 0, 6), (std::vector<int64_t>{1, 2}));
  EXPECT_EQ(PointsInRect(points, 5, 5, 6, 7), (std::vector<int64_t>{2, 4}));
  EXPECT_TRUE(PointsInRect(points, 11, 11, 12, 12).empty());
  EXPECT_DOUBLE_EQ(LinearScale(25, 0, 100, 0, 400), 100);
  EXPECT_DOUBLE_EQ(LinearScale(3, 2, 2, 7, 9), 7);
}

TEST(Reference, SelectedYearsOverlapBands) {
  std::vector<YearBand> bands = {{1992, 0, 10}, {1993, 10, 20}, {1994, 20, 30}};
  EXPECT_EQ(SelectedYears(bands, 12, 12), (std::vector<int64_t>{1993}));
  EXPECT_EQ(SelectedYears(bands, 25, 5),
            (std::vector<int64_t>{1992, 1993, 1994}));
  EXPECT_EQ(SelectedYears(bands, 10, 10), (std::vector<int64_t>{1992, 1993}));
  EXPECT_TRUE(SelectedYears(bands, 31, 40).empty());
}

std::vector<SalesRow> HandRows() {
  return {{1, "ASIA", 1992, 1, 0, 2, 10.0},
          {2, "ASIA", 1993, 2, 1, 3, 20.0},
          {3, "EUROPE", 1993, 2, 1, 4, 30.0},
          {4, "EUROPE", 1994, 3, 2, 5, 40.0},
          {5, "AFRICA", 1994, 3, 2, 6, 50.0}};
}

TEST(Reference, PerYearSumsMatchDirectSums) {
  std::vector<SalesRow> rows = HandRows();
  auto region = [](const SalesRow& r) { return Value::String(r.region); };
  PerYearSums per_year(rows, region);
  GroupSums filtered = per_year.Filtered({1993, 1994});
  GroupSums want = {{Value::String("AFRICA"), 50.0},
                    {Value::String("ASIA"), 20.0},
                    {Value::String("EUROPE"), 70.0}};
  EXPECT_EQ(filtered, want);
  EXPECT_EQ(SumBy(rows, [](const SalesRow& r) { return r.year >= 1993; },
                  region, [](const SalesRow& r) { return r.revenue; }),
            want);
  EXPECT_TRUE(per_year.Filtered({}).empty());
}

TEST(Reference, CompareGroupSumsCatchesCorruption) {
  dvms::Table got(dvms::Schema({{"region", dvms::ValueType::kString},
                                {"revenue", dvms::ValueType::kDouble}}));
  got.AppendUnchecked({Value::String("EUROPE"), Value::Double(70.0)});
  got.AppendUnchecked({Value::String("ASIA"), Value::Double(20.0 + 1e-12)});
  GroupSums want = {{Value::String("ASIA"), 20.0},
                    {Value::String("EUROPE"), 70.0}};
  EXPECT_EQ(CompareGroupSums(got, 0, 1, want), "");
  GroupSums corrupted = want;
  corrupted[Value::String("ASIA")] += 1.0;
  EXPECT_NE(CompareGroupSums(got, 0, 1, corrupted), "");
  corrupted = want;
  corrupted[Value::String("AFRICA")] = 5.0;
  EXPECT_NE(CompareGroupSums(got, 0, 1, corrupted), "");
  corrupted = want;
  corrupted.erase(Value::String("ASIA"));
  EXPECT_NE(CompareGroupSums(got, 0, 1, corrupted), "");
}

TEST(Reference, TopRevenueOrdersDescendingAndCompares) {
  std::vector<SalesRow> rows = HandRows();
  std::vector<KeyedValue> top =
      TopRevenue(rows, [](const SalesRow& r) { return r.month >= 2; }, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].key, 5);
  EXPECT_EQ(top[1].key, 4);
  dvms::Table got(dvms::Schema({{"orderkey", dvms::ValueType::kInt64},
                                {"revenue", dvms::ValueType::kDouble}}));
  got.AppendUnchecked({Value::Int(5), Value::Double(50.0)});
  got.AppendUnchecked({Value::Int(4), Value::Double(40.0)});
  EXPECT_EQ(CompareTopK(got, top), "");
  top[1].value = 41.0;
  EXPECT_NE(CompareTopK(got, top), "");
}

TEST(Reference, CompareIdSetIgnoresRowOrder) {
  dvms::Table got(dvms::Schema({{"productId", dvms::ValueType::kInt64}}));
  got.AppendUnchecked({Value::Int(9)});
  got.AppendUnchecked({Value::Int(2)});
  EXPECT_EQ(CompareIdSet(got, 0, {2, 9}), "");
  EXPECT_NE(CompareIdSet(got, 0, {2}), "");
  EXPECT_NE(CompareIdSet(got, 0, {2, 8}), "");
}

// The reference agrees with the engine on real output, and the same check
// fails once the reference is corrupted.
TEST(Reference, EngineAnswerMatchesAndCorruptedReferenceFails) {
  dvms::TpchConfig tpch;
  tpch.num_rows = 2000;
  tpch.seed = 7;
  dvms::Table sales = dvms::GenerateTpchSales(tpch);
  dvms::Dvms::Options options;
  options.num_threads = 1;
  dvms::Dvms engine(options);
  ASSERT_TRUE(engine.CreateBaseTable("Sales", sales.schema()).ok());
  ASSERT_TRUE(engine.Insert("Sales", sales.rows()).ok());
  auto got = dvms::Session(&engine).Query(
      "SELECT region, SUM(revenue) AS revenue FROM Sales "
      "WHERE year >= 1994 AND year <= 1996 GROUP BY region");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  std::vector<SalesRow> rows;
  for (const dvms::Row& row : sales.rows()) rows.push_back(SalesRowFrom(row));
  GroupSums want = SumBy(
      rows, [](const SalesRow& r) { return r.year >= 1994 && r.year <= 1996; },
      [](const SalesRow& r) { return Value::String(r.region); },
      [](const SalesRow& r) { return r.revenue; });
  EXPECT_EQ(CompareGroupSums(got.value(), 0, 1, want), "");
  want.begin()->second *= 1.001;
  EXPECT_NE(CompareGroupSums(got.value(), 0, 1, want), "");
}

TEST(TracerTest, SelfTimeIsDurationMinusChildren) {
  Tracer tracer;
  {
    Tracer::Scope root(&tracer, "interaction", 0);
    { Tracer::Scope a(&tracer, "core.push_event", 0); }
    {
      Tracer::Scope b(&tracer, "render.frame", 0);
      Tracer::Scope c(&tracer, "inner", 0);
    }
  }
  { Tracer::Scope next(&tracer, "interaction", 1); }
  const auto& spans = tracer.spans();
  ASSERT_EQ(spans.size(), 5u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, 0);
  EXPECT_EQ(spans[3].parent, 2);
  EXPECT_EQ(spans[4].parent, -1);
  EXPECT_EQ(spans[4].interaction, 1);
  auto duration = [&](size_t i) { return spans[i].end_ns - spans[i].start_ns; };
  std::vector<int64_t> self = tracer.SelfNs();
  EXPECT_EQ(self[0], duration(0) - duration(1) - duration(2));
  EXPECT_EQ(self[2], duration(2) - duration(3));
  EXPECT_EQ(self[3], duration(3));
  EXPECT_GE(self[0], 0);
  EXPECT_EQ(tracer.SelfMs("interaction").size(), 2u);
}

TEST(TracerTest, TailShareNamesThePopulationBeyondP99) {
  Tracer tracer;
  for (int op = 0; op < 100; ++op) {
    Tracer::Scope root(&tracer, "interaction", op);
    if (op == 17 || op == 60) {
      Tracer::Scope checkpoint(&tracer, "durability.checkpoint", op);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  { Tracer::Scope other(&tracer, "read", 100); }
  // Nearest-rank p99 of 100 roots is the 99th: the two slow ops and no
  // other are at or beyond it.
  EXPECT_EQ(tracer.TailShare({"interaction"}, "durability.checkpoint"), 1.0);
  EXPECT_EQ(tracer.TailShare({"interaction"}, "render.frame"), 0.0);
  double part = 0, total = 0;
  for (const Tracer::Span& span : tracer.spans()) {
    double ns = static_cast<double>(span.end_ns - span.start_ns);
    if (span.name == "durability.checkpoint") part += ns;
    if (span.name == "interaction") total += ns;
  }
  EXPECT_DOUBLE_EQ(tracer.SharePct("durability.checkpoint", {"interaction"}),
                   part / total * 100);
  EXPECT_EQ(tracer.SharePct("durability.checkpoint", {"missing"}), 0.0);
}

}  // namespace
}  // namespace perfbench
