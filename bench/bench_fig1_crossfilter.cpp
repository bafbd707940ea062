// Figure 1: revenue breakdown with crossfilter over TPC-H-shaped data.
//
// Reproduces the chart contents (filtered vs unfiltered partitions per
// dimension) and measures per-interaction latency two ways:
//   * baseline — full recomputation of every group-by-sum view from the
//     fact table on each selection change (what the generic ViewMaintainer
//     does), and
//   * crossfilter index — precomputed 2-D marginals (query/ivm.h), the
//     optimization real crossfilter implementations use.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "benchmark/benchmark.h"
#include "common/thread_pool.h"
#include "expr/eval.h"
#include "json_line.h"
#include "parser/parser.h"
#include "parser/planner.h"
#include "query/binder.h"
#include "query/executor.h"
#include "query/ivm.h"
#include "storage/catalog.h"
#include "workload/tpch.h"

namespace {

using namespace dvms;
using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

const std::vector<std::string> kDims = {"region", "year", "month", "dow"};

/// Full-scan reference: filtered group-by-sum of every chart.
std::vector<Table> FullRecompute(const Table& fact, const ValueSet& years) {
  std::vector<Table> charts;
  size_t year_col = fact.schema().IndexOf("year").value();
  size_t measure = fact.schema().IndexOf("revenue").value();
  for (const std::string& dim : kDims) {
    if (dim == "year") continue;
    size_t dim_col = fact.schema().IndexOf(dim).value();
    std::unordered_map<Value, double, ValueHash, ValueEq> sums;
    for (const Row& row : fact.rows()) {
      if (years.count(row[year_col]) == 0) continue;
      sums[row[dim_col]] += row[measure].double_value();
    }
    Table chart(Schema({{"value", ValueType::kNull},
                        {"total", ValueType::kDouble}}));
    std::vector<std::pair<Value, double>> sorted(sums.begin(), sums.end());
    std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
      return a.first.Compare(b.first) < 0;
    });
    for (auto& [v, s] : sorted) chart.AppendUnchecked({v, Value::Double(s)});
    charts.push_back(std::move(chart));
  }
  return charts;
}

void PrintFigure1() {
  std::printf("=== Figure 1: crossfilter revenue breakdown ===\n\n");
  TpchConfig config;
  config.num_rows = 50000;
  Table fact = GenerateTpchSales(config);

  CrossfilterCube cube =
      CrossfilterCube::Build(fact, kDims, "revenue").value();
  ValueSet years;
  years.insert(Value::Int(1997));
  years.insert(Value::Int(1998));

  std::printf("selection: years {1997, 1998} over %zu rows\n\n",
              fact.num_rows());
  Table region_total = cube.GroupTotals("region").value();
  Table region_sel =
      cube.FilteredGroupSums("region", "year", years).value();
  std::printf("%-14s %16s %16s %8s\n", "region", "total revenue",
              "selected (green)", "share");
  for (size_t i = 0; i < region_total.num_rows(); ++i) {
    double total = region_total.row(i)[1].double_value();
    double sel = region_sel.row(i)[1].double_value();
    std::printf("%-14s %16.3e %16.3e %7.1f%%\n",
                region_total.row(i)[0].ToString().c_str(), total, sel,
                100.0 * sel / total);
  }

  // Correctness: the cube must agree with the full scan (up to FP
  // summation order).
  std::vector<Table> reference = FullRecompute(fact, years);
  bool ok = reference[0].num_rows() == region_sel.num_rows();
  for (size_t i = 0; ok && i < region_sel.num_rows(); ++i) {
    double a = reference[0].row(i)[1].double_value();
    double b = region_sel.row(i)[1].double_value();
    ok = reference[0].row(i)[0].Equals(region_sel.row(i)[0]) &&
         std::abs(a - b) <= 1e-6 * std::max(1.0, std::abs(a));
  }
  std::printf("\ncube vs full-scan agreement: %s\n", ok ? "OK" : "MISMATCH");

  // Latency sweep.
  std::printf("\nper-interaction latency (update all linked charts):\n");
  std::printf("%10s %18s %18s %14s %10s\n", "rows", "full recompute",
              "cube queries", "cube build", "speedup");
  for (size_t rows : {10000ul, 50000ul, 200000ul}) {
    TpchConfig c;
    c.num_rows = rows;
    Table f = GenerateTpchSales(c);

    Clock::time_point t0 = Clock::now();
    CrossfilterCube cb = CrossfilterCube::Build(f, kDims, "revenue").value();
    double build_ms = MsSince(t0);

    constexpr int kReps = 10;
    t0 = Clock::now();
    for (int r = 0; r < kReps; ++r) {
      auto charts = FullRecompute(f, years);
      benchmark::DoNotOptimize(charts);
    }
    double full_ms = MsSince(t0) / kReps;

    t0 = Clock::now();
    for (int r = 0; r < kReps; ++r) {
      for (const std::string& dim : kDims) {
        if (dim == "year") continue;
        auto chart = cb.FilteredGroupSums(dim, "year", years).value();
        benchmark::DoNotOptimize(chart);
      }
    }
    double cube_ms = MsSince(t0) / kReps;

    std::printf("%10zu %15.2f ms %15.4f ms %11.1f ms %9.0fx\n", rows, full_ms,
                cube_ms, build_ms, full_ms / cube_ms);
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

/// Morsel-driven executor, serial vs 4 threads, over the Figure 1 charts
/// expressed as SQL. Results must be bit-identical (see ExecOptions).
void PrintParallelComparison() {
  std::printf("=== Morsel-parallel executor: serial vs 4 threads ===\n\n");
  TpchConfig config;
  config.num_rows = 50000;
  Table fact = GenerateTpchSales(config);
  Catalog catalog;
  UdfRegistry udfs = UdfRegistry::WithBuiltins();
  VersionedTable* table =
      catalog.CreateTable("Sales", fact.schema(), RelationKind::kBase).value();
  (void)table->SetCurrent(Table(fact));

  const char* queries[] = {
      "SELECT region, SUM(revenue) AS revenue FROM Sales "
      "WHERE year >= 1997 AND year <= 1998 GROUP BY region",
      "SELECT month, SUM(revenue) AS revenue FROM Sales "
      "WHERE year >= 1997 AND year <= 1998 GROUP BY month",
      "SELECT dow, SUM(revenue) AS revenue FROM Sales "
      "WHERE year >= 1997 AND year <= 1998 GROUP BY dow",
      "SELECT region, revenue FROM Sales ORDER BY revenue DESC",
  };
  std::vector<PlanPtr> plans;
  for (const char* sql : queries) {
    SelectStmt stmt = ParseSelect(sql).value();
    CatalogSchemaResolver resolver(&catalog);
    Planner planner(&resolver);
    PlanPtr plan = planner.PlanSelect(stmt).value();
    Binder binder(&resolver, &udfs);
    (void)binder.Bind(plan.get());
    plans.push_back(std::move(plan));
  }

  ThreadPool pool(4);
  Executor exec(&catalog, &udfs);
  auto run_all = [&](size_t threads) {
    std::vector<Table> out;
    for (const PlanPtr& plan : plans) {
      ExecOptions opts;
      opts.num_threads = threads;
      opts.pool = &pool;
      out.push_back(
          std::move(exec.Execute(*plan, opts).value()->table));
    }
    return out;
  };

  constexpr int kReps = 10;
  std::vector<Table> serial_out = run_all(1);
  Clock::time_point t0 = Clock::now();
  for (int r = 0; r < kReps; ++r) benchmark::DoNotOptimize(run_all(1));
  double serial_ms = MsSince(t0) / kReps;
  std::vector<Table> parallel_out = run_all(4);
  t0 = Clock::now();
  for (int r = 0; r < kReps; ++r) benchmark::DoNotOptimize(run_all(4));
  double parallel_ms = MsSince(t0) / kReps;

  bool identical = serial_out.size() == parallel_out.size();
  for (size_t q = 0; identical && q < serial_out.size(); ++q) {
    identical = serial_out[q].num_rows() == parallel_out[q].num_rows();
    for (size_t i = 0; identical && i < serial_out[q].num_rows(); ++i) {
      for (size_t c = 0; identical && c < serial_out[q].row(i).size(); ++c) {
        identical = serial_out[q].row(i)[c].Equals(parallel_out[q].row(i)[c]);
      }
    }
  }
  std::printf("4 chart queries over %zu rows: serial %.2f ms, "
              "4 threads %.2f ms (%.2fx, %zu hw cores), results %s\n\n",
              fact.num_rows(), serial_ms, parallel_ms,
              serial_ms / parallel_ms, ThreadPool::DefaultThreadCount(),
              identical ? "identical" : "MISMATCH");
  AppendBenchJson("fig1_crossfilter_queries", serial_ms, parallel_ms,
                  identical);
}

void BM_CrossfilterCubeQuery(benchmark::State& state) {
  TpchConfig config;
  config.num_rows = static_cast<size_t>(state.range(0));
  Table fact = GenerateTpchSales(config);
  CrossfilterCube cube =
      CrossfilterCube::Build(fact, kDims, "revenue").value();
  ValueSet years;
  years.insert(Value::Int(1997));
  years.insert(Value::Int(1998));
  for (auto _ : state) {
    for (const std::string& dim : kDims) {
      if (dim == "year") continue;
      benchmark::DoNotOptimize(
          cube.FilteredGroupSums(dim, "year", years).value());
    }
  }
}
BENCHMARK(BM_CrossfilterCubeQuery)->Arg(10000)->Arg(100000);

void BM_CrossfilterFullScan(benchmark::State& state) {
  TpchConfig config;
  config.num_rows = static_cast<size_t>(state.range(0));
  Table fact = GenerateTpchSales(config);
  ValueSet years;
  years.insert(Value::Int(1997));
  years.insert(Value::Int(1998));
  for (auto _ : state) {
    benchmark::DoNotOptimize(FullRecompute(fact, years));
  }
}
BENCHMARK(BM_CrossfilterFullScan)->Arg(10000)->Arg(100000);

}  // namespace

int main(int argc, char** argv) {
  PrintFigure1();
  PrintParallelComparison();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
