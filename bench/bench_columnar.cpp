// Columnar storage and vectorized execution: the Figure 1 crossfilter
// chart queries over TPC-H-shaped data, executed twice through the same
// morsel-driven executor — once via the row-at-a-time interpreter
// (ExecOptions::vectorize = false, the pre-columnar baseline) and once via
// the typed column kernels. Results must be bit-identical; the vectorized
// path must clear a 2x speedup gate. The same binary compares snapshot
// encoding sizes: the columnar format (typed payloads + local dictionary)
// against the legacy row-wise format.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "benchmark/benchmark.h"
#include "common/thread_pool.h"
#include "durability/codec.h"
#include "json_line.h"
#include "parser/parser.h"
#include "parser/planner.h"
#include "query/binder.h"
#include "query/executor.h"
#include "storage/catalog.h"
#include "workload/tpch.h"

namespace {

using namespace dvms;
using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// BENCH_columnar.json lines (see json_line.h).
void AppendBenchJson(const char* bench, double row_ms, double vec_ms,
                     bool identical, bool pass) {
  AppendJsonLine(
      "{\"bench\": \"%s\", \"row_ms\": %.4f, \"vec_ms\": %.4f, "
      "\"speedup\": %.2f, \"identical\": %s, \"pass\": %s}",
      bench, row_ms, vec_ms, row_ms / vec_ms, identical ? "true" : "false",
      pass ? "true" : "false");
}

void AppendSnapshotJson(size_t columnar_bytes, size_t legacy_bytes,
                        bool pass) {
  AppendJsonLine(
      "{\"bench\": \"snapshot_size\", \"columnar_bytes\": %zu, "
      "\"legacy_bytes\": %zu, \"reduction\": %.2f, \"pass\": %s}",
      columnar_bytes, legacy_bytes,
      1.0 - static_cast<double>(columnar_bytes) /
                static_cast<double>(legacy_bytes),
      pass ? "true" : "false");
}

bool TablesEqual(const std::vector<Table>& a, const std::vector<Table>& b) {
  if (a.size() != b.size()) return false;
  for (size_t q = 0; q < a.size(); ++q) {
    if (a[q].num_rows() != b[q].num_rows()) return false;
    for (size_t i = 0; i < a[q].num_rows(); ++i) {
      const Row& ra = a[q].row(i);
      const Row& rb = b[q].row(i);
      if (ra.size() != rb.size()) return false;
      for (size_t c = 0; c < ra.size(); ++c) {
        if (ra[c].type() != rb[c].type()) return false;
        if (ra[c].Compare(rb[c]) != 0) return false;
      }
    }
  }
  return true;
}

/// The Figure 1 crossfilter charts as SQL: three filtered group-by-sum
/// views plus the ranked-detail sort, row path vs vectorized kernels.
void RunCrossfilterComparison() {
  std::printf("=== Columnar kernels vs row interpreter (Figure 1 charts) ===\n\n");
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

  Executor exec(&catalog, &udfs);
  auto run_all = [&](bool vectorize) {
    std::vector<Table> out;
    for (const PlanPtr& plan : plans) {
      ExecOptions opts;
      opts.vectorize = vectorize;
      opts.num_threads = 1;
      out.push_back(std::move(exec.Execute(*plan, opts).value()->table));
    }
    return out;
  };

  // Warm both paths (row-view cache, dictionary) before timing.
  std::vector<Table> row_out = run_all(false);
  std::vector<Table> vec_out = run_all(true);
  bool identical = TablesEqual(row_out, vec_out);

  constexpr int kReps = 20;
  Clock::time_point t0 = Clock::now();
  for (int r = 0; r < kReps; ++r) benchmark::DoNotOptimize(run_all(false));
  double row_ms = MsSince(t0) / kReps;
  t0 = Clock::now();
  for (int r = 0; r < kReps; ++r) benchmark::DoNotOptimize(run_all(true));
  double vec_ms = MsSince(t0) / kReps;

  double speedup = row_ms / vec_ms;
  bool pass = identical && speedup >= 2.0;
  std::printf("4 chart queries over %zu rows: row path %.2f ms, "
              "vectorized %.2f ms (%.2fx), results %s\n\n",
              fact.num_rows(), row_ms, vec_ms, speedup,
              identical ? "identical" : "MISMATCH");
  AppendBenchJson("fig1_crossfilter_columnar", row_ms, vec_ms, identical,
                  pass);
}

/// Snapshot bytes for the same fact table, columnar vs legacy row format.
void RunSnapshotSizeComparison() {
  std::printf("=== Snapshot encoding: columnar vs legacy row format ===\n\n");
  TpchConfig config;
  config.num_rows = 50000;
  Table fact = GenerateTpchSales(config);

  BinaryWriter columnar;
  EncodeTable(fact, &columnar);
  BinaryWriter legacy;
  EncodeTableLegacy(fact, &legacy);

  // Decode sanity: the columnar bytes reproduce every row.
  BinaryReader r(columnar.data());
  auto decoded = DecodeTable(&r);
  bool roundtrip = decoded.ok() && decoded.value().SameContents(fact);

  bool pass = roundtrip && columnar.size() < legacy.size();
  std::printf("%zu rows: columnar %zu bytes, legacy %zu bytes "
              "(%.1f%% smaller), round-trip %s\n\n",
              fact.num_rows(), columnar.size(), legacy.size(),
              100.0 * (1.0 - static_cast<double>(columnar.size()) /
                                 static_cast<double>(legacy.size())),
              roundtrip ? "OK" : "MISMATCH");
  AppendSnapshotJson(columnar.size(), legacy.size(), pass);
}

void BM_VectorizedCrossfilterQuery(benchmark::State& state) {
  TpchConfig config;
  config.num_rows = static_cast<size_t>(state.range(0));
  Table fact = GenerateTpchSales(config);
  Catalog catalog;
  UdfRegistry udfs = UdfRegistry::WithBuiltins();
  VersionedTable* table =
      catalog.CreateTable("Sales", fact.schema(), RelationKind::kBase).value();
  (void)table->SetCurrent(Table(fact));
  SelectStmt stmt =
      ParseSelect(
          "SELECT region, SUM(revenue) AS revenue FROM Sales "
          "WHERE year >= 1997 AND year <= 1998 GROUP BY region")
          .value();
  CatalogSchemaResolver resolver(&catalog);
  Planner planner(&resolver);
  PlanPtr plan = planner.PlanSelect(stmt).value();
  Binder binder(&resolver, &udfs);
  (void)binder.Bind(plan.get());
  Executor exec(&catalog, &udfs);
  const bool vectorize = state.range(1) != 0;
  for (auto _ : state) {
    ExecOptions opts;
    opts.vectorize = vectorize;
    opts.num_threads = 1;
    benchmark::DoNotOptimize(exec.Execute(*plan, opts).value());
  }
}
BENCHMARK(BM_VectorizedCrossfilterQuery)
    ->Args({50000, 0})
    ->Args({50000, 1})
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  RunCrossfilterComparison();
  RunSnapshotSizeComparison();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
