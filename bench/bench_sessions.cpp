// Session read throughput, serial vs concurrent: the same fixed number of
// snapshot-isolated SELECTs executed by (a) one session on one thread and
// (b) 2/4/8 sessions on as many threads, against an engine whose intra-
// query pool is pinned to 1 worker so inter-session concurrency is the
// only variable. With the read path lock-free w.r.t. other readers, a
// multi-core host should scale; the BENCH_sessions.json gate is the
// 1-core-safe no-regression form — the best concurrent throughput must be
// >= 85% of serial — with the full scalability shape recorded per thread
// count. A writer-interference section measures read throughput while a
// background thread commits continuously (readers must keep completing —
// they never wait on the write mutex).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "benchmark/benchmark.h"
#include "common/rng.h"
#include "core/dvms.h"
#include "core/session.h"
#include "json_line.h"

namespace {

using namespace dvms;
using Clock = std::chrono::steady_clock;

constexpr size_t kPoints = 20000;
constexpr int kTotalReads = 400;
const char* kReadQuery =
    "SELECT productId, revenue FROM Sales "
    "WHERE revenue < 50 ORDER BY revenue LIMIT 64";

std::unique_ptr<Dvms> MakeEngine() {
  Dvms::Options options;
  options.canvas_width = 400;
  options.canvas_height = 400;
  options.num_threads = 1;  // no intra-query parallelism: isolate sessions
  auto engine = std::make_unique<Dvms>(options);
  (void)engine->CreateBaseTable("Sales",
                                Schema({{"productId", ValueType::kInt64},
                                        {"profit", ValueType::kDouble},
                                        {"revenue", ValueType::kDouble}}));
  Rng rng(11);
  std::vector<Row> rows;
  for (size_t i = 0; i < kPoints; ++i) {
    rows.push_back({Value::Int(static_cast<int64_t>(i)),
                    Value::Double(rng.Uniform(0, 100)),
                    Value::Double(rng.Uniform(0, 100))});
  }
  (void)engine->Insert("Sales", rows);
  return engine;
}

/// Runs kTotalReads session queries split over `threads` sessions; returns
/// queries per second (0 on any failed read).
double ReadQps(Dvms* engine, int threads) {
  std::atomic<bool> ok{true};
  const int per_thread = kTotalReads / threads;
  Clock::time_point t0 = Clock::now();
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([engine, per_thread, &ok] {
      Session session(engine);
      for (int i = 0; i < per_thread; ++i) {
        if (!session.Query(kReadQuery).ok()) {
          ok.store(false);
          return;
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  double sec = std::chrono::duration<double>(Clock::now() - t0).count();
  if (!ok.load() || sec <= 0) return 0;
  return static_cast<double>(per_thread * threads) / sec;
}

void PrintSerialVsConcurrent() {
  std::printf("=== Session reads: serial vs concurrent ===\n\n");
  auto engine = MakeEngine();
  (void)ReadQps(engine.get(), 1);  // warmup
  const double serial_qps = ReadQps(engine.get(), 1);
  double best_qps = 0;
  double qps_at[9] = {0};
  for (int threads : {2, 4, 8}) {
    qps_at[threads] = ReadQps(engine.get(), threads);
    if (qps_at[threads] > best_qps) best_qps = qps_at[threads];
  }
  // 1-core hosts cannot speed up; the gate is no-regression. Multi-core
  // scalability is recorded in the per-thread-count shape.
  const bool pass = best_qps >= serial_qps * 0.85;
  std::printf("%zu rows, %d reads total, engine pool pinned to 1 worker:\n",
              kPoints, kTotalReads);
  std::printf("  serial (1 session):    %10.0f q/s\n", serial_qps);
  for (int threads : {2, 4, 8}) {
    std::printf("  concurrent x%d:         %10.0f q/s  (%.2fx)\n", threads,
                qps_at[threads], qps_at[threads] / serial_qps);
  }
  std::printf("  gate: best concurrent >= 85%% of serial -> %s\n\n",
              pass ? "OK" : "REGRESSED");
  AppendJsonLine(
      "{\"bench\": \"sessions_concurrent_reads\", \"rows\": %zu, "
      "\"reads\": %d, \"serial_qps\": %.1f, \"qps_t2\": %.1f, "
      "\"qps_t4\": %.1f, \"qps_t8\": %.1f, \"best_speedup\": %.2f, "
      "\"pass\": %s}",
      kPoints, kTotalReads, serial_qps, qps_at[2], qps_at[4], qps_at[8],
      best_qps / serial_qps, pass ? "true" : "false");
}

/// Read throughput while a writer commits continuously: sessions never
/// wait on the write mutex, so reads keep completing at a useful rate and
/// every one sees a fully-committed epoch.
void PrintWriterInterference() {
  std::printf("=== Session reads under a continuous writer ===\n\n");
  auto engine = MakeEngine();
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    int64_t id = 1'000'000;
    while (!stop.load()) {
      (void)engine->Insert("Sales", {{Value::Int(id++), Value::Double(1),
                                      Value::Double(1)}});
    }
  });
  const double qps = ReadQps(engine.get(), 4);
  stop.store(true);
  writer.join();
  const bool pass = qps > 0;
  std::printf("4 reader sessions vs 1 committing writer:\n");
  std::printf("  reads: %10.0f q/s (%s)\n\n", qps,
              pass ? "all snapshot-consistent" : "READS FAILED");
  AppendJsonLine(
      "{\"bench\": \"sessions_writer_interference\", "
      "\"reader_qps\": %.1f, \"pass\": %s}",
      qps, pass ? "true" : "false");
}

void BM_SessionQuery(benchmark::State& state) {
  auto engine = MakeEngine();
  Session session(engine.get());
  for (auto _ : state) {
    auto result = session.Query(kReadQuery);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SessionQuery);

}  // namespace

int main(int argc, char** argv) {
  PrintSerialVsConcurrent();
  PrintWriterInterference();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
