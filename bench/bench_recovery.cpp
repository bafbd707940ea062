// Durability cost and recovery speed: (1) interaction throughput with the
// interaction log at each DVMS_WAL_FSYNC group-commit setting — off / batch
// / always — against the no-durability engine, and (2) cold-start recovery
// time for a logged interaction session, replayed from the log alone and
// from a snapshot plus log suffix.

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "benchmark/benchmark.h"
#include "common/rng.h"
#include "core/dvms.h"
#include "json_line.h"

namespace {

using namespace dvms;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

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

/// A scratch durability directory, removed on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    static int counter = 0;
    path_ = fs::temp_directory_path() /
            ("dvms_bench_" + tag + "_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++));
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

std::unique_ptr<Dvms> MakeEngine(size_t points, const std::string& data_dir,
                                 const std::string& fsync,
                                 size_t snapshot_interval = 0) {
  Dvms::Options options;
  options.canvas_width = 400;
  options.canvas_height = 400;
  options.num_threads = 1;
  options.data_dir = data_dir;
  options.wal_fsync = fsync;
  options.snapshot_interval = snapshot_interval;
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

/// One drag interaction plus an insert: 23 logged mutation units.
size_t DriveRound(Dvms* engine, int64_t t_base) {
  (void)engine->PushEvent(InputEvent::MouseDown(t_base, 10, 10));
  for (int m = 1; m <= 20; ++m) {
    (void)engine->PushEvent(
        InputEvent::MouseMove(t_base + m, 10.0 + m * 15, 10.0 + m * 15));
  }
  (void)engine->PushEvent(InputEvent::MouseUp(t_base + 21, 310, 310));
  (void)engine->Insert(
      "Sales", {{Value::Int(t_base + 1000000), Value::Double(50),
                 Value::Double(50)}});
  return 23;
}

/// Interaction throughput per fsync mode. "none" is the no-durability
/// engine — the logging ceiling.
void PrintFsyncModeThroughput() {
  std::printf("=== Interaction log throughput by DVMS_WAL_FSYNC ===\n\n");
  constexpr size_t kPoints = 5000;
  constexpr int kRounds = 8;

  struct Arm {
    const char* mode;
    bool durable;
  };
  for (const Arm& arm : {Arm{"none", false}, Arm{"off", true},
                         Arm{"batch", true}, Arm{"always", true}}) {
    TempDir dir(std::string("fsync_") + arm.mode);
    auto engine =
        MakeEngine(kPoints, arm.durable ? dir.str() : "", arm.mode);
    if (engine == nullptr) {
      std::printf("program failed to load\n");
      return;
    }
    (void)DriveRound(engine.get(), 0);  // warmup
    size_t ops = 0;
    Clock::time_point t0 = Clock::now();
    for (int round = 1; round <= kRounds; ++round) {
      ops += DriveRound(engine.get(), round * 100);
    }
    double secs = std::chrono::duration<double>(Clock::now() - t0).count();
    double ops_per_sec = static_cast<double>(ops) / secs;
    uint64_t fsyncs = engine->durability_stats().fsyncs;
    std::printf("  %-7s %10.0f ops/sec  (%zu ops, %llu fsyncs)\n", arm.mode,
                ops_per_sec, ops, static_cast<unsigned long long>(fsyncs));
    AppendJsonLine(
        "{\"bench\": \"recovery_fsync_throughput\", \"mode\": \"%s\", "
        "\"ops\": %zu, \"ops_per_sec\": %.1f, \"fsyncs\": %llu}",
        arm.mode, ops, ops_per_sec,
        static_cast<unsigned long long>(fsyncs));
  }
  std::printf("\n");
}

/// Cold-start recovery latency: pure log replay vs snapshot + suffix.
void PrintRecoveryTime() {
  std::printf("=== Cold-start recovery time ===\n\n");
  constexpr size_t kPoints = 5000;
  constexpr int kRounds = 8;

  struct Arm {
    const char* label;
    size_t snapshot_interval;  // 0 = log replay only
  };
  for (const Arm& arm :
       {Arm{"log_replay", 0}, Arm{"snapshot_plus_suffix", 64}}) {
    TempDir dir(std::string("recover_") + arm.label);
    size_t ops = 0;
    {
      auto engine =
          MakeEngine(kPoints, dir.str(), "off", arm.snapshot_interval);
      if (engine == nullptr) return;
      for (int round = 0; round < kRounds; ++round) {
        ops += DriveRound(engine.get(), round * 100);
      }
    }
    Clock::time_point t0 = Clock::now();
    auto recovered = std::make_unique<Dvms>([&] {
      Dvms::Options options;
      options.canvas_width = 400;
      options.canvas_height = 400;
      options.num_threads = 1;
      options.data_dir = dir.str();
      options.wal_fsync = "off";
      options.snapshot_interval = arm.snapshot_interval;
      return options;
    }());
    double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    const DurabilityStats stats = recovered->durability_stats();
    bool ok = recovered->recovery_status().ok();
    std::printf(
        "  %-22s %8.2f ms  (%llu frames replayed, snapshot=%s) -> %s\n",
        arm.label, ms,
        static_cast<unsigned long long>(stats.frames_replayed),
        stats.recovered_from_snapshot ? "yes" : "no", ok ? "OK" : "FAILED");
    AppendJsonLine(
        "{\"bench\": \"recovery_cold_start\", \"arm\": \"%s\", "
        "\"logged_ops\": %zu, \"recovery_ms\": %.3f, "
        "\"frames_replayed\": %llu, \"from_snapshot\": %s, \"ok\": %s}",
        arm.label, ops, ms,
        static_cast<unsigned long long>(stats.frames_replayed),
        stats.recovered_from_snapshot ? "true" : "false",
        ok ? "true" : "false");
  }
  std::printf("\n");
}

void BM_PushEventDurable(benchmark::State& state) {
  static const char* kModes[] = {"off", "batch", "always"};
  const char* mode = kModes[state.range(0)];
  TempDir dir(std::string("bm_") + mode);
  auto engine = MakeEngine(2000, dir.str(), mode);
  (void)engine->PushEvent(InputEvent::MouseDown(0, 10, 10));
  int64_t t = 1;
  double x = 11;
  for (auto _ : state) {
    (void)engine->PushEvent(InputEvent::MouseMove(t++, x, x));
    x = x < 390 ? x + 1 : 11;
  }
  state.SetLabel(mode);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PushEventDurable)->Arg(0)->Arg(1)->Arg(2);

}  // namespace

int main(int argc, char** argv) {
  PrintFsyncModeThroughput();
  PrintRecoveryTime();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
