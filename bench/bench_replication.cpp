// Replication cost model: how fast a replica applies a primary's committed
// WAL (vs the primary's own commit rate), the steady-state lag while both
// run, how long failover promotion takes, and whether injected tailer
// faults cost anything beyond lag. Gates are 1-core-safe: the replica must
// converge to the primary's final LSN (lag 0 after quiesce), promotion must
// yield a writable engine, and rate-0.2 replication faults must only slow
// the tail, never break convergence. The google-benchmark section measures
// the caught-up poll — the idle cost a replica pays per cadence tick.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "benchmark/benchmark.h"
#include "common/fault.h"
#include "common/rng.h"
#include "core/dvms.h"
#include "durability/tailer.h"
#include "durability/wal.h"
#include "json_line.h"

namespace {

using namespace dvms;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

constexpr int kFrames = 400;  // committed ops per section

/// A fresh directory under the system temp root, removed on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    static int counter = 0;
    path_ = fs::temp_directory_path() /
            ("dvms_bench_repl_" + tag + "_" + std::to_string(::getpid()) +
             "_" + std::to_string(counter++));
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

Dvms::Options PrimaryOptions(const std::string& dir) {
  Dvms::Options options;
  options.canvas_width = 100;
  options.canvas_height = 100;
  options.num_threads = 1;
  options.data_dir = dir;
  options.wal_fsync = "batch";  // group commit: realistic commit rate
  options.snapshot_interval = 128;
  return options;
}

Dvms::Options ReplicaOptions(const std::string& dir) {
  Dvms::Options options;
  options.canvas_width = 100;
  options.canvas_height = 100;
  options.num_threads = 1;
  options.replica_of = dir;
  options.replica_poll_ms = 1;
  return options;
}

std::unique_ptr<Dvms> MakePrimary(const std::string& dir) {
  auto engine = std::make_unique<Dvms>(PrimaryOptions(dir));
  (void)engine->CreateBaseTable("Sales",
                                Schema({{"productId", ValueType::kInt64},
                                        {"profit", ValueType::kDouble},
                                        {"revenue", ValueType::kDouble}}));
  return engine;
}

/// Commits `frames` single-row inserts and returns the commit rate in
/// frames/s (0 on any failure).
double DriveCommits(Dvms* primary, int frames, int64_t id_base) {
  Rng rng(17);
  Clock::time_point t0 = Clock::now();
  for (int i = 0; i < frames; ++i) {
    Status st = primary->Insert(
        "Sales", {{Value::Int(id_base + i), Value::Double(rng.Uniform(0, 100)),
                   Value::Double(rng.Uniform(0, 100))}});
    if (!st.ok()) return 0;
  }
  if (!primary->FlushWal().ok()) return 0;
  double sec = std::chrono::duration<double>(Clock::now() - t0).count();
  return sec > 0 ? frames / sec : 0;
}

/// Primary commits kFrames while the replica tails live; then the primary
/// quiesces and we time the replica draining to lag 0.
void PrintTailThroughput() {
  std::printf("=== Replication: tail throughput and steady-state lag ===\n\n");
  TempDir dir("tail");
  auto primary = MakePrimary(dir.str());
  auto replica = std::make_unique<Dvms>(ReplicaOptions(dir.str()));

  uint64_t max_live_lag = 0;
  std::atomic<bool> done{false};
  std::thread lag_probe([&] {
    // Sample live lag from the replica's own system relation while the
    // primary commits — the observability the operator would watch.
    while (!done.load()) {
      Dvms::ReplicationStats s = replica->replication_stats();
      if (s.lag_frames > max_live_lag) max_live_lag = s.lag_frames;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  const double primary_fps = DriveCommits(primary.get(), kFrames, 1000);
  done.store(true);
  lag_probe.join();

  const uint64_t target = primary->wal_lsn();
  Clock::time_point t0 = Clock::now();
  const uint64_t applied = replica->WaitForReplicaLsn(target, 60000);
  const double catchup_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  Dvms::ReplicationStats stats = replica->replication_stats();
  const double replica_fps =
      stats.frames_applied > 0 && primary_fps > 0
          ? static_cast<double>(stats.frames_applied) /
                (kFrames / primary_fps + catchup_ms / 1000.0)
          : 0;
  const bool pass =
      primary_fps > 0 && applied >= target && stats.lag_frames == 0;

  std::printf("%d committed frames (fsync=batch), replica polling at 1ms:\n",
              kFrames);
  std::printf("  primary commit rate:   %10.0f frames/s\n", primary_fps);
  std::printf("  replica apply rate:    %10.0f frames/s (%" PRIu64
              " frames via tail)\n",
              replica_fps, stats.frames_applied);
  std::printf("  max lag while live:    %10" PRIu64 " frames\n", max_live_lag);
  std::printf("  drain after quiesce:   %10.1f ms\n", catchup_ms);
  std::printf("  final lag:             %10" PRIu64 " frames -> %s\n\n",
              stats.lag_frames, pass ? "OK" : "DIVERGED");
  AppendJsonLine(
      "{\"bench\": \"replication_tail_throughput\", \"frames\": %d, "
      "\"primary_fps\": %.1f, \"replica_fps\": %.1f, \"max_live_lag\": %llu, "
      "\"catchup_ms\": %.1f, \"final_lag\": %llu, \"pass\": %s}",
      kFrames, primary_fps, replica_fps,
      static_cast<unsigned long long>(max_live_lag), catchup_ms,
      static_cast<unsigned long long>(stats.lag_frames),
      pass ? "true" : "false");
}

/// Failover: primary gone, replica promotes. Times the whole takeover —
/// seal the tail, re-open the log for append, re-render — and proves the
/// promoted engine accepts writes.
void PrintPromotionTime() {
  std::printf("=== Replication: failover promotion ===\n\n");
  TempDir dir("promote");
  uint64_t target = 0;
  {
    auto primary = MakePrimary(dir.str());
    if (DriveCommits(primary.get(), kFrames, 2000) == 0) return;
    target = primary->wal_lsn();
  }  // primary destroyed: simulated failure

  auto replica = std::make_unique<Dvms>(ReplicaOptions(dir.str()));
  replica->WaitForReplicaLsn(target, 60000);
  Clock::time_point t0 = Clock::now();
  Status promoted = replica->Promote();
  const double promote_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  const bool writable =
      promoted.ok() &&
      replica
          ->Insert("Sales",
                   {{Value::Int(1), Value::Double(1), Value::Double(1)}})
          .ok();
  const bool pass = promoted.ok() && writable;
  std::printf("replica at lsn %" PRIu64 ", primary dead:\n", target);
  std::printf("  promotion:             %10.1f ms\n", promote_ms);
  std::printf("  accepts writes:        %10s\n\n", pass ? "yes" : "NO");
  AppendJsonLine(
      "{\"bench\": \"replication_promotion\", \"frames\": %d, "
      "\"promote_ms\": %.1f, \"writable\": %s, \"pass\": %s}",
      kFrames, promote_ms, writable ? "true" : "false",
      pass ? "true" : "false");
}

/// Transient tailer faults (rate 0.2 at the replication site) cost lag and
/// retries only: the replica still converges to the identical LSN.
void PrintFaultedTail() {
  std::printf("=== Replication: tailing under injected faults ===\n\n");
  TempDir dir("faulted");
  auto primary = MakePrimary(dir.str());
  auto replica = std::make_unique<Dvms>(ReplicaOptions(dir.str()));

  uint64_t target = 0;
  uint64_t applied = 0;
  uint64_t poll_errors = 0;
  {
    FaultConfig config;
    config.seed = 20260808;
    config.rate = 0.2;
    config.site_mask = 1u << static_cast<uint32_t>(FaultSite::kReplication);
    ScopedFaultInjector faults(config);
    if (DriveCommits(primary.get(), kFrames, 3000) == 0) return;
    target = primary->wal_lsn();
    applied = replica->WaitForReplicaLsn(target, 60000);
    poll_errors = replica->replication_stats().poll_errors;
  }
  const bool converged = applied >= target;
  const bool pass = converged;  // faults may only slow the tail, not stop it
  std::printf("%d frames with 20%% of tailer reads failing:\n", kFrames);
  std::printf("  poll errors absorbed:  %10llu\n",
              static_cast<unsigned long long>(poll_errors));
  std::printf("  converged to lsn %" PRIu64 ":  %10s\n\n", target,
              pass ? "yes" : "NO");
  AppendJsonLine(
      "{\"bench\": \"replication_faulted_tail\", \"frames\": %d, "
      "\"fault_rate\": 0.2, \"poll_errors\": %llu, \"converged\": %s, "
      "\"pass\": %s}",
      kFrames, static_cast<unsigned long long>(poll_errors),
      converged ? "true" : "false", pass ? "true" : "false");
}

/// The per-tick cost of a caught-up replica: one Poll() that finds nothing.
void BM_CaughtUpPoll(benchmark::State& state) {
  TempDir dir("poll");
  {
    auto primary = MakePrimary(dir.str());
    (void)DriveCommits(primary.get(), 64, 4000);
  }
  RecoveredLog log = ReadLogReadOnly(dir.str()).value();
  uint64_t end = log.has_snapshot ? log.snapshot_lsn : 0;
  if (!log.frames.empty()) end = log.frames.back().lsn;
  WalTailer tailer(dir.str(), end);
  for (auto _ : state) {
    auto polled = tailer.Poll();
    benchmark::DoNotOptimize(polled);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CaughtUpPoll);

}  // namespace

int main(int argc, char** argv) {
  PrintTailThroughput();
  PrintPromotionTime();
  PrintFaultedTail();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
