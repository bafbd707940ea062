#include "driver/util.h"

#include <pthread.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>

#include "driver/reference.h"

namespace perfbench {

namespace fs = std::filesystem;

dvms::Dvms::Options PinnedOptions() {
  dvms::Dvms::Options options;
  options.wal_fsync = "batch";
  options.snapshot_interval = kSnapshotFrames;
  options.scrub_ms = 0;
  options.trace = false;
  options.capture_lineage = false;
  return options;
}

void ResetDir(const std::string& dir) {
  RemoveDir(dir);
  fs::create_directories(dir);
}

void RemoveDir(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
}

bool CopyDir(const std::string& from, const std::string& to) {
  std::error_code ec;
  fs::remove_all(to, ec);
  fs::create_directories(to, ec);
  if (ec) return false;
  for (const auto& entry : fs::directory_iterator(from, ec)) {
    if (!entry.is_regular_file()) continue;
    const fs::path dest = to / entry.path().filename();
    // Snapshots are written once (temp file + rename) and never modified,
    // so a hard link is as good as a copy and spares the disk a rewrite of
    // tens of MiB per recovery open. Log segments are appended to: copy.
    if (entry.path().extension() == ".snap") {
      fs::create_hard_link(entry.path(), dest, ec);
      if (!ec) continue;
    }
    fs::copy_file(entry.path(), dest, ec);
    if (ec) return false;
  }
  return !ec;
}

namespace {

bool IsDurableFile(const std::string& name) {
  auto ends_with = [&](const char* suffix) {
    size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  return (name.rfind("wal-", 0) == 0 && ends_with(".log")) ||
         (name.rfind("snapshot-", 0) == 0 && ends_with(".snap"));
}

}  // namespace

uint64_t DurableBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file() &&
        IsDurableFile(entry.path().filename().string())) {
      bytes += entry.file_size();
    }
  }
  return bytes;
}

uint64_t NewestSnapshotBytes(const std::string& dir) {
  auto snaps = dvms::ListWalSnapshots(dir);
  if (!snaps.ok() || snaps.value().empty()) return 0;
  std::error_code ec;
  uintmax_t size =
      fs::file_size(dvms::WalSnapshotPath(dir, snaps.value().back()), ec);
  return ec ? 0 : size;
}

CpuRotation::CpuRotation(size_t slice) {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  const int count = CPU_COUNT(&allowed);
  if (count < 2) return;
  int target = static_cast<int>(slice % static_cast<size_t>(count));
  int cpu = 0;
  for (; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed) && target-- == 0) break;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  saved_ = allowed;
  pinned_ = pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0;
}

CpuRotation::~CpuRotation() {
  if (pinned_) pthread_setaffinity_np(pthread_self(), sizeof(saved_), &saved_);
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

std::string CompareEngineState(dvms::Dvms& got, dvms::Dvms& want) {
  for (const std::string& name : want.catalog()->Names()) {
    auto kind = want.catalog()->KindOf(name);
    if (!kind.ok() || kind.value() == dvms::RelationKind::kSystem) continue;
    auto want_table = want.GetTable(name);
    auto got_table = got.GetTable(name);
    if (!want_table.ok() || !got_table.ok()) {
      return "relation " + name + " missing";
    }
    std::string diff = CompareTables(*got_table.value(), *want_table.value());
    if (!diff.empty()) return "relation " + name + ": " + diff;
  }
  if (!got.pixels().Equals(want.pixels())) return "pixels differ";
  return "";
}

double TimedRecovery(dvms::Dvms::Options options, const std::string& dir,
                     const std::string& copy, dvms::Dvms* live,
                     RunResult* result, uint64_t* replayed) {
  if (!CopyDir(dir, copy)) {
    result->Fail("could not copy " + dir);
    return 0;
  }
  options.data_dir = copy;
  Clock::time_point start = Clock::now();
  auto recovered = std::make_unique<dvms::Dvms>(options);
  double seconds = MsSince(start) / 1000.0;
  if (!recovered->recovery_status().ok()) {
    result->Fail("recovery: " + recovered->recovery_status().ToString());
  } else if (live != nullptr) {
    std::string diff = CompareEngineState(*recovered, *live);
    if (!diff.empty()) result->Fail("recovered engine: " + diff);
  }
  if (replayed != nullptr) {
    *replayed = recovered->durability_stats().frames_replayed;
  }
  recovered.reset();
  RemoveDir(copy);
  return seconds;
}

}  // namespace perfbench
