// DVMS benchmark driver: runs one workload and prints every metric.
//
//   perfbench_driver --workload fig2_drag|fig1_brush|routed_read
//                    --seed N --seconds S --trace 0|1
//                    --work-dir DIR [--spans-out FILE]
//
// Human-readable "name value unit" lines come first; the last line of
// standard output is one JSON object with "correct", "attempted", "failed"
// and "metrics": the end-to-end metrics, or with --trace 1 the per-layer
// metrics of the layers the workload exercises. The driver refuses to run
// while a DVMS_* environment variable is set.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "driver/env_guard.h"
#include "driver/stats.h"
#include "driver/util.h"
#include "driver/workloads.h"

namespace {

using namespace perfbench;

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--spans-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      config.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else if (flag == "--spans-out") {
      config.spans_out = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || !have_seed || config.seconds < 1 ||
      config.work_dir.empty()) {
    return Usage();
  }
  std::vector<std::string> stray = StrayDvmsVariables();
  if (!stray.empty()) {
    std::string names;
    for (const std::string& name : stray) names += " " + name;
    std::fprintf(stderr,
                 "perfbench: refusing to run: these environment variables "
                 "would change the measured engine:%s\n",
                 names.c_str());
    return 3;
  }

  RunResult (*run)(const RunConfig&) = nullptr;
  if (config.workload == "fig2_drag") run = RunFig2Drag;
  if (config.workload == "fig1_brush") run = RunFig1Brush;
  if (config.workload == "routed_read") run = RunRoutedRead;
  if (run == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 config.workload.c_str());
    return 2;
  }

  ResetDir(config.work_dir);
  RunResult result = run(config);
  RemoveDir(config.work_dir);

  for (const std::string& note : result.notes) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", note.c_str());
  }
  if (result.attempted > 0) {
    std::printf("%-34s %14.6f %s\n", "error_frac",
                static_cast<double>(result.failed) / result.attempted, "ratio");
  }
  for (const Metric& m : result.metrics.all()) {
    std::printf("%-34s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%s\n", ResultJson(result).c_str());
  return 0;
}
