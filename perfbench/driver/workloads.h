#ifndef PERFBENCH_DRIVER_WORKLOADS_H_
#define PERFBENCH_DRIVER_WORKLOADS_H_

#include "driver/stats.h"
#include "driver/util.h"

namespace perfbench {

/// Fig. 2 linked brushing: seeded drags over a 2,000-point scatter plot.
RunResult RunFig2Drag(const RunConfig& config);

/// Fig. 1 crossfilter: seeded year brushes over 20,000 TPC-H-shaped rows.
RunResult RunFig1Brush(const RunConfig& config);

/// Dashboard reads routed through a ClusterClient over a durable primary
/// and one WAL-tailing replica, with routed insert batches between them.
RunResult RunRoutedRead(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_WORKLOADS_H_
