#ifndef PERFBENCH_DRIVER_ENV_GUARD_H_
#define PERFBENCH_DRIVER_ENV_GUARD_H_

#include <string>
#include <vector>

namespace perfbench {

/// The engine reads DVMS_* environment variables as overrides (thread
/// count, tracing, fault injection, vectorization, fsync mode, cluster
/// routing knobs, ...). Any of them would change the measured program, so
/// the benchmark refuses to run while one is set. `entries` holds
/// "NAME=value" strings; the result lists the offending names in order.
std::vector<std::string> StrayDvmsVariables(
    const std::vector<std::string>& entries);

/// The same check over the current process environment.
std::vector<std::string> StrayDvmsVariables();

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_ENV_GUARD_H_
