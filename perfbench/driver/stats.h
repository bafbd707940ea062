#ifndef PERFBENCH_DRIVER_STATS_H_
#define PERFBENCH_DRIVER_STATS_H_

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the value at 1-based rank ceil(pct/100 * n) of
/// the ascending samples. `pct_bp` is the percentile in basis points
/// (9900 = p99) so ranks are computed in exact integer arithmetic. Returns
/// 0 for an empty sample.
double Percentile(std::vector<double> samples, int pct_bp);

/// Median (nearest-rank p50).
inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 5000);
}

/// Each slice's median; empty slices are skipped.
std::vector<double> SliceMedians(const std::vector<std::vector<double>>& slices);

/// Each slice's rate in ops per second: its sample count over the sum of its
/// latencies in ms. Empty slices are skipped.
std::vector<double> SliceRates(const std::vector<std::vector<double>>& slices_ms);

/// How a run reports a time it measured many times over (per-slice
/// medians, recovery opens, setup builds): the best one, the least slowed
/// by the host; 0 for no samples. A neighbour's load slows one of the
/// host's CPUs by up to 2x for seconds to minutes, so a run's samples mix
/// an undisturbed mode and disturbed ones in shares that change from run
/// to run and over the day. The median, and even the first quartile,
/// follow those shares; the best of many samples spread over every CPU and
/// the whole run stays in the undisturbed mode, and a change to the engine
/// moves it as it moves the median.
double Best(const std::vector<double>& samples);
/// The same for a rate, where higher is better: the largest.
double BestRate(const std::vector<double>& rates);

/// All samples of all slices, in order.
std::vector<double> Pooled(const std::vector<std::vector<double>>& slices);

/// Samples strictly above the nearest-rank position of `pct_bp` in `n`.
size_t SamplesBeyond(size_t n, int pct_bp);

/// The reporting rule for tails: the highest of p99.9, p99, p95, p90, p75
/// and p50 (in basis points) that has at least `min_beyond` samples beyond
/// it among `n`; nullopt when not even the median does.
std::optional<int> HighestSupportedPercentile(size_t n, size_t min_beyond = 10);

/// True when `name` is a legal metric name: 1 to 64 characters from
/// [A-Za-z0-9_.-], starting with a letter or digit.
bool ValidMetricName(const std::string& name);

/// One printed metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Ordered metric set of one run. Names are validated on insertion; a bad
/// or duplicate name is a programming error and aborts the run.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& all() const { return metrics_; }
  const Metric* Find(const std::string& name) const;

 private:
  std::vector<Metric> metrics_;
};

/// Outcome of one workload run.
struct RunResult {
  bool correct = true;
  size_t attempted = 0;  // ops the client issued (warm-up and timed)
  size_t failed = 0;     // ops that errored or returned a wrong result
  Metrics metrics;
  std::vector<std::string> notes;  // check failures and other diagnostics

  /// Records one failed or wrong op; keeps the first few messages.
  void Fail(const std::string& what);
};

/// `{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`
/// with every metric as {"value": v, "unit": u}; values keep 17 digits.
std::string ResultJson(const RunResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_STATS_H_
