#include "driver/stats.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>

namespace perfbench {

namespace {

// 1-based nearest rank of `pct_bp` among `n` samples.
size_t Rank(size_t n, int pct_bp) {
  size_t rank = (static_cast<size_t>(pct_bp) * n + 9999) / 10000;
  return std::clamp<size_t>(rank, 1, n);
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

double Percentile(std::vector<double> samples, int pct_bp) {
  if (samples.empty()) return 0;
  size_t rank = Rank(samples.size(), pct_bp);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

std::vector<double> SliceMedians(
    const std::vector<std::vector<double>>& slices) {
  std::vector<double> medians;
  for (const std::vector<double>& slice : slices) {
    if (!slice.empty()) medians.push_back(Median(slice));
  }
  return medians;
}

std::vector<double> SliceRates(
    const std::vector<std::vector<double>>& slices_ms) {
  std::vector<double> rates;
  for (const std::vector<double>& slice : slices_ms) {
    double ms = std::accumulate(slice.begin(), slice.end(), 0.0);
    if (!slice.empty() && ms > 0) rates.push_back(slice.size() * 1000.0 / ms);
  }
  return rates;
}

double Best(const std::vector<double>& samples) {
  return samples.empty() ? 0 : *std::min_element(samples.begin(), samples.end());
}

double BestRate(const std::vector<double>& rates) {
  return rates.empty() ? 0 : *std::max_element(rates.begin(), rates.end());
}

std::vector<double> Pooled(const std::vector<std::vector<double>>& slices) {
  std::vector<double> all;
  for (const std::vector<double>& slice : slices) {
    all.insert(all.end(), slice.begin(), slice.end());
  }
  return all;
}

size_t SamplesBeyond(size_t n, int pct_bp) {
  if (n == 0) return 0;
  return n - Rank(n, pct_bp);
}

std::optional<int> HighestSupportedPercentile(size_t n, size_t min_beyond) {
  for (int bp : {9990, 9900, 9500, 9000, 7500, 5000}) {
    if (SamplesBeyond(n, bp) >= min_beyond) return bp;
  }
  return std::nullopt;
}

bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name[0]))) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.' || c == '-';
  });
}

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  if (!ValidMetricName(name) || Find(name) != nullptr) {
    std::fprintf(stderr, "perfbench: bad or duplicate metric name '%s'\n",
                 name.c_str());
    std::abort();
  }
  metrics_.push_back({name, value, unit});
}

const Metric* Metrics::Find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void RunResult::Fail(const std::string& what) {
  ++failed;
  correct = false;
  if (notes.size() < 8) notes.push_back(what);
}

std::string ResultJson(const RunResult& result) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : result.metrics.all()) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + m.name + "\": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
