#include "obs/trace.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <limits>
#include <map>
#include <mutex>
#include <utility>

#include "common/request_context.h"

namespace dvms {
namespace obs {
namespace {

std::atomic<bool> g_enabled{false};

// Small dense per-thread ids for SpanRow::thread (stable across the
// process, unlike recycled OS tids).
uint64_t ThreadId() {
  static std::atomic<uint64_t> next{1};
  thread_local uint64_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

constexpr int kHistoBuckets = 64;

// Log2-bucket histogram. Bucket 0 holds values < 1; bucket i (i >= 1)
// holds [2^(i-1), 2^i). POD on purpose: SavedState packs it bytewise.
struct Histo {
  uint64_t count = 0;
  double sum = 0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  uint64_t buckets[kHistoBuckets] = {};

  void Record(double v) {
    ++count;
    sum += v;
    min = std::min(min, v);
    max = std::max(max, v);
    ++buckets[BucketOf(v)];
  }

  static int BucketOf(double v) {
    if (!(v >= 1.0)) return 0;  // also catches NaN
    int b = 1 + static_cast<int>(std::floor(std::log2(v)));
    return std::min(b, kHistoBuckets - 1);
  }

  static double Midpoint(int b) {
    if (b == 0) return 0.5;
    double lo = std::ldexp(1.0, b - 1);
    return lo * 1.5;
  }

  // Percentile estimate from bucket midpoints, clamped to [min, max].
  double Percentile(double q) const {
    if (count == 0) return 0;
    uint64_t target = static_cast<uint64_t>(std::ceil(q * count));
    if (target < 1) target = 1;
    uint64_t seen = 0;
    for (int b = 0; b < kHistoBuckets; ++b) {
      seen += buckets[b];
      if (seen >= target) {
        return std::clamp(Midpoint(b), min, max);
      }
    }
    return max;
  }
};

struct RingSpan {
  SpanRow row;
  uint64_t seq = 0;  // completion sequence; Restore trims by this
};

struct Registry {
  std::mutex mu;
  std::map<std::string, uint64_t> counters;
  std::map<std::string, Histo> histos;
  std::deque<RingSpan> spans;
  uint64_t next_seq = 1;
  std::atomic<uint64_t> next_span_id{1};

  static Registry& Get() {
    static Registry* r = new Registry();  // leaked: outlives static dtors
    return *r;
  }
};

}  // namespace

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

void SetEnabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

bool InitFromEnv() {
  const char* v = std::getenv("DVMS_TRACE");
  if (v != nullptr) {
    std::string s(v);
    for (char& c : s) c = static_cast<char>(std::tolower(c));
    if (s == "1" || s == "true" || s == "on") SetEnabled(true);
    if (s == "0" || s == "false" || s == "off") SetEnabled(false);
  }
  return g_enabled.load(std::memory_order_relaxed);
}

void Count(const char* name, uint64_t delta) {
  if (!Enabled()) return;
  Registry& r = Registry::Get();
  std::lock_guard<std::mutex> lock(r.mu);
  r.counters[name] += delta;
}

void Observe(const char* name, double value) {
  if (!Enabled()) return;
  Registry& r = Registry::Get();
  std::lock_guard<std::mutex> lock(r.mu);
  r.histos[name].Record(value);
}

int64_t NowMicros() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

Span::Span(const char* name) {
  if (!Enabled()) return;  // inert: name_ stays nullptr
  name_ = name;
  id_ = Registry::Get().next_span_id.fetch_add(1, std::memory_order_relaxed);
  // The request's innermost live span is the parent. The RAII chain is
  // the stack: constructors push, destructors pop in LIFO order.
  parent_ = std::exchange(CurrentRequest().span, id_);
  start_us_ = NowMicros();
}

Span::~Span() {
  if (name_ == nullptr) return;
  CurrentRequest().span = parent_;
  int64_t end_us = NowMicros();
  Registry& r = Registry::Get();
  std::lock_guard<std::mutex> lock(r.mu);
  RingSpan rs;
  rs.row.id = id_;
  rs.row.parent = parent_;
  rs.row.name = name_;
  rs.row.thread = ThreadId();
  rs.row.start_us = start_us_;
  rs.row.dur_us = end_us - start_us_;
  rs.seq = r.next_seq++;
  r.spans.push_back(std::move(rs));
  if (r.spans.size() > kSpanRingCapacity) r.spans.pop_front();
}

std::vector<MetricRow> SnapshotMetrics() {
  Registry& r = Registry::Get();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<MetricRow> out;
  out.reserve(r.counters.size() + r.histos.size());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const auto& [name, value] : r.counters) {
    MetricRow m;
    m.name = name;
    m.kind = "counter";
    m.count = value;
    m.sum = static_cast<double>(value);
    m.min = m.max = m.p50 = m.p95 = m.p99 = nan;
    out.push_back(std::move(m));
  }
  for (const auto& [name, h] : r.histos) {
    MetricRow m;
    m.name = name;
    m.kind = "histogram";
    m.count = h.count;
    m.sum = h.sum;
    m.min = h.count ? h.min : nan;
    m.max = h.count ? h.max : nan;
    m.p50 = h.count ? h.Percentile(0.50) : nan;
    m.p95 = h.count ? h.Percentile(0.95) : nan;
    m.p99 = h.count ? h.Percentile(0.99) : nan;
    out.push_back(std::move(m));
  }
  std::sort(out.begin(), out.end(),
            [](const MetricRow& a, const MetricRow& b) { return a.name < b.name; });
  return out;
}

std::vector<SpanRow> SnapshotSpans() {
  Registry& r = Registry::Get();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<SpanRow> out;
  out.reserve(r.spans.size());
  for (const auto& rs : r.spans) out.push_back(rs.row);
  return out;
}

SavedState Save() {
  if (!g_enabled.load(std::memory_order_relaxed)) return {};
  Registry& r = Registry::Get();
  std::lock_guard<std::mutex> lock(r.mu);
  SavedState s;
  s.counters.reserve(r.counters.size());
  for (const auto& [name, value] : r.counters) s.counters.push_back({name, value});
  s.histos.reserve(r.histos.size());
  for (const auto& [name, h] : r.histos) {
    s.histos.push_back(
        {name, std::string(reinterpret_cast<const char*>(&h), sizeof(Histo))});
  }
  s.spans_end = r.next_seq;
  s.valid = true;
  return s;
}

void Restore(const SavedState& s) {
  if (!s.valid) return;
  Registry& r = Registry::Get();
  std::lock_guard<std::mutex> lock(r.mu);
  r.counters.clear();
  for (const auto& c : s.counters) r.counters[c.name] = c.value;
  r.histos.clear();
  for (const auto& h : s.histos) {
    Histo histo;
    if (h.payload.size() == sizeof(Histo)) {
      std::memcpy(&histo, h.payload.data(), sizeof(Histo));
    }
    r.histos[h.name] = histo;
  }
  while (!r.spans.empty() && r.spans.back().seq >= s.spans_end) {
    r.spans.pop_back();
  }
  r.next_seq = s.spans_end;
}

void ResetForTesting() {
  Registry& r = Registry::Get();
  std::lock_guard<std::mutex> lock(r.mu);
  r.counters.clear();
  r.histos.clear();
  r.spans.clear();
  r.next_seq = 1;
}

}  // namespace obs
}  // namespace dvms
