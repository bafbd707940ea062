#include "driver/tracer.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <unordered_set>

#include "driver/stats.h"

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t Tracer::Begin(const std::string& name, int64_t interaction) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.interaction = interaction;
  spans_.push_back(std::move(span));
  int64_t id = static_cast<int64_t>(spans_.size()) - 1;
  open_.push_back(id);
  spans_.back().start_ns = NowNs();
  return id;
}

void Tracer::End(int64_t id) {
  int64_t now = NowNs();
  if (open_.empty() || open_.back() != id) {
    std::fprintf(stderr, "perfbench: span %lld closed out of order\n",
                 static_cast<long long>(id));
    std::abort();
  }
  open_.pop_back();
  spans_[static_cast<size_t>(id)].end_ns = now;
}

std::vector<int64_t> Tracer::SelfNs() const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  // Children of one parent run one after another on a single thread, so
  // the covered part is the sum of their durations.
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      self[static_cast<size_t>(span.parent)] -= span.end_ns - span.start_ns;
    }
  }
  return self;
}

std::vector<double> Tracer::SelfMs(const std::string& name) const {
  std::vector<int64_t> self = SelfNs();
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) out.push_back(self[i] / 1e6);
  }
  return out;
}

std::vector<double> Tracer::DurationMs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back((span.end_ns - span.start_ns) / 1e6);
  }
  return out;
}

namespace {

bool Named(const std::vector<std::string>& names, const std::string& name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

}  // namespace

double Tracer::SharePct(const std::string& part,
                        const std::vector<std::string>& roots) const {
  double part_ns = 0, root_ns = 0;
  for (const Span& span : spans_) {
    if (span.name == part) part_ns += span.end_ns - span.start_ns;
    if (span.parent < 0 && Named(roots, span.name)) {
      root_ns += span.end_ns - span.start_ns;
    }
  }
  return root_ns > 0 ? part_ns / root_ns * 100 : 0;
}

double Tracer::TailShare(const std::vector<std::string>& roots,
                         const std::string& child) const {
  std::unordered_set<int64_t> with_child;
  for (const Span& span : spans_) {
    if (span.name == child && span.parent >= 0) with_child.insert(span.parent);
  }
  std::vector<double> durations;
  for (const Span& span : spans_) {
    if (span.parent < 0 && Named(roots, span.name)) {
      durations.push_back(static_cast<double>(span.end_ns - span.start_ns));
    }
  }
  const double p99 = Percentile(durations, 9900);
  size_t tail = 0, hits = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.parent < 0 && Named(roots, span.name) &&
        span.end_ns - span.start_ns >= p99) {
      ++tail;
      hits += with_child.count(static_cast<int64_t>(i));
    }
  }
  return tail > 0 ? static_cast<double>(hits) / tail : 0;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::vector<int64_t> self = SelfNs();
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %lld, \"interaction\": %lld, "
                 "\"self_ns\": %lld}\n",
                 i, s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.interaction),
                 static_cast<long long>(self[i]));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
