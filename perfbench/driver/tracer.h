#ifndef PERFBENCH_DRIVER_TRACER_H_
#define PERFBENCH_DRIVER_TRACER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// In-memory span recorder for the traced run. Spans are opened and closed
/// on one thread in strict nesting order, so the parent of a new span is
/// the innermost open one. Nothing is written until WriteJsonl.
class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t parent = -1;       // index of the enclosing span, -1 for a root
    int64_t interaction = -1;  // op the span belongs to, -1 for none
  };

  /// Opens a span and returns its index.
  int64_t Begin(const std::string& name, int64_t interaction);
  /// Closes the innermost open span, which must be `id`.
  void End(int64_t id);

  /// RAII span; records nothing when `tracer` is null, so untraced runs
  /// share the traced code path at the cost of a null check.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string_view name, int64_t interaction)
        : tracer_(tracer),
          id_(tracer != nullptr ? tracer->Begin(std::string(name), interaction)
                                : -1) {}
    ~Scope() {
      if (tracer_ != nullptr) tracer_->End(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int64_t id_;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Each span's duration minus the part of it covered by its children.
  std::vector<int64_t> SelfNs() const;

  /// Self times in milliseconds of every span called `name`.
  std::vector<double> SelfMs(const std::string& name) const;
  /// Durations in milliseconds of every span called `name`.
  std::vector<double> DurationMs(const std::string& name) const;

  /// Total duration of spans called `part` as a percentage of the total
  /// duration of the root spans named in `roots`.
  double SharePct(const std::string& part,
                  const std::vector<std::string>& roots) const;

  /// Among the root spans named in `roots` whose duration is at or beyond
  /// their nearest-rank p99, the share that contains a child called
  /// `child`: which op population sets the tail.
  double TailShare(const std::vector<std::string>& roots,
                   const std::string& child) const;

  /// Writes one JSON object per span (with its self time) to `path`.
  bool WriteJsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

/// Monotonic clock in nanoseconds (steady_clock).
int64_t NowNs();

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_TRACER_H_
