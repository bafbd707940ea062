#ifndef DVMS_COMMON_FAULT_H_
#define DVMS_COMMON_FAULT_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "common/status.h"

namespace dvms {

/// Where in the engine a fault can be injected. Every site guards one
/// failure-prone boundary; the framework exists so the error paths behind
/// those boundaries are exercised deterministically instead of never.
enum class FaultSite {
  kStorageAppend = 0,  // VersionedTable::Append (storage write failed)
  kIvmApply,           // ViewMaintainer::RecomputeView (delta/recompute)
  kThreadPoolTask,     // ThreadPool morsel start (transient task failure)
  kRasterBand,         // rasterizer band fill (render device hiccup)
  kStreamTick,         // streaming-scheduler coefficient send
  kDurabilityIo,       // interaction-log append/fsync, snapshot write/rename
  kReplication,        // replica WAL tailing: segment listing/scan reads
};

inline constexpr size_t kNumFaultSites = 7;

const char* FaultSiteToString(FaultSite site);

/// Parses a site name ("storage", "ivm", "pool", "raster", "stream",
/// "durability", "replication" — case-insensitive, matching
/// FaultSiteToString).
Result<FaultSite> FaultSiteFromName(const std::string& name);

/// Configuration for one injector. The schedule is a pure function of
/// (seed, site, per-site check index): the n-th check at a site fires iff
/// hash(seed, site, n) maps below `rate` — reproducible run-to-run and
/// independent of how checks interleave across threads.
struct FaultConfig {
  uint64_t seed = 0;
  double rate = 0.0;           // probability a check fires, in [0, 1]
  uint32_t site_mask = ~0u;    // bit (int)site enables that site
  uint64_t max_injections = 0; // total budget; 0 = unlimited

  bool SiteEnabled(FaultSite site) const {
    return (site_mask >> static_cast<uint32_t>(site)) & 1u;
  }
};

/// Parses the DVMS_FAULTS syntax: `<seed>:<rate>[:site,site,...]`.
/// Omitted site list = all sites. Examples: "42:0.05",
/// "7:0.5:storage,raster", "1:1.0:ivm".
Result<FaultConfig> ParseFaultSpec(const std::string& spec);

/// A seeded, site-tagged fault injector. Thread-safe; all counters are
/// atomic. Decisions are deterministic per (seed, site, check-index).
class FaultInjector {
 public:
  explicit FaultInjector(FaultConfig config);

  /// Draws the next decision for `site`. Advances the site's check index.
  bool ShouldInject(FaultSite site);

  /// ExecutionError tagged with the site and injection ordinal when the
  /// draw fires; OK otherwise.
  Status MaybeInject(FaultSite site);

  uint64_t checks(FaultSite site) const {
    return checks_[static_cast<size_t>(site)].load(std::memory_order_relaxed);
  }
  uint64_t injections(FaultSite site) const {
    return injections_[static_cast<size_t>(site)].load(
        std::memory_order_relaxed);
  }
  uint64_t total_injections() const {
    return total_injections_.load(std::memory_order_relaxed);
  }
  /// Transient-retry draws consumed (see fault::RetryTransient).
  uint64_t retries() const { return retries_.load(std::memory_order_relaxed); }
  void add_retries(uint64_t n) {
    retries_.fetch_add(n, std::memory_order_relaxed);
  }

  const FaultConfig& config() const { return config_; }

  /// Rewinds every schedule to check index 0 and zeroes the stats.
  void Reset();

 private:
  FaultConfig config_;
  std::atomic<uint64_t> checks_[kNumFaultSites];
  std::atomic<uint64_t> injections_[kNumFaultSites];
  std::atomic<uint64_t> total_injections_{0};
  std::atomic<uint64_t> retries_{0};
};

namespace fault {

/// The injector consulted by every site, or nullptr when faults are off.
/// Defaults to a process injector configured from the DVMS_FAULTS
/// environment variable (parsed once, lazily); ScopedFaultInjector
/// overrides it.
FaultInjector* Active();

/// Installs `injector` as the process injector (nullptr disables). Returns
/// the previous injector. Not for concurrent use against active traffic.
FaultInjector* InstallProcessInjector(FaultInjector* injector);

/// Builds a heap-allocated injector from a DVMS_FAULTS-style spec. A
/// malformed spec prints a diagnostic to stderr and aborts: a typo'd spec
/// silently disabling fault injection would un-test every error path the
/// operator believed was being exercised. Null/empty returns nullptr
/// (faults off). Exposed so tests can cover the abort path directly — the
/// real environment parse runs only once per process.
FaultInjector* InjectorFromEnvSpecOrDie(const char* spec);

/// Null-safe check, skipped inside an InternalScope (recovery, rollback,
/// replica apply: an injected fault must not cascade into the code undoing
/// its damage). The hot fault-free path is one relaxed atomic load and a
/// branch.
Status MaybeInject(FaultSite site);
bool ShouldInject(FaultSite site);

/// Bounded retry-with-backoff for transient faults: draws the site's
/// schedule up to `max_retries + 1` times and returns the number of faulted
/// draws consumed (recorded in the injector's retry stats). The caller
/// proceeds exactly once afterwards — a transient fault delays work, never
/// corrupts or duplicates it.
size_t RetryTransient(FaultSite site, size_t max_retries);

}  // namespace fault

/// RAII: installs an injector built from `config` for the process and
/// restores the previous one on destruction. Intended for tests/benches.
class ScopedFaultInjector {
 public:
  explicit ScopedFaultInjector(FaultConfig config)
      : injector_(config),
        prev_(fault::InstallProcessInjector(&injector_)) {}
  ~ScopedFaultInjector() { fault::InstallProcessInjector(prev_); }
  ScopedFaultInjector(const ScopedFaultInjector&) = delete;
  ScopedFaultInjector& operator=(const ScopedFaultInjector&) = delete;

  FaultInjector* injector() { return &injector_; }

 private:
  FaultInjector injector_;
  FaultInjector* prev_;
};

}  // namespace dvms

#endif  // DVMS_COMMON_FAULT_H_
