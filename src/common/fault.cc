#include "common/fault.h"

#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "common/request_context.h"
#include "common/schema.h"

namespace dvms {

namespace {

const char* kSiteNames[kNumFaultSites] = {"storage", "ivm",        "pool",
                                          "raster",  "stream",     "durability",
                                          "replication"};

/// SplitMix64 finalizer: a high-quality 64 -> 64 mix.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::atomic<FaultInjector*> g_injector{nullptr};
std::once_flag g_env_once;

/// Owns the injector parsed from DVMS_FAULTS, when the variable is set.
FaultInjector* EnvInjector() {
  static FaultInjector* env_injector =
      fault::InjectorFromEnvSpecOrDie(std::getenv("DVMS_FAULTS"));
  return env_injector;
}

}  // namespace

const char* FaultSiteToString(FaultSite site) {
  size_t i = static_cast<size_t>(site);
  return i < kNumFaultSites ? kSiteNames[i] : "?";
}

Result<FaultSite> FaultSiteFromName(const std::string& name) {
  for (size_t i = 0; i < kNumFaultSites; ++i) {
    if (IdentEquals(name, kSiteNames[i])) return static_cast<FaultSite>(i);
  }
  return Status::InvalidArgument("unknown fault site '" + name +
                                 "' (expected storage, ivm, pool, raster, "
                                 "stream, durability, or replication)");
}

Result<FaultConfig> ParseFaultSpec(const std::string& spec) {
  // <seed>:<rate>[:site,...]
  size_t first = spec.find(':');
  if (first == std::string::npos) {
    return Status::InvalidArgument(
        "fault spec '" + spec + "' is not <seed>:<rate>[:site,...]");
  }
  size_t second = spec.find(':', first + 1);
  std::string seed_text = spec.substr(0, first);
  std::string rate_text = spec.substr(
      first + 1,
      second == std::string::npos ? std::string::npos : second - first - 1);

  FaultConfig config;
  char* end = nullptr;
  config.seed = std::strtoull(seed_text.c_str(), &end, 10);
  if (end == seed_text.c_str() || *end != '\0') {
    return Status::InvalidArgument("fault spec seed '" + seed_text +
                                   "' is not an unsigned integer");
  }
  end = nullptr;
  config.rate = std::strtod(rate_text.c_str(), &end);
  if (end == rate_text.c_str() || *end != '\0' || config.rate < 0.0 ||
      config.rate > 1.0) {
    return Status::InvalidArgument("fault spec rate '" + rate_text +
                                   "' is not a probability in [0, 1]");
  }
  if (second != std::string::npos) {
    config.site_mask = 0;
    std::string sites = spec.substr(second + 1);
    size_t pos = 0;
    while (pos <= sites.size()) {
      size_t comma = sites.find(',', pos);
      std::string token = sites.substr(
          pos, comma == std::string::npos ? std::string::npos : comma - pos);
      if (!token.empty()) {
        DVMS_ASSIGN_OR_RETURN(FaultSite site, FaultSiteFromName(token));
        config.site_mask |= 1u << static_cast<uint32_t>(site);
      }
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
    if (config.site_mask == 0) {
      return Status::InvalidArgument("fault spec '" + spec +
                                     "' enables no sites");
    }
  }
  return config;
}

FaultInjector::FaultInjector(FaultConfig config) : config_(config) {
  Reset();
}

void FaultInjector::Reset() {
  for (size_t i = 0; i < kNumFaultSites; ++i) {
    checks_[i].store(0, std::memory_order_relaxed);
    injections_[i].store(0, std::memory_order_relaxed);
  }
  total_injections_.store(0, std::memory_order_relaxed);
  retries_.store(0, std::memory_order_relaxed);
}

bool FaultInjector::ShouldInject(FaultSite site) {
  size_t i = static_cast<size_t>(site);
  uint64_t n = checks_[i].fetch_add(1, std::memory_order_relaxed);
  if (!config_.SiteEnabled(site) || config_.rate <= 0.0) return false;
  uint64_t h = Mix64(config_.seed ^ Mix64((uint64_t(i) << 56) | n));
  // Top 53 bits -> uniform double in [0, 1).
  double u = static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
  if (u >= config_.rate) return false;
  if (config_.max_injections != 0) {
    // Budgeted mode: claim one injection slot; past the budget the
    // injector goes quiet and the counter stays at the budget.
    uint64_t claimed = total_injections_.load(std::memory_order_relaxed);
    do {
      if (claimed >= config_.max_injections) return false;
    } while (!total_injections_.compare_exchange_weak(
        claimed, claimed + 1, std::memory_order_relaxed));
  } else {
    total_injections_.fetch_add(1, std::memory_order_relaxed);
  }
  injections_[i].fetch_add(1, std::memory_order_relaxed);
  return true;
}

Status FaultInjector::MaybeInject(FaultSite site) {
  if (!ShouldInject(site)) return Status::OK();
  return Status::ExecutionError(
      std::string("injected fault at site '") + FaultSiteToString(site) +
      "' (#" + std::to_string(total_injections()) + ")");
}

namespace fault {

FaultInjector* Active() {
  FaultInjector* installed = g_injector.load(std::memory_order_acquire);
  if (installed != nullptr) return installed;
  std::call_once(g_env_once, [] {
    FaultInjector* env = EnvInjector();
    if (env != nullptr) {
      FaultInjector* expected = nullptr;
      g_injector.compare_exchange_strong(expected, env,
                                         std::memory_order_release,
                                         std::memory_order_relaxed);
    }
  });
  return g_injector.load(std::memory_order_acquire);
}

FaultInjector* InstallProcessInjector(FaultInjector* injector) {
  return g_injector.exchange(injector, std::memory_order_acq_rel);
}

FaultInjector* InjectorFromEnvSpecOrDie(const char* spec) {
  if (spec == nullptr || spec[0] == '\0') return nullptr;
  Result<FaultConfig> config = ParseFaultSpec(spec);
  if (!config.ok()) {
    std::fprintf(stderr, "fatal: DVMS_FAULTS='%s' is malformed: %s\n", spec,
                 config.status().message().c_str());
    std::abort();
  }
  return new FaultInjector(std::move(config).value());
}

Status MaybeInject(FaultSite site) {
  FaultInjector* injector = Active();
  if (injector == nullptr || CurrentRequest().is_internal()) {
    return Status::OK();
  }
  return injector->MaybeInject(site);
}

bool ShouldInject(FaultSite site) {
  FaultInjector* injector = Active();
  if (injector == nullptr || CurrentRequest().is_internal()) {
    return false;
  }
  return injector->ShouldInject(site);
}

size_t RetryTransient(FaultSite site, size_t max_retries) {
  FaultInjector* injector = Active();
  if (injector == nullptr || CurrentRequest().is_internal()) {
    return 0;
  }
  size_t faulted = 0;
  while (faulted <= max_retries && injector->ShouldInject(site)) {
    ++faulted;
  }
  if (faulted > 0) injector->add_retries(faulted);
  return faulted;
}

}  // namespace fault

}  // namespace dvms
