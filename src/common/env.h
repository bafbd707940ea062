#ifndef DVMS_COMMON_ENV_H_
#define DVMS_COMMON_ENV_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace dvms {

/// The storage-environment boundary: every byte the durability subsystem
/// moves to or from disk crosses one of these operations. Centralizing the
/// boundary buys two things at once — one shared implementation of the
/// fiddly POSIX retry semantics (EINTR, short reads, short writes) instead
/// of six hand-rolled loops, and a seam where a deterministic fault
/// decorator (FaultEnv) can simulate the disk failures production actually
/// sees: EIO, ENOSPC, short writes, failed fsyncs.
enum class IoOp {
  kOpen = 0,
  kRead,
  kWrite,
  kFsync,
  kRename,
  kUnlink,
  kList,
};

inline constexpr size_t kNumIoOps = 7;

const char* IoOpToString(IoOp op);

/// How an injected fault manifests. Writes can fail outright (EIO), run
/// out of space (ENOSPC), or land partially (short write — the prefix
/// reaches the file and the caller's loop must cope); fsync failures are
/// their own kind because their handling is categorically different
/// (fsyncgate: a failed fsync may have dropped dirty pages, so it must
/// never be retried-and-assumed-durable).
enum class IoErrorKind {
  kEio = 0,
  kEnospc,
  kShortWrite,
  kFsyncFail,
};

inline constexpr size_t kNumIoErrorKinds = 4;

const char* IoErrorKindToString(IoErrorKind kind);

/// Abstract storage environment. Primitives mirror POSIX but are
/// injectable; implementations handle EINTR internally (it never surfaces),
/// while short reads/writes DO surface as partial counts — looping lives in
/// the shared env::ReadFully / env::WriteFully helpers so every caller gets
/// identical retry semantics.
class Env {
 public:
  virtual ~Env() = default;

  /// open(2). Returns the fd.
  virtual Result<int> Open(const std::string& path, int flags, int mode) = 0;
  virtual void Close(int fd) = 0;

  /// read(2): up to `n` bytes; may return fewer. 0 = EOF.
  virtual Result<size_t> Read(int fd, char* data, size_t n,
                              const std::string& path) = 0;
  /// write(2): may write fewer than `n` bytes (short write).
  virtual Result<size_t> Write(int fd, const char* data, size_t n,
                               const std::string& path) = 0;
  virtual Status Fsync(int fd, const std::string& path) = 0;
  virtual Status Ftruncate(int fd, uint64_t len, const std::string& path) = 0;
  virtual Status Seek(int fd, uint64_t offset, const std::string& path) = 0;
  virtual Result<uint64_t> FileSize(int fd, const std::string& path) = 0;

  virtual Status Truncate(const std::string& path, uint64_t len) = 0;
  virtual Status Rename(const std::string& from, const std::string& to) = 0;
  virtual Status Unlink(const std::string& path) = 0;
  /// mkdir(2); an existing directory is success.
  virtual Status Mkdir(const std::string& path) = 0;
  /// Entry names (no paths, no "."/"..") of `dir`.
  virtual Result<std::vector<std::string>> ListDir(const std::string& dir) = 0;
  /// fsync of the directory itself (durable renames/creates).
  virtual Status SyncDir(const std::string& dir) = 0;
};

/// Configuration for one FaultEnv. The schedule is a pure function of
/// (seed, op, per-op check index) — reproducible run-to-run, independent of
/// interleaving — mirroring common/fault.h. `op_mask` selects which
/// operations can fault; `kind_mask` which error kinds may be drawn (each
/// op intersects it with the kinds that make sense for that op).
struct IoFaultConfig {
  uint64_t seed = 0;
  double rate = 0.0;            // probability a check fires, in [0, 1]
  uint32_t op_mask = ~0u;       // bit (int)op enables that op
  uint32_t kind_mask = ~0u;     // bit (int)kind enables that kind
  uint64_t max_injections = 0;  // total budget; 0 = unlimited

  bool OpEnabled(IoOp op) const {
    return (op_mask >> static_cast<uint32_t>(op)) & 1u;
  }
  bool KindEnabled(IoErrorKind kind) const {
    return (kind_mask >> static_cast<uint32_t>(kind)) & 1u;
  }
};

/// Parses the DVMS_IO_FAULTS syntax: `<seed>:<rate>[:token,...]` where each
/// token is an op name (open, read, write, fsync, rename, unlink, list) or
/// an error kind (eio, enospc, short-write, fsync-fail). Op tokens restrict
/// op_mask, kind tokens restrict kind_mask; an omitted class stays fully
/// enabled. Examples: "42:0.05", "7:1.0:write,fsync", "3:0.5:enospc",
/// "1:1.0:write,short-write".
Result<IoFaultConfig> ParseIoFaultSpec(const std::string& spec);

/// Deterministic disk-fault decorator: delegates to `base` but fails a
/// seeded fraction of operations with EIO / ENOSPC / short writes / failed
/// fsyncs. Injection skips InternalScope work — recovery, rollback, and
/// replica apply paths stay exempt, exactly like FaultSite injection — so
/// it composes with the existing chaos machinery. Thread-safe.
class FaultEnv : public Env {
 public:
  FaultEnv(Env* base, IoFaultConfig config);

  Result<int> Open(const std::string& path, int flags, int mode) override;
  void Close(int fd) override;
  Result<size_t> Read(int fd, char* data, size_t n,
                      const std::string& path) override;
  Result<size_t> Write(int fd, const char* data, size_t n,
                       const std::string& path) override;
  Status Fsync(int fd, const std::string& path) override;
  Status Ftruncate(int fd, uint64_t len, const std::string& path) override;
  Status Seek(int fd, uint64_t offset, const std::string& path) override;
  Result<uint64_t> FileSize(int fd, const std::string& path) override;
  Status Truncate(const std::string& path, uint64_t len) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status Unlink(const std::string& path) override;
  Status Mkdir(const std::string& path) override;
  Result<std::vector<std::string>> ListDir(const std::string& dir) override;
  Status SyncDir(const std::string& dir) override;

  uint64_t checks() const {
    return checks_.load(std::memory_order_relaxed);
  }
  uint64_t injections() const {
    return injections_.load(std::memory_order_relaxed);
  }
  const IoFaultConfig& config() const { return config_; }
  /// Rewinds every schedule to check index 0 and zeroes the stats.
  void Reset();
  /// Stops all further injection (as if the disk healed); existing
  /// counters are kept. Used by tests to model "space freed up".
  void Disarm() { disarmed_.store(true, std::memory_order_relaxed); }
  void Rearm() { disarmed_.store(false, std::memory_order_relaxed); }

 private:
  /// Draws the next decision for `op`; true = inject, with `*kind` set.
  bool Decide(IoOp op, IoErrorKind* kind);
  Status Injected(IoOp op, IoErrorKind kind, const std::string& path);

  Env* base_;
  IoFaultConfig config_;
  std::atomic<uint64_t> op_checks_[kNumIoOps];
  std::atomic<uint64_t> checks_{0};
  std::atomic<uint64_t> injections_{0};
  std::atomic<bool> disarmed_{false};
};

namespace env {

/// The real POSIX environment (process-lifetime singleton).
Env* Posix();

/// The environment every durability I/O call should use: an installed
/// override if present, else a FaultEnv built once from the DVMS_IO_FAULTS
/// environment variable (malformed specs fail loudly, mirroring
/// DVMS_FAULTS), else the plain POSIX env.
Env* Active();

/// Installs `e` as the process environment override (nullptr restores the
/// default resolution). Returns the previous override. Not for concurrent
/// use against active traffic.
Env* InstallProcessEnv(Env* e);

/// The active FaultEnv, or nullptr when the active env is not fault
/// injecting. For observability (dvms_storage) and tests.
FaultEnv* ActiveFault();

/// Builds a heap-allocated FaultEnv over Posix() from a DVMS_IO_FAULTS
/// spec. A malformed spec prints a diagnostic and aborts — a typo silently
/// disabling injection would un-test every error path the operator believed
/// was being exercised. Null/empty returns nullptr. Exposed for tests.
FaultEnv* FaultEnvFromSpecOrDie(const char* spec);

/// Reads exactly `n` bytes unless EOF intervenes: loops over Env::Read,
/// absorbing short reads. EOF before `n` bytes returns OK with
/// `*bytes_read < n` — the caller decides whether a short object is a
/// clean boundary (0 read) or torn data (partial read).
Status ReadFully(Env* e, int fd, char* data, size_t n,
                 const std::string& path, size_t* bytes_read);

/// Writes all `n` bytes: loops over Env::Write, absorbing short writes.
Status WriteFully(Env* e, int fd, const char* data, size_t n,
                  const std::string& path);

/// Fsyncgate-safe fsync: on failure the fd is closed and `*fd` set to -1 so
/// no caller can write more bytes through it or retry the fsync and mistake
/// a later success for durability of the earlier data (after a failed
/// fsync the kernel may have dropped the dirty pages; only re-verification
/// against the file, or a rewrite, can re-establish what is on disk).
Status FsyncOrPoison(Env* e, int* fd, const std::string& path);

/// True when `st` reports an out-of-space condition (real ENOSPC/EDQUOT or
/// an injected enospc fault) — the transient, degradable error class.
bool IsOutOfSpace(const Status& st);

/// True when `st` came from FaultEnv rather than a real device.
bool IsInjectedIoFault(const Status& st);

/// True when `st` was produced by the Env layer (real or injected device
/// error) rather than by content validation. Every Env error carries the
/// "io: " prefix by construction, so callers that read checksummed files
/// can separate "the device failed — maybe transient, retry later" from
/// "the bytes are wrong — corruption" without guessing.
bool IsEnvIoError(const Status& st);

/// True when `st` reports ENOENT — e.g. a file that a concurrent prune
/// removed between listing and opening, which is not an error at all for
/// scan-style callers.
bool IsNotFound(const Status& st);

}  // namespace env

/// RAII: installs an env override for the process and restores the
/// previous one on destruction. Intended for tests/benches.
class ScopedEnv {
 public:
  explicit ScopedEnv(Env* e) : prev_(env::InstallProcessEnv(e)) {}
  ~ScopedEnv() { env::InstallProcessEnv(prev_); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  Env* prev_;
};

}  // namespace dvms

#endif  // DVMS_COMMON_ENV_H_
