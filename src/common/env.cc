#include "common/env.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "common/request_context.h"
#include "common/schema.h"

namespace dvms {

namespace {

const char* kOpNames[kNumIoOps] = {"open",   "read",   "write", "fsync",
                                   "rename", "unlink", "list"};

const char* kKindNames[kNumIoErrorKinds] = {"eio", "enospc", "short-write",
                                            "fsync-fail"};

/// SplitMix64 finalizer: a high-quality 64 -> 64 mix (same generator the
/// logical FaultInjector uses, so composed schedules stay independent —
/// the op tag occupies different bits than the site tag).
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Formats a failed POSIX call as a Status. ENOSPC/EDQUOT get a stable
/// machine-checkable tag so policy code (degraded mode) can classify
/// without string-matching locale-dependent strerror text.
Status PosixError(const char* what, const std::string& path, int err) {
  std::string msg = std::string("io: ") + what + " failed for " + path + ": " +
                    std::strerror(err);
  if (err == ENOSPC || err == EDQUOT) msg += " [errno:ENOSPC]";
  if (err == ENOENT) msg += " [errno:ENOENT]";
  return Status::ExecutionError(std::move(msg));
}

/// The real thing. EINTR is retried here — and only here — so no caller
/// ever sees it; short reads/writes still surface as partial counts for
/// the env::ReadFully / env::WriteFully loops.
class PosixEnv : public Env {
 public:
  Result<int> Open(const std::string& path, int flags, int mode) override {
    int fd;
    do {
      fd = ::open(path.c_str(), flags, mode);
    } while (fd < 0 && errno == EINTR);
    if (fd < 0) return PosixError("open", path, errno);
    return fd;
  }

  void Close(int fd) override {
    if (fd >= 0) ::close(fd);
  }

  Result<size_t> Read(int fd, char* data, size_t n,
                      const std::string& path) override {
    ssize_t got;
    do {
      got = ::read(fd, data, n);
    } while (got < 0 && errno == EINTR);
    if (got < 0) return PosixError("read", path, errno);
    return static_cast<size_t>(got);
  }

  Result<size_t> Write(int fd, const char* data, size_t n,
                       const std::string& path) override {
    ssize_t wrote;
    do {
      wrote = ::write(fd, data, n);
    } while (wrote < 0 && errno == EINTR);
    if (wrote < 0) return PosixError("write", path, errno);
    return static_cast<size_t>(wrote);
  }

  Status Fsync(int fd, const std::string& path) override {
    int rc;
    do {
      rc = ::fsync(fd);
    } while (rc != 0 && errno == EINTR);
    if (rc != 0) return PosixError("fsync", path, errno);
    return Status::OK();
  }

  Status Ftruncate(int fd, uint64_t len, const std::string& path) override {
    int rc;
    do {
      rc = ::ftruncate(fd, static_cast<off_t>(len));
    } while (rc != 0 && errno == EINTR);
    if (rc != 0) return PosixError("ftruncate", path, errno);
    return Status::OK();
  }

  Status Seek(int fd, uint64_t offset, const std::string& path) override {
    if (::lseek(fd, static_cast<off_t>(offset), SEEK_SET) < 0) {
      return PosixError("lseek", path, errno);
    }
    return Status::OK();
  }

  Result<uint64_t> FileSize(int fd, const std::string& path) override {
    struct stat st;
    if (::fstat(fd, &st) != 0) return PosixError("fstat", path, errno);
    return static_cast<uint64_t>(st.st_size);
  }

  Status Truncate(const std::string& path, uint64_t len) override {
    int rc;
    do {
      rc = ::truncate(path.c_str(), static_cast<off_t>(len));
    } while (rc != 0 && errno == EINTR);
    if (rc != 0) return PosixError("truncate", path, errno);
    return Status::OK();
  }

  Status Rename(const std::string& from, const std::string& to) override {
    if (::rename(from.c_str(), to.c_str()) != 0) {
      return PosixError("rename", from + " -> " + to, errno);
    }
    return Status::OK();
  }

  Status Unlink(const std::string& path) override {
    if (::unlink(path.c_str()) != 0) return PosixError("unlink", path, errno);
    return Status::OK();
  }

  Status Mkdir(const std::string& path) override {
    if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
      return PosixError("mkdir", path, errno);
    }
    return Status::OK();
  }

  Result<std::vector<std::string>> ListDir(const std::string& dir) override {
    DIR* d = ::opendir(dir.c_str());
    if (d == nullptr) return PosixError("opendir", dir, errno);
    std::vector<std::string> names;
    errno = 0;
    while (struct dirent* entry = ::readdir(d)) {
      std::string name = entry->d_name;
      if (name != "." && name != "..") names.push_back(std::move(name));
      errno = 0;
    }
    int read_errno = errno;
    ::closedir(d);
    if (read_errno != 0) return PosixError("readdir", dir, read_errno);
    return names;
  }

  Status SyncDir(const std::string& dir) override {
    DVMS_ASSIGN_OR_RETURN(int fd, Open(dir, O_RDONLY | O_DIRECTORY, 0));
    Status st = Fsync(fd, dir);
    Close(fd);
    return st;
  }
};

/// Error kinds that make physical sense per op: reads can only EIO;
/// writes can EIO, fill the disk, or land short; fsync failures are their
/// own kind (plus ENOSPC — delayed-allocation filesystems report it at
/// sync time); namespace ops (open/rename) can hit EIO or a full disk,
/// unlink/list only EIO (removing or reading names needs no new blocks).
uint32_t OpKindMask(IoOp op) {
  auto bit = [](IoErrorKind k) { return 1u << static_cast<uint32_t>(k); };
  switch (op) {
    case IoOp::kOpen:
    case IoOp::kRename:
      return bit(IoErrorKind::kEio) | bit(IoErrorKind::kEnospc);
    case IoOp::kRead:
    case IoOp::kUnlink:
    case IoOp::kList:
      return bit(IoErrorKind::kEio);
    case IoOp::kWrite:
      return bit(IoErrorKind::kEio) | bit(IoErrorKind::kEnospc) |
             bit(IoErrorKind::kShortWrite);
    case IoOp::kFsync:
      return bit(IoErrorKind::kFsyncFail) | bit(IoErrorKind::kEnospc);
  }
  return 0;
}

std::atomic<Env*> g_env{nullptr};
std::once_flag g_env_once;

/// Owns the FaultEnv parsed from DVMS_IO_FAULTS, when the variable is set.
FaultEnv* EnvVarFaultEnv() {
  static FaultEnv* from_env =
      env::FaultEnvFromSpecOrDie(std::getenv("DVMS_IO_FAULTS"));
  return from_env;
}

}  // namespace

const char* IoOpToString(IoOp op) {
  size_t i = static_cast<size_t>(op);
  return i < kNumIoOps ? kOpNames[i] : "?";
}

const char* IoErrorKindToString(IoErrorKind kind) {
  size_t i = static_cast<size_t>(kind);
  return i < kNumIoErrorKinds ? kKindNames[i] : "?";
}

Result<IoFaultConfig> ParseIoFaultSpec(const std::string& spec) {
  // <seed>:<rate>[:token,...] where a token names an op or an error kind.
  size_t first = spec.find(':');
  if (first == std::string::npos) {
    return Status::InvalidArgument(
        "io-fault spec '" + spec + "' is not <seed>:<rate>[:op,...]");
  }
  size_t second = spec.find(':', first + 1);
  std::string seed_text = spec.substr(0, first);
  std::string rate_text = spec.substr(
      first + 1,
      second == std::string::npos ? std::string::npos : second - first - 1);

  IoFaultConfig config;
  char* end = nullptr;
  config.seed = std::strtoull(seed_text.c_str(), &end, 10);
  if (end == seed_text.c_str() || *end != '\0') {
    return Status::InvalidArgument("io-fault spec seed '" + seed_text +
                                   "' is not an unsigned integer");
  }
  end = nullptr;
  config.rate = std::strtod(rate_text.c_str(), &end);
  if (end == rate_text.c_str() || *end != '\0' || config.rate < 0.0 ||
      config.rate > 1.0) {
    return Status::InvalidArgument("io-fault spec rate '" + rate_text +
                                   "' is not a probability in [0, 1]");
  }
  if (second != std::string::npos) {
    uint32_t op_mask = 0;
    uint32_t kind_mask = 0;
    std::string tokens = spec.substr(second + 1);
    size_t pos = 0;
    while (pos <= tokens.size()) {
      size_t comma = tokens.find(',', pos);
      std::string token = tokens.substr(
          pos, comma == std::string::npos ? std::string::npos : comma - pos);
      if (!token.empty()) {
        bool known = false;
        for (size_t i = 0; i < kNumIoOps && !known; ++i) {
          if (IdentEquals(token, kOpNames[i])) {
            op_mask |= 1u << static_cast<uint32_t>(i);
            known = true;
          }
        }
        for (size_t i = 0; i < kNumIoErrorKinds && !known; ++i) {
          if (IdentEquals(token, kKindNames[i])) {
            kind_mask |= 1u << static_cast<uint32_t>(i);
            known = true;
          }
        }
        if (!known) {
          return Status::InvalidArgument(
              "io-fault spec token '" + token +
              "' is neither an op (open, read, write, fsync, rename, unlink, "
              "list) nor an error kind (eio, enospc, short-write, "
              "fsync-fail)");
        }
      }
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
    // A class the spec never mentions stays fully enabled.
    if (op_mask != 0) config.op_mask = op_mask;
    if (kind_mask != 0) config.kind_mask = kind_mask;
  }
  return config;
}

FaultEnv::FaultEnv(Env* base, IoFaultConfig config)
    : base_(base), config_(config) {
  Reset();
}

void FaultEnv::Reset() {
  for (size_t i = 0; i < kNumIoOps; ++i) {
    op_checks_[i].store(0, std::memory_order_relaxed);
  }
  checks_.store(0, std::memory_order_relaxed);
  injections_.store(0, std::memory_order_relaxed);
}

bool FaultEnv::Decide(IoOp op, IoErrorKind* kind) {
  size_t i = static_cast<size_t>(op);
  uint64_t n = op_checks_[i].fetch_add(1, std::memory_order_relaxed);
  checks_.fetch_add(1, std::memory_order_relaxed);
  if (disarmed_.load(std::memory_order_relaxed)) return false;
  // Recovery, rollback, and promotion run as internal work — the same
  // scope that silences logical FaultSite injection keeps the disk
  // "healthy" for the code undoing an earlier fault's damage.
  if (CurrentRequest().is_internal()) return false;
  if (!config_.OpEnabled(op) || config_.rate <= 0.0) return false;
  uint32_t candidates = OpKindMask(op) & config_.kind_mask;
  if (candidates == 0) return false;
  // Decisions are a pure function of (seed, op, per-op index): the op tag
  // sits in the top byte so schedules never collide across ops.
  uint64_t h = Mix64(config_.seed ^ Mix64((uint64_t(i) << 56) | n));
  double u = static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
  if (u >= config_.rate) return false;
  if (config_.max_injections != 0) {
    uint64_t claimed = injections_.load(std::memory_order_relaxed);
    do {
      if (claimed >= config_.max_injections) return false;
    } while (!injections_.compare_exchange_weak(claimed, claimed + 1,
                                                std::memory_order_relaxed));
  } else {
    injections_.fetch_add(1, std::memory_order_relaxed);
  }
  // Second draw picks the kind among those legal for the op and enabled by
  // the config, uniformly.
  int ordinal = static_cast<int>(Mix64(h) %
                                 static_cast<uint64_t>(
                                     __builtin_popcount(candidates)));
  for (uint32_t k = 0; k < kNumIoErrorKinds; ++k) {
    if (!((candidates >> k) & 1u)) continue;
    if (ordinal-- == 0) {
      *kind = static_cast<IoErrorKind>(k);
      return true;
    }
  }
  return false;
}

Status FaultEnv::Injected(IoOp op, IoErrorKind kind, const std::string& path) {
  std::string msg = std::string("io: injected ") + IoErrorKindToString(kind) +
                    " at " + IoOpToString(op) + " for " + path +
                    " [env-fault #" +
                    std::to_string(injections_.load(std::memory_order_relaxed)) +
                    "]";
  if (kind == IoErrorKind::kEnospc) msg += " [errno:ENOSPC]";
  return Status::ExecutionError(std::move(msg));
}

Result<int> FaultEnv::Open(const std::string& path, int flags, int mode) {
  IoErrorKind kind;
  if (Decide(IoOp::kOpen, &kind)) return Injected(IoOp::kOpen, kind, path);
  return base_->Open(path, flags, mode);
}

void FaultEnv::Close(int fd) { base_->Close(fd); }

Result<size_t> FaultEnv::Read(int fd, char* data, size_t n,
                              const std::string& path) {
  IoErrorKind kind;
  if (Decide(IoOp::kRead, &kind)) return Injected(IoOp::kRead, kind, path);
  return base_->Read(fd, data, n, path);
}

Result<size_t> FaultEnv::Write(int fd, const char* data, size_t n,
                               const std::string& path) {
  IoErrorKind kind;
  if (Decide(IoOp::kWrite, &kind)) {
    // A short write lands a prefix on disk and reports it truthfully — the
    // caller's WriteFully loop retries the remainder (and may fault again).
    // Too-small writes degrade to EIO so a 1-byte write can't livelock at
    // "wrote 0 of 1".
    if (kind == IoErrorKind::kShortWrite && n >= 2) {
      return base_->Write(fd, data, n / 2, path);
    }
    return Injected(IoOp::kWrite,
                    kind == IoErrorKind::kShortWrite ? IoErrorKind::kEio : kind,
                    path);
  }
  return base_->Write(fd, data, n, path);
}

Status FaultEnv::Fsync(int fd, const std::string& path) {
  IoErrorKind kind;
  if (Decide(IoOp::kFsync, &kind)) return Injected(IoOp::kFsync, kind, path);
  return base_->Fsync(fd, path);
}

Status FaultEnv::Ftruncate(int fd, uint64_t len, const std::string& path) {
  // Truncation rewrites file extent metadata; it draws from the write
  // schedule (there is no separate user-visible op for it).
  IoErrorKind kind;
  if (Decide(IoOp::kWrite, &kind)) {
    return Injected(IoOp::kWrite,
                    kind == IoErrorKind::kShortWrite ? IoErrorKind::kEio : kind,
                    path);
  }
  return base_->Ftruncate(fd, len, path);
}

Status FaultEnv::Seek(int fd, uint64_t offset, const std::string& path) {
  return base_->Seek(fd, offset, path);
}

Result<uint64_t> FaultEnv::FileSize(int fd, const std::string& path) {
  return base_->FileSize(fd, path);
}

Status FaultEnv::Truncate(const std::string& path, uint64_t len) {
  IoErrorKind kind;
  if (Decide(IoOp::kWrite, &kind)) {
    return Injected(IoOp::kWrite,
                    kind == IoErrorKind::kShortWrite ? IoErrorKind::kEio : kind,
                    path);
  }
  return base_->Truncate(path, len);
}

Status FaultEnv::Rename(const std::string& from, const std::string& to) {
  IoErrorKind kind;
  if (Decide(IoOp::kRename, &kind)) {
    return Injected(IoOp::kRename, kind, from + " -> " + to);
  }
  return base_->Rename(from, to);
}

Status FaultEnv::Unlink(const std::string& path) {
  IoErrorKind kind;
  if (Decide(IoOp::kUnlink, &kind)) return Injected(IoOp::kUnlink, kind, path);
  return base_->Unlink(path);
}

Status FaultEnv::Mkdir(const std::string& path) {
  IoErrorKind kind;
  if (Decide(IoOp::kOpen, &kind)) return Injected(IoOp::kOpen, kind, path);
  return base_->Mkdir(path);
}

Result<std::vector<std::string>> FaultEnv::ListDir(const std::string& dir) {
  IoErrorKind kind;
  if (Decide(IoOp::kList, &kind)) return Injected(IoOp::kList, kind, dir);
  return base_->ListDir(dir);
}

Status FaultEnv::SyncDir(const std::string& dir) {
  IoErrorKind kind;
  if (Decide(IoOp::kFsync, &kind)) return Injected(IoOp::kFsync, kind, dir);
  return base_->SyncDir(dir);
}

namespace env {

Env* Posix() {
  static PosixEnv posix;
  return &posix;
}

Env* Active() {
  Env* installed = g_env.load(std::memory_order_acquire);
  if (installed != nullptr) return installed;
  std::call_once(g_env_once, [] {
    Env* from_env = EnvVarFaultEnv();
    if (from_env != nullptr) {
      Env* expected = nullptr;
      g_env.compare_exchange_strong(expected, from_env,
                                    std::memory_order_release,
                                    std::memory_order_relaxed);
    }
  });
  Env* e = g_env.load(std::memory_order_acquire);
  return e != nullptr ? e : Posix();
}

Env* InstallProcessEnv(Env* e) {
  return g_env.exchange(e, std::memory_order_acq_rel);
}

FaultEnv* ActiveFault() { return dynamic_cast<FaultEnv*>(Active()); }

FaultEnv* FaultEnvFromSpecOrDie(const char* spec) {
  if (spec == nullptr || spec[0] == '\0') return nullptr;
  Result<IoFaultConfig> config = ParseIoFaultSpec(spec);
  if (!config.ok()) {
    std::fprintf(stderr, "fatal: DVMS_IO_FAULTS='%s' is malformed: %s\n", spec,
                 config.status().message().c_str());
    std::abort();
  }
  return new FaultEnv(Posix(), std::move(config).value());
}

Status ReadFully(Env* e, int fd, char* data, size_t n, const std::string& path,
                 size_t* bytes_read) {
  size_t off = 0;
  while (off < n) {
    Result<size_t> got = e->Read(fd, data + off, n - off, path);
    if (!got.ok()) {
      if (bytes_read != nullptr) *bytes_read = off;
      return got.status();
    }
    if (got.value() == 0) break;  // EOF
    off += got.value();
  }
  if (bytes_read != nullptr) *bytes_read = off;
  return Status::OK();
}

Status WriteFully(Env* e, int fd, const char* data, size_t n,
                  const std::string& path) {
  size_t off = 0;
  while (off < n) {
    DVMS_ASSIGN_OR_RETURN(size_t wrote,
                          e->Write(fd, data + off, n - off, path));
    off += wrote;
  }
  return Status::OK();
}

Status FsyncOrPoison(Env* e, int* fd, const std::string& path) {
  if (*fd < 0) {
    return Status::ExecutionError("io: fsync on poisoned fd for " + path);
  }
  Status st = e->Fsync(*fd, path);
  if (!st.ok()) {
    // fsyncgate: the kernel may have marked the dirty pages clean without
    // writing them. Closing the fd forbids both further writes and the
    // retry-fsync-and-call-it-durable mistake.
    e->Close(*fd);
    *fd = -1;
  }
  return st;
}

bool IsOutOfSpace(const Status& st) {
  return !st.ok() && st.message().find("[errno:ENOSPC]") != std::string::npos;
}

bool IsInjectedIoFault(const Status& st) {
  return !st.ok() && st.message().find("[env-fault") != std::string::npos;
}

bool IsEnvIoError(const Status& st) {
  return !st.ok() && st.message().compare(0, 4, "io: ") == 0;
}

bool IsNotFound(const Status& st) {
  return !st.ok() && st.message().find("[errno:ENOENT]") != std::string::npos;
}

}  // namespace env

}  // namespace dvms
