#include "durability/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cstring>

#include "common/env.h"
#include "common/fault.h"
#include "common/request_context.h"
#include "durability/crc32c.h"
#include "obs/trace.h"

namespace dvms {

namespace {

std::atomic<int64_t> g_crash_after_wal_bytes{-1};

/// WAL file writes honor the torn-write crash hook: when the hook's byte
/// budget runs out inside this chunk, the prefix that fits is written (and
/// synced, so the torn state is what recovery will actually see) and the
/// process exits as if SIGKILLed mid-write. Everything else delegates to
/// the shared env::WriteFully loop.
Status WalFileWrite(Env* env, int fd, const char* data, size_t n,
                    const std::string& path) {
  int64_t budget = g_crash_after_wal_bytes.load(std::memory_order_relaxed);
  if (budget >= 0) {
    if (static_cast<uint64_t>(budget) < n) {
      size_t partial = static_cast<size_t>(budget);
      while (partial > 0) {
        Result<size_t> w = env->Write(fd, data, partial, path);
        if (!w.ok() || w.value() == 0) break;
        data += w.value();
        partial -= w.value();
      }
      env->Fsync(fd, path);
      ::_exit(42);
    }
    g_crash_after_wal_bytes.store(budget - static_cast<int64_t>(n),
                                  std::memory_order_relaxed);
  }
  return env::WriteFully(env, fd, data, n, path);
}

uint32_t LoadU32(const char* p) {
  uint32_t v = 0;
  std::memcpy(&v, p, 4);
  return v;  // the build targets are little-endian; codec.cc matches
}

uint64_t LoadU64(const char* p) {
  uint64_t v = 0;
  std::memcpy(&v, p, 8);
  return v;
}

void StoreU32(char* p, uint32_t v) { std::memcpy(p, &v, 4); }
void StoreU64(char* p, uint64_t v) { std::memcpy(p, &v, 8); }

uint32_t FrameCrc(uint64_t lsn, const std::string& payload) {
  char lsn_bytes[8];
  StoreU64(lsn_bytes, lsn);
  uint32_t crc = Crc32c(lsn_bytes, sizeof(lsn_bytes));
  crc = Crc32cExtend(crc, payload.data(), payload.size());
  return MaskCrc(crc);
}

}  // namespace

Result<WalFsyncMode> ParseWalFsyncMode(const std::string& name) {
  std::string lower;
  lower.reserve(name.size());
  for (char c : name) lower.push_back(static_cast<char>(std::tolower(c)));
  if (lower == "always") return WalFsyncMode::kAlways;
  if (lower == "batch") return WalFsyncMode::kBatch;
  if (lower == "off") return WalFsyncMode::kOff;
  return Status::InvalidArgument("unknown WAL fsync mode '" + name +
                                 "' (expected always, batch, or off)");
}

const char* WalFsyncModeToString(WalFsyncMode mode) {
  switch (mode) {
    case WalFsyncMode::kAlways:
      return "always";
    case WalFsyncMode::kBatch:
      return "batch";
    case WalFsyncMode::kOff:
      return "off";
  }
  return "?";
}

Result<std::unique_ptr<WalWriter>> WalWriter::Create(const std::string& path,
                                                     uint64_t first_lsn,
                                                     WalFsyncMode mode) {
  DVMS_RETURN_IF_ERROR(fault::MaybeInject(FaultSite::kDurabilityIo));
  Env* env = env::Active();
  DVMS_ASSIGN_OR_RETURN(
      int fd, env->Open(path, O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644));
  std::unique_ptr<WalWriter> writer(new WalWriter(path, fd, 0, mode));
  char header[kWalHeaderBytes];
  std::memcpy(header, kWalMagic, sizeof(kWalMagic));
  StoreU64(header + 8, first_lsn);
  DVMS_RETURN_IF_ERROR(WalFileWrite(env, fd, header, sizeof(header), path));
  writer->offset_ = kWalHeaderBytes;
  // The header must be durable before any frame is acknowledged; a segment
  // with frames but no header would be unrecoverable.
  if (mode != WalFsyncMode::kOff) DVMS_RETURN_IF_ERROR(writer->Sync());
  return writer;
}

Result<std::unique_ptr<WalWriter>> WalWriter::OpenForAppend(
    const std::string& path, uint64_t valid_bytes, WalFsyncMode mode) {
  DVMS_RETURN_IF_ERROR(fault::MaybeInject(FaultSite::kDurabilityIo));
  Env* env = env::Active();
  DVMS_ASSIGN_OR_RETURN(int fd, env->Open(path, O_WRONLY | O_CLOEXEC, 0));
  std::unique_ptr<WalWriter> writer(new WalWriter(path, fd, valid_bytes, mode));
  // Discard any torn tail beyond the validated prefix so new frames are
  // appended contiguously after the last good one.
  DVMS_RETURN_IF_ERROR(env->Ftruncate(fd, valid_bytes, path));
  DVMS_RETURN_IF_ERROR(env->Seek(fd, valid_bytes, path));
  return writer;
}

WalWriter::~WalWriter() {
  if (fd_ >= 0) {
    if (pending_appends_ > 0 && mode_ != WalFsyncMode::kOff) {
      InternalScope internal;  // best-effort final flush
      Flush();
    }
    env::Active()->Close(fd_);
  }
}

Status WalWriter::Append(uint64_t lsn, const std::string& payload) {
  if (fd_ < 0) {
    return Status::ExecutionError("wal: log poisoned by earlier I/O failure");
  }
  if (payload.size() > kMaxWalFramePayload) {
    return Status::InvalidArgument("wal: frame payload too large (" +
                                   std::to_string(payload.size()) + " bytes)");
  }
  obs::Span span("wal.append");
  const int64_t append_start =
      obs::Enabled() ? obs::NowMicros() : 0;
  Env* env = env::Active();
  Status fault = fault::MaybeInject(FaultSite::kDurabilityIo);
  const uint64_t pre_append = offset_;
  const size_t pre_pending = pending_appends_;
  Status st = fault;
  if (st.ok()) {
    char head[kWalFrameOverhead];
    StoreU32(head, static_cast<uint32_t>(payload.size()));
    StoreU32(head + 4, FrameCrc(lsn, payload));
    StoreU64(head + 8, lsn);
    st = WalFileWrite(env, fd_, head, sizeof(head), path_);
    if (st.ok()) {
      st = WalFileWrite(env, fd_, payload.data(), payload.size(), path_);
    }
    if (st.ok()) {
      offset_ = pre_append + kWalFrameOverhead + payload.size();
      ++pending_appends_;
      if (mode_ != WalFsyncMode::kOff) unsynced_.push_back({lsn, payload});
      if (mode_ == WalFsyncMode::kAlways ||
          (mode_ == WalFsyncMode::kBatch &&
           pending_appends_ >= kGroupCommitAppends)) {
        st = Sync();
      }
    }
  }
  if (!st.ok()) {
    if (sync_failed_) {
      // The write landed but its fsync failed: the writer is already
      // poisoned (fd closed — see Sync). This frame's append is being
      // reported failed, so it must not ride along when the manager
      // rotates the retained unsynced frames into a fresh segment.
      if (!unsynced_.empty() && unsynced_.back().lsn == lsn) {
        unsynced_.pop_back();
      }
      return st;
    }
    // Roll the file back to the pre-append length so the caller's failure
    // and the on-disk log agree. Runs internal (never faulted): this *is*
    // the recovery path for an injected append fault. The truncated frame
    // must not keep counting toward the group-commit threshold.
    InternalScope internal;
    pending_appends_ = pre_pending;
    if (!env->Ftruncate(fd_, pre_append, path_).ok() ||
        !env->Seek(fd_, pre_append, path_).ok()) {
      // Can't restore a consistent tail: poison the writer (fail-stop) so
      // no later append lands after a half-written frame.
      env->Close(fd_);
      fd_ = -1;
      return Status::ExecutionError(
          "wal: failed to roll back torn append; log poisoned (" +
          st.message() + ")");
    }
    offset_ = pre_append;
    return st;
  }
  if (obs::Enabled()) {
    obs::Count("wal.appends");
    obs::Count("wal.append_bytes", kWalFrameOverhead + payload.size());
    obs::Observe("wal.append_us",
                 static_cast<double>(obs::NowMicros() - append_start));
  }
  return Status::OK();
}

Status WalWriter::Flush() {
  if (fd_ < 0) {
    return Status::ExecutionError("wal: log poisoned by earlier I/O failure");
  }
  if (pending_appends_ == 0 || mode_ == WalFsyncMode::kOff) {
    return Status::OK();
  }
  return Sync();
}

Status WalWriter::Sync() {
  obs::Span span("wal.fsync");
  const int64_t sync_start = obs::Enabled() ? obs::NowMicros() : 0;
  // The logical durability site fires *before* the fsync is issued: it
  // models a transient failure to reach the sync call at all, so the dirty
  // pages are still intact and the caller may roll back and retry. Only a
  // failure from the fsync itself (real or FaultEnv-injected) means the
  // kernel may have dropped dirty pages — that is the fsyncgate case.
  DVMS_RETURN_IF_ERROR(fault::MaybeInject(FaultSite::kDurabilityIo));
  Status st = env::FsyncOrPoison(env::Active(), &fd_, path_);
  if (!st.ok()) {
    sync_failed_ = true;
    obs::Count("storage.fsync_failures");
    return st;
  }
  synced_offset_ = offset_;
  unsynced_.clear();
  pending_appends_ = 0;
  ++fsyncs_;
  if (obs::Enabled()) {
    obs::Count("wal.fsyncs");
    obs::Observe("wal.fsync_us",
                 static_cast<double>(obs::NowMicros() - sync_start));
  }
  return Status::OK();
}

Result<WalScan> ScanWalSegment(const std::string& path) {
  Env* env = env::Active();
  DVMS_ASSIGN_OR_RETURN(int fd, env->Open(path, O_RDONLY | O_CLOEXEC, 0));
  struct FdCloser {
    Env* env;
    int fd;
    ~FdCloser() { env->Close(fd); }
  } closer{env, fd};

  WalScan scan;
  char header[kWalHeaderBytes];
  size_t got = 0;
  DVMS_RETURN_IF_ERROR(
      env::ReadFully(env, fd, header, sizeof(header), path, &got));
  if (got < sizeof(header) ||
      std::memcmp(header, kWalMagic, sizeof(kWalMagic)) != 0) {
    // Format violation, not an I/O failure: report it through the scan so
    // recovery can truncate here, reserving Status for errors where the
    // bytes themselves might still be fine.
    scan.bad_header = true;
    scan.tail_truncated = true;
    scan.tail_error = "short or invalid segment header in " + path;
    return scan;
  }
  scan.first_lsn = LoadU64(header + 8);
  scan.valid_bytes = kWalHeaderBytes;

  uint64_t expected_lsn = scan.first_lsn;
  std::string payload;
  for (;;) {
    char head[kWalFrameOverhead];
    DVMS_RETURN_IF_ERROR(
        env::ReadFully(env, fd, head, sizeof(head), path, &got));
    if (got == 0) break;  // clean EOF on a frame boundary
    if (got < sizeof(head)) {
      scan.tail_truncated = true;
      scan.tail_error = "torn frame header";
      break;
    }
    uint32_t len = LoadU32(head);
    uint32_t stored_crc = LoadU32(head + 4);
    uint64_t lsn = LoadU64(head + 8);
    if (len > kMaxWalFramePayload) {
      scan.tail_truncated = true;
      scan.tail_error = "implausible frame length " + std::to_string(len);
      break;
    }
    payload.resize(len);
    DVMS_RETURN_IF_ERROR(env::ReadFully(env, fd, payload.data(), len, path,
                                        &got));
    if (got < len) {
      scan.tail_truncated = true;
      scan.tail_error = "torn frame payload";
      break;
    }
    if (stored_crc != FrameCrc(lsn, payload)) {
      scan.tail_truncated = true;
      scan.tail_error = "frame checksum mismatch at lsn " + std::to_string(lsn);
      break;
    }
    if (lsn != expected_lsn) {
      scan.tail_truncated = true;
      scan.tail_error = "lsn discontinuity (expected " +
                        std::to_string(expected_lsn) + ", found " +
                        std::to_string(lsn) + ")";
      break;
    }
    scan.frames.push_back(WalFrame{lsn, payload});
    scan.valid_bytes += kWalFrameOverhead + len;
    ++expected_lsn;
  }
  return scan;
}

namespace durability_testing {

void CrashAfterWalBytes(int64_t n) {
  g_crash_after_wal_bytes.store(n, std::memory_order_relaxed);
}

}  // namespace durability_testing

}  // namespace dvms
