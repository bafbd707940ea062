#include "durability/manager.h"

#include <fcntl.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "common/env.h"
#include "common/fault.h"
#include "common/request_context.h"
#include "obs/trace.h"
#include "durability/crc32c.h"

namespace dvms {

namespace {

constexpr char kSnapshotMagic[8] = {'D', 'V', 'M', 'S', 'S', 'N', 'P', '1'};
constexpr size_t kSnapshotHeaderBytes = 28;  // magic + last_lsn + len + crc

/// mkdir -p. Treats an existing directory as success.
Status MakeDirs(const std::string& dir) {
  Env* env = env::Active();
  std::string partial;
  size_t pos = 0;
  while (pos <= dir.size()) {
    size_t slash = dir.find('/', pos);
    partial = dir.substr(0, slash == std::string::npos ? dir.size() : slash);
    if (!partial.empty() && partial != "/") {
      DVMS_RETURN_IF_ERROR(env->Mkdir(partial));
    }
    if (slash == std::string::npos) break;
    pos = slash + 1;
  }
  return Status::OK();
}

/// Parses "<prefix><20-digit lsn><suffix>" filenames; nullopt-style via ok.
bool ParseNumberedName(const std::string& name, const char* prefix,
                       const char* suffix, uint64_t* lsn) {
  size_t prefix_len = std::strlen(prefix);
  size_t suffix_len = std::strlen(suffix);
  if (name.size() <= prefix_len + suffix_len) return false;
  if (name.compare(0, prefix_len, prefix) != 0) return false;
  if (name.compare(name.size() - suffix_len, suffix_len, suffix) != 0) {
    return false;
  }
  std::string digits =
      name.substr(prefix_len, name.size() - prefix_len - suffix_len);
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *lsn = std::strtoull(digits.c_str(), nullptr, 10);
  return true;
}

/// LSN-tagged files of one kind in the directory, sorted ascending by LSN.
Result<std::vector<uint64_t>> ListNumbered(const std::string& dir,
                                           const char* prefix,
                                           const char* suffix) {
  DVMS_ASSIGN_OR_RETURN(std::vector<std::string> names,
                        env::Active()->ListDir(dir));
  std::vector<uint64_t> lsns;
  for (const std::string& name : names) {
    uint64_t lsn = 0;
    if (ParseNumberedName(name, prefix, suffix, &lsn)) {
      lsns.push_back(lsn);
    }
  }
  std::sort(lsns.begin(), lsns.end());
  return lsns;
}

void StoreU32(char* p, uint32_t v) { std::memcpy(p, &v, 4); }
void StoreU64(char* p, uint64_t v) { std::memcpy(p, &v, 8); }
uint32_t LoadU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
uint64_t LoadU64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

}  // namespace

Result<std::pair<uint64_t, std::string>> ReadSnapshotFile(
    const std::string& path) {
  Env* env = env::Active();
  DVMS_ASSIGN_OR_RETURN(int fd, env->Open(path, O_RDONLY | O_CLOEXEC, 0));
  struct FdCloser {
    Env* env;
    int fd;
    ~FdCloser() { env->Close(fd); }
  } closer{env, fd};

  char header[kSnapshotHeaderBytes];
  size_t got = 0;
  DVMS_RETURN_IF_ERROR(
      env::ReadFully(env, fd, header, sizeof(header), path, &got));
  if (got < sizeof(header) ||
      std::memcmp(header, kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    return Status::ExecutionError("durability: " + path +
                                  " has a short or invalid snapshot header");
  }
  uint64_t last_lsn = LoadU64(header + 8);
  uint64_t payload_len = LoadU64(header + 16);
  uint32_t stored_crc = LoadU32(header + 24);
  DVMS_ASSIGN_OR_RETURN(uint64_t file_size, env->FileSize(fd, path));
  if (payload_len != file_size - kSnapshotHeaderBytes) {
    return Status::ExecutionError("durability: " + path +
                                  " payload length disagrees with file size");
  }
  std::string payload(payload_len, '\0');
  DVMS_RETURN_IF_ERROR(
      env::ReadFully(env, fd, payload.data(), payload_len, path, &got));
  if (got < payload_len) {
    return Status::ExecutionError("durability: " + path +
                                  " truncated mid-payload");
  }
  // The checksum covers last_lsn as well as the payload: a flipped bit in
  // the header would otherwise silently shift the recovery resume point.
  if (stored_crc !=
      MaskCrc(Crc32cExtend(Crc32c(header + 8, 8), payload.data(),
                           payload.size()))) {
    return Status::ExecutionError("durability: " + path +
                                  " failed checksum validation");
  }
  return std::make_pair(last_lsn, std::move(payload));
}

std::string WalSegmentPath(const std::string& dir, uint64_t first_lsn) {
  char name[64];
  std::snprintf(name, sizeof(name), "wal-%020" PRIu64 ".log", first_lsn);
  return dir + "/" + name;
}

std::string WalSnapshotPath(const std::string& dir, uint64_t last_lsn) {
  char name[64];
  std::snprintf(name, sizeof(name), "snapshot-%020" PRIu64 ".snap", last_lsn);
  return dir + "/" + name;
}

Result<std::vector<uint64_t>> ListWalSegments(const std::string& dir) {
  return ListNumbered(dir, "wal-", ".log");
}

Result<std::vector<uint64_t>> ListWalSnapshots(const std::string& dir) {
  return ListNumbered(dir, "snapshot-", ".snap");
}

std::string DurabilityManager::SegmentPath(uint64_t first_lsn) const {
  return WalSegmentPath(dir_, first_lsn);
}

std::string DurabilityManager::SnapshotPath(uint64_t last_lsn) const {
  return WalSnapshotPath(dir_, last_lsn);
}

bool DurabilityManager::UnlinkCounted(const std::string& path) {
  Status st = env::Active()->Unlink(path);
  if (st.ok()) return true;
  ++stats_.unlink_failures;
  obs::Count("storage.unlink_failed");
  if (!unlink_warned_) {
    unlink_warned_ = true;
    std::fprintf(stderr, "dvms: failed to remove %s: %s\n", path.c_str(),
                 st.message().c_str());
  }
  return false;
}

Result<std::unique_ptr<DurabilityManager>> DurabilityManager::Open(
    std::string dir, WalFsyncMode mode) {
  while (dir.size() > 1 && dir.back() == '/') dir.pop_back();
  DVMS_RETURN_IF_ERROR(MakeDirs(dir));
  return std::unique_ptr<DurabilityManager>(
      new DurabilityManager(std::move(dir), mode));
}

Result<RecoveredLog> DurabilityManager::Recover() {
  if (recovered_) {
    return Status::Internal("durability: Recover() called twice");
  }
  recovered_ = true;
  RecoveredLog out;

  // Newest snapshot whose checksum validates wins; corrupt ones are skipped
  // (they can only arise from external damage — writes are atomic).
  DVMS_ASSIGN_OR_RETURN(std::vector<uint64_t> snaps,
                        ListNumbered(dir_, "snapshot-", ".snap"));
  for (auto it = snaps.rbegin(); it != snaps.rend(); ++it) {
    Result<std::pair<uint64_t, std::string>> snap =
        ReadSnapshotFile(SnapshotPath(*it));
    if (!snap.ok()) {
      ++stats_.snapshots_discarded;
      std::fprintf(stderr, "dvms: ignoring corrupt snapshot %s: %s\n",
                   SnapshotPath(*it).c_str(),
                   snap.status().message().c_str());
      continue;
    }
    out.has_snapshot = true;
    out.snapshot_lsn = snap.value().first;
    out.snapshot_payload = std::move(snap.value().second);
    break;
  }

  // Scan segments in LSN order, keeping the contiguous valid frame run that
  // extends past the snapshot. The first *corrupt* frame (or inter-segment
  // gap) truncates the log there: the file is cut back to its valid prefix
  // and every later segment is deleted. An I/O error, by contrast, aborts
  // recovery with the directory untouched — the failure may be transient
  // (EMFILE, EACCES, a flaky read) and the frames behind it perfectly
  // valid, so pruning on that evidence would destroy acknowledged writes.
  DVMS_ASSIGN_OR_RETURN(std::vector<uint64_t> segments,
                        ListNumbered(dir_, "wal-", ".log"));
  uint64_t next_lsn =
      out.has_snapshot ? out.snapshot_lsn + 1 : (segments.empty() ? 1 : 0);
  std::string tail_path;      // last surviving segment
  uint64_t tail_valid = 0;    // its validated byte length
  uint64_t tail_next_lsn = 0; // one past its last valid frame
  size_t cut_from = segments.size();
  for (size_t i = 0; i < segments.size(); ++i) {
    const std::string path = SegmentPath(segments[i]);
    DVMS_ASSIGN_OR_RETURN(WalScan scan, ScanWalSegment(path));
    if (scan.bad_header) {
      // Checksum/format evidence: the file itself is garbage. Truncate the
      // log here, as for any corrupt tail.
      stats_.tail_truncations++;
      stats_.tail_error = scan.tail_error;
      cut_from = i;
      break;
    }
    if (next_lsn == 0) next_lsn = scan.first_lsn;  // no snapshot: start here
    // A segment must continue the run: its frames start at its header LSN,
    // and the run's next expected LSN must fall within [first_lsn, end].
    if (scan.first_lsn > next_lsn) {
      stats_.tail_truncations++;
      stats_.tail_error = "segment " + path + " starts at lsn " +
                          std::to_string(scan.first_lsn) + ", expected " +
                          std::to_string(next_lsn);
      cut_from = i;
      break;
    }
    for (WalFrame& frame : scan.frames) {
      if (frame.lsn < next_lsn) continue;  // predates the snapshot
      out.frames.push_back(std::move(frame));
      ++next_lsn;
    }
    tail_path = path;
    tail_valid = scan.valid_bytes;
    tail_next_lsn = scan.first_lsn + scan.frames.size();
    if (scan.tail_truncated) {
      stats_.tail_truncations++;
      stats_.tail_error = scan.tail_error;
      cut_from = i + 1;
      break;
    }
  }
  for (size_t i = cut_from; i < segments.size(); ++i) {
    if (SegmentPath(segments[i]) == tail_path) continue;
    if (UnlinkCounted(SegmentPath(segments[i]))) {
      ++stats_.segments_pruned;
    }
  }

  last_lsn_ = next_lsn == 0 ? 0 : next_lsn - 1;
  stats_.recovered_from_snapshot = out.has_snapshot;
  stats_.recovered_lsn = last_lsn_;
  stats_.frames_replayed = out.frames.size();

  if (!tail_path.empty() && last_lsn_ + 1 == tail_next_lsn) {
    DVMS_ASSIGN_OR_RETURN(writer_,
                          WalWriter::OpenForAppend(tail_path, tail_valid, mode_));
  } else {
    if (!tail_path.empty()) {
      // The resume point is past the tail's last frame: a snapshot covers
      // LSNs whose frames never reached this segment (possible when a crash
      // under DVMS_WAL_FSYNC=off loses unsynced frames that an fsynced
      // snapshot had already superseded). Appending here would leave an
      // in-segment LSN gap the next recovery must truncate as corruption,
      // so seal the tail at its valid prefix and rotate to a fresh segment
      // starting at the resume LSN.
      DVMS_RETURN_IF_ERROR(env::Active()->Truncate(tail_path, tail_valid));
    }
    DVMS_ASSIGN_OR_RETURN(
        writer_, WalWriter::Create(SegmentPath(last_lsn_ + 1), last_lsn_ + 1,
                                   mode_));
    DVMS_RETURN_IF_ERROR(env::Active()->SyncDir(dir_));
  }
  return out;
}

Status DurabilityManager::RotateAfterFsyncFailure() {
  // This *is* the recovery path for the failed fsync: it must not be
  // re-faulted while undoing the damage, and the crash harness's rollback
  // scopes expect the same exemption.
  InternalScope internal;
  Env* env = env::Active();
  std::vector<WalFrame> retained = writer_->TakeUnsyncedFrames();
  const uint64_t synced = writer_->synced_offset();
  const std::string old_path = writer_->path();
  writer_.reset();  // fd already closed by the fsyncgate poison
  // The unsynced tail of the old segment may be garbage — the kernel was
  // free to drop those dirty pages when the fsync failed. Cut the file
  // back to the prefix the last successful fsync made durable.
  DVMS_RETURN_IF_ERROR(env->Truncate(old_path, synced));
  const uint64_t first =
      retained.empty() ? last_lsn_ + 1 : retained.front().lsn;
  DVMS_ASSIGN_OR_RETURN(std::unique_ptr<WalWriter> next,
                        WalWriter::Create(SegmentPath(first), first, mode_));
  for (const WalFrame& frame : retained) {
    DVMS_RETURN_IF_ERROR(next->Append(frame.lsn, frame.payload));
  }
  // Re-establish durability of the previously acknowledged frames by
  // rewriting and syncing them in the fresh segment — never by assuming a
  // retried fsync on the old fd would have covered them.
  DVMS_RETURN_IF_ERROR(next->Flush());
  DVMS_RETURN_IF_ERROR(env->SyncDir(dir_));
  writer_ = std::move(next);
  ++stats_.fsync_rotations;
  obs::Count("storage.fsync_rotations");
  return Status::OK();
}

Status DurabilityManager::HandleWriterFailure(Status st) {
  if (writer_ == nullptr || !writer_->sync_failed()) return st;
  Status rotated = RotateAfterFsyncFailure();
  if (!rotated.ok()) {
    // Rotation could not re-establish a durable log: terminal. Drop the
    // writer so every later append fails fast instead of appending after
    // an untrustworthy tail.
    writer_.reset();
    return Status::ExecutionError(
        "durability: fsync failed and segment rotation failed (" +
        rotated.message() + "); original failure: " + st.message());
  }
  return st;
}

Status DurabilityManager::Append(uint64_t lsn, const std::string& payload) {
  if (!recovered_ || writer_ == nullptr) {
    return Status::Internal("durability: Append() before successful Recover()");
  }
  if (lsn != last_lsn_ + 1) {
    return Status::Internal("durability: non-consecutive lsn " +
                            std::to_string(lsn) + " (log is at " +
                            std::to_string(last_lsn_) + ")");
  }
  Status st = writer_->Append(lsn, payload);
  if (!st.ok()) return HandleWriterFailure(std::move(st));
  last_lsn_ = lsn;
  ++stats_.frames_appended;
  return Status::OK();
}

Status DurabilityManager::Flush() {
  if (writer_ == nullptr) return Status::OK();
  Status st = writer_->Flush();
  if (!st.ok()) return HandleWriterFailure(std::move(st));
  return Status::OK();
}

Status DurabilityManager::WriteSnapshot(uint64_t last_lsn,
                                        const std::string& payload) {
  if (!recovered_) {
    return Status::Internal("durability: snapshot before Recover()");
  }
  obs::Span span("snapshot.write");
  obs::Count("snapshot.writes");
  obs::Count("snapshot.bytes", payload.size());
  DVMS_RETURN_IF_ERROR(fault::MaybeInject(FaultSite::kDurabilityIo));

  // Frames covered by the snapshot must be durable before the snapshot can
  // supersede them (it may cause their segment to be pruned).
  DVMS_RETURN_IF_ERROR(Flush());

  Env* env = env::Active();
  const std::string final_path = SnapshotPath(last_lsn);
  const std::string tmp_path = final_path + ".tmp";
  char header[kSnapshotHeaderBytes];
  std::memcpy(header, kSnapshotMagic, sizeof(kSnapshotMagic));
  StoreU64(header + 8, last_lsn);
  StoreU64(header + 16, payload.size());
  StoreU32(header + 24, MaskCrc(Crc32cExtend(Crc32c(header + 8, 8),
                                             payload.data(), payload.size())));

  DVMS_ASSIGN_OR_RETURN(
      int fd, env->Open(tmp_path, O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC,
                        0644));
  Status st = env::WriteFully(env, fd, header, sizeof(header), tmp_path);
  if (st.ok()) {
    st = env::WriteFully(env, fd, payload.data(), payload.size(), tmp_path);
  }
  // A failed snapshot fsync needs no rotation dance: the tmp file is
  // simply abandoned before the rename, so the snapshot is never
  // acknowledged and the previous one stays authoritative.
  if (st.ok()) st = env::FsyncOrPoison(env, &fd, tmp_path);
  env->Close(fd);
  if (st.ok()) st = env->Rename(tmp_path, final_path);
  if (!st.ok()) {
    InternalScope internal;  // cleanup of the failure, not new work
    UnlinkCounted(tmp_path);
    return st;
  }
  DVMS_RETURN_IF_ERROR(env->SyncDir(dir_));
  ++stats_.snapshots_written;

  // Rotate so the next interval's frames land in a fresh segment; failure
  // keeps appending to the current segment (recovery handles both layouts).
  Result<std::unique_ptr<WalWriter>> next =
      WalWriter::Create(SegmentPath(last_lsn + 1), last_lsn + 1, mode_);
  if (next.ok()) {
    writer_ = std::move(next).value();
    Status dir_st = env->SyncDir(dir_);
    if (!dir_st.ok()) return dir_st;
  }
  PruneObsoleteFiles();
  return Status::OK();
}

void DurabilityManager::PruneObsoleteFiles() {
  // Keep the two newest snapshots so a corrupt newest still leaves a
  // recoverable older one.
  Result<std::vector<uint64_t>> snaps = ListNumbered(dir_, "snapshot-", ".snap");
  if (!snaps.ok()) return;
  uint64_t oldest_retained_snap = 0;
  if (snaps.value().size() > 2) {
    for (size_t i = 0; i + 2 < snaps.value().size(); ++i) {
      UnlinkCounted(SnapshotPath(snaps.value()[i]));
    }
  }
  if (snaps.value().size() >= 2) {
    oldest_retained_snap = snaps.value()[snaps.value().size() - 2];
  } else if (!snaps.value().empty()) {
    oldest_retained_snap = snaps.value().back();
  } else {
    return;  // no snapshot: every segment is still needed
  }

  // A segment is obsolete once the *next* segment begins at or before the
  // oldest retained snapshot's successor — everything in it is at an LSN
  // some retained snapshot already covers.
  Result<std::vector<uint64_t>> segments = ListNumbered(dir_, "wal-", ".log");
  if (!segments.ok()) return;
  for (size_t i = 0; i + 1 < segments.value().size(); ++i) {
    if (segments.value()[i + 1] <= oldest_retained_snap + 1) {
      if (UnlinkCounted(SegmentPath(segments.value()[i]))) {
        ++stats_.segments_pruned;
      }
    }
  }
}

DurabilityStats DurabilityManager::stats() const {
  DurabilityStats s = stats_;
  if (writer_ != nullptr) s.fsyncs = writer_->fsyncs();
  return s;
}

}  // namespace dvms
