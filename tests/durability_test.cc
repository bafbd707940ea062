// Durability unit coverage: CRC vectors, WAL frame round-trips and
// truncate-at-corruption scans, atomic snapshot files with fallback to an
// older generation, the WalRecord / snapshot codecs, and full engine
// restart recovery (including `@vnow-k` / `@tnow-j` reads against a
// recovered instance). The randomized crash harness lives in
// crash_recovery_test.cc; this file is the fast, deterministic half.

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/fault.h"
#include "core/dvms.h"
#include "durability/crc32c.h"
#include "durability/log_record.h"
#include "durability/manager.h"
#include "durability/snapshot.h"
#include "durability/tailer.h"
#include "durability/wal.h"
#include "parser/parser.h"
#include "workload/tpch.h"
#include "gtest/gtest.h"

namespace dvms {
namespace {

namespace fs = std::filesystem;

/// A fresh directory under the test temp root, removed on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    static int counter = 0;
    path_ = fs::path(::testing::TempDir()) /
            ("dvms_" + tag + "_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++));
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }
  fs::path path() const { return path_; }

 private:
  fs::path path_;
};

std::string ReadAll(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void WriteAll(const fs::path& p, const std::string& bytes) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out << bytes;
}

std::vector<fs::path> ListDir(const fs::path& dir, const std::string& ext) {
  std::vector<fs::path> files;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() == ext) files.push_back(e.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

// ---------------------------------------------------------------------------
// CRC-32C
// ---------------------------------------------------------------------------

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 / iSCSI test vectors.
  EXPECT_EQ(Crc32c("", 0), 0x00000000u);
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  std::string ff(32, '\xff');
  EXPECT_EQ(Crc32c(ff.data(), ff.size()), 0x62A8AB43u);
}

TEST(Crc32cTest, ExtendMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  for (size_t split = 0; split <= data.size(); split += 7) {
    uint32_t head = Crc32c(data.data(), split);
    uint32_t full = Crc32cExtend(head, data.data() + split,
                                 data.size() - split);
    EXPECT_EQ(full, Crc32c(data.data(), data.size())) << "split=" << split;
  }
}

TEST(Crc32cTest, MaskRoundTripsAndDiffers) {
  for (uint32_t crc : {0u, 1u, 0xE3069283u, 0xFFFFFFFFu, 0xdeadbeefu}) {
    EXPECT_EQ(UnmaskCrc(MaskCrc(crc)), crc);
    EXPECT_NE(MaskCrc(crc), crc);
  }
}

// ---------------------------------------------------------------------------
// Fsync-mode parsing (DVMS_WAL_FSYNC)
// ---------------------------------------------------------------------------

TEST(WalFsyncModeTest, ParsesAndRejects) {
  EXPECT_EQ(ParseWalFsyncMode("always").value(), WalFsyncMode::kAlways);
  EXPECT_EQ(ParseWalFsyncMode("Batch").value(), WalFsyncMode::kBatch);
  EXPECT_EQ(ParseWalFsyncMode("OFF").value(), WalFsyncMode::kOff);
  EXPECT_FALSE(ParseWalFsyncMode("").ok());
  EXPECT_FALSE(ParseWalFsyncMode("sometimes").ok());
  for (WalFsyncMode m :
       {WalFsyncMode::kAlways, WalFsyncMode::kBatch, WalFsyncMode::kOff}) {
    EXPECT_EQ(ParseWalFsyncMode(WalFsyncModeToString(m)).value(), m);
  }
}

// ---------------------------------------------------------------------------
// WAL segments: frame round-trip and truncate-at-corruption
// ---------------------------------------------------------------------------

std::string SegPath(const TempDir& dir) {
  return (dir.path() / "wal-00000000000000000001.log").string();
}

TEST(WalSegmentTest, FramesRoundTrip) {
  TempDir dir("wal_roundtrip");
  const std::string path = SegPath(dir);
  {
    auto writer = WalWriter::Create(path, 1, WalFsyncMode::kAlways).value();
    ASSERT_TRUE(writer->Append(1, "alpha").ok());
    ASSERT_TRUE(writer->Append(2, "").ok());  // empty payloads are legal
    ASSERT_TRUE(writer->Append(3, std::string(1000, 'z')).ok());
    EXPECT_GT(writer->fsyncs(), 0u);
  }
  WalScan scan = ScanWalSegment(path).value();
  EXPECT_EQ(scan.first_lsn, 1u);
  ASSERT_EQ(scan.frames.size(), 3u);
  EXPECT_EQ(scan.frames[0].lsn, 1u);
  EXPECT_EQ(scan.frames[0].payload, "alpha");
  EXPECT_EQ(scan.frames[1].payload, "");
  EXPECT_EQ(scan.frames[2].payload, std::string(1000, 'z'));
  EXPECT_FALSE(scan.tail_truncated);
  EXPECT_EQ(scan.valid_bytes, fs::file_size(path));
}

TEST(WalSegmentTest, BitFlipTruncatesAtCorruptFrame) {
  TempDir dir("wal_bitflip");
  const std::string path = SegPath(dir);
  {
    auto writer = WalWriter::Create(path, 1, WalFsyncMode::kOff).value();
    for (uint64_t lsn = 1; lsn <= 3; ++lsn) {
      ASSERT_TRUE(writer->Append(lsn, "payload-" + std::to_string(lsn)).ok());
    }
  }
  std::string bytes = ReadAll(path);
  WalScan clean = ScanWalSegment(path).value();
  ASSERT_EQ(clean.frames.size(), 3u);

  // Flip one bit inside the *last* frame: first two frames must survive.
  std::string mangled = bytes;
  mangled[bytes.size() - 3] ^= 0x40;
  WriteAll(path, mangled);
  WalScan scan = ScanWalSegment(path).value();
  ASSERT_EQ(scan.frames.size(), 2u);
  EXPECT_TRUE(scan.tail_truncated);
  EXPECT_FALSE(scan.tail_error.empty());
  EXPECT_LT(scan.valid_bytes, bytes.size());

  // Flip a bit in the *first* frame: nothing survives, scan still succeeds.
  mangled = bytes;
  mangled[kWalHeaderBytes + kWalFrameOverhead] ^= 0x01;
  WriteAll(path, mangled);
  scan = ScanWalSegment(path).value();
  EXPECT_EQ(scan.frames.size(), 0u);
  EXPECT_TRUE(scan.tail_truncated);
  EXPECT_EQ(scan.valid_bytes, kWalHeaderBytes);
}

TEST(WalSegmentTest, TornTailIsDetectedAtEveryCut) {
  TempDir dir("wal_torn");
  const std::string path = SegPath(dir);
  {
    auto writer = WalWriter::Create(path, 1, WalFsyncMode::kOff).value();
    ASSERT_TRUE(writer->Append(1, "first-frame").ok());
    ASSERT_TRUE(writer->Append(2, "second-frame").ok());
  }
  const std::string bytes = ReadAll(path);
  const uint64_t first_end =
      kWalHeaderBytes + kWalFrameOverhead + std::string("first-frame").size();
  // Cut the file at every byte boundary inside the second frame: the scan
  // must always keep exactly the first frame and flag a torn tail.
  for (size_t cut = first_end + 1; cut < bytes.size(); ++cut) {
    WriteAll(path, bytes.substr(0, cut));
    WalScan scan = ScanWalSegment(path).value();
    ASSERT_EQ(scan.frames.size(), 1u) << "cut=" << cut;
    EXPECT_EQ(scan.frames[0].payload, "first-frame");
    EXPECT_TRUE(scan.tail_truncated) << "cut=" << cut;
    EXPECT_EQ(scan.valid_bytes, first_end) << "cut=" << cut;
  }
}

TEST(WalSegmentTest, SplicedFrameFromOtherLsnRejected) {
  // The CRC covers the LSN, so copying an intact frame to a different log
  // position must not validate.
  TempDir dir("wal_splice");
  const std::string path = SegPath(dir);
  uint64_t frame1_end = 0;
  {
    auto writer = WalWriter::Create(path, 1, WalFsyncMode::kOff).value();
    ASSERT_TRUE(writer->Append(1, "same-size-1").ok());
    frame1_end = writer->bytes_written();
    ASSERT_TRUE(writer->Append(2, "same-size-2").ok());
  }
  std::string bytes = ReadAll(path);
  // Overwrite frame 2 with a byte-copy of frame 1 (same length payloads).
  std::string frame1 = bytes.substr(kWalHeaderBytes,
                                    frame1_end - kWalHeaderBytes);
  bytes.replace(frame1_end, frame1.size(), frame1);
  WriteAll(path, bytes);
  WalScan scan = ScanWalSegment(path).value();
  ASSERT_EQ(scan.frames.size(), 1u);
  EXPECT_TRUE(scan.tail_truncated);  // duplicate LSN = discontinuity
}

TEST(WalSegmentTest, BadHeaderReportedThroughScanNotStatus) {
  // A mangled or short header is corruption evidence, not an I/O failure:
  // the scan succeeds and flags bad_header so recovery can truncate here,
  // while a file that cannot be opened at all still errors.
  TempDir dir("wal_magic");
  const std::string path = SegPath(dir);
  WriteAll(path, "NOTAWAL!\x01\x00\x00\x00\x00\x00\x00\x00");
  WalScan scan = ScanWalSegment(path).value();
  EXPECT_TRUE(scan.bad_header);
  EXPECT_TRUE(scan.tail_truncated);
  EXPECT_TRUE(scan.frames.empty());
  EXPECT_EQ(scan.valid_bytes, 0u);
  EXPECT_FALSE(scan.tail_error.empty());

  WriteAll(path, "DVMSWAL");  // shorter than the header
  scan = ScanWalSegment(path).value();
  EXPECT_TRUE(scan.bad_header);
  EXPECT_TRUE(scan.frames.empty());

  EXPECT_FALSE(ScanWalSegment((dir.path() / "missing.log").string()).ok());
}

TEST(WalSegmentTest, OpenForAppendDropsTornTailAndContinues) {
  TempDir dir("wal_reopen");
  const std::string path = SegPath(dir);
  {
    auto writer = WalWriter::Create(path, 1, WalFsyncMode::kOff).value();
    ASSERT_TRUE(writer->Append(1, "kept").ok());
    ASSERT_TRUE(writer->Append(2, "torn").ok());
  }
  WalScan before = ScanWalSegment(path).value();
  const uint64_t keep = kWalHeaderBytes + kWalFrameOverhead + 4;
  // Simulate a torn tail, then reopen at the valid prefix and append anew.
  WriteAll(path, ReadAll(path).substr(0, keep + 5));
  {
    auto writer =
        WalWriter::OpenForAppend(path, keep, WalFsyncMode::kAlways).value();
    ASSERT_TRUE(writer->Append(2, "replacement").ok());
  }
  WalScan after = ScanWalSegment(path).value();
  ASSERT_EQ(after.frames.size(), 2u);
  EXPECT_EQ(after.frames[0].payload, "kept");
  EXPECT_EQ(after.frames[1].payload, "replacement");
  EXPECT_FALSE(after.tail_truncated);
  (void)before;
}

TEST(WalSegmentTest, BatchModeSyncsEveryGroupAndOnFlush) {
  TempDir dir("wal_batch");
  const std::string path = SegPath(dir);
  auto writer = WalWriter::Create(path, 1, WalFsyncMode::kBatch).value();
  const uint64_t base = writer->fsyncs();
  for (uint64_t lsn = 1; lsn < kGroupCommitAppends; ++lsn) {
    ASSERT_TRUE(writer->Append(lsn, "x").ok());
  }
  EXPECT_EQ(writer->fsyncs(), base);  // below the group threshold
  ASSERT_TRUE(writer->Append(kGroupCommitAppends, "x").ok());
  EXPECT_EQ(writer->fsyncs(), base + 1);  // group boundary forced a sync
  ASSERT_TRUE(writer->Append(kGroupCommitAppends + 1, "x").ok());
  ASSERT_TRUE(writer->Flush().ok());
  EXPECT_EQ(writer->fsyncs(), base + 2);
  ASSERT_TRUE(writer->Flush().ok());  // nothing pending: no extra fsync
  EXPECT_EQ(writer->fsyncs(), base + 2);
}

TEST(WalSegmentTest, FailedSyncRollsBackGroupCommitAccounting) {
  // A frame whose group-boundary fsync fails is truncated away; it must not
  // keep counting toward the next sync threshold.
  TempDir dir("wal_pending");
  const std::string path = SegPath(dir);
  auto writer = WalWriter::Create(path, 1, WalFsyncMode::kBatch).value();
  for (uint64_t lsn = 1; lsn < kGroupCommitAppends; ++lsn) {
    ASSERT_TRUE(writer->Append(lsn, "x").ok());
  }
  ASSERT_EQ(writer->pending_appends(), kGroupCommitAppends - 1);
  const uint64_t bytes_before = writer->bytes_written();

  // Find a seed whose deterministic durability schedule passes the
  // append-entry check (draw 0) and fires inside Sync() (draw 1).
  FaultConfig config = ParseFaultSpec("1:0.5:durability").value();
  for (uint64_t seed = 1;; ++seed) {
    ASSERT_LT(seed, 10000u) << "no seed fails exactly the sync draw";
    config.seed = seed;
    FaultInjector probe(config);
    bool entry = probe.ShouldInject(FaultSite::kDurabilityIo);
    bool sync = probe.ShouldInject(FaultSite::kDurabilityIo);
    if (!entry && sync) break;
  }
  {
    ScopedFaultInjector scoped(config);
    Status st = writer->Append(kGroupCommitAppends, "x");
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("injected fault"), std::string::npos);
  }
  EXPECT_EQ(writer->pending_appends(), kGroupCommitAppends - 1);
  EXPECT_EQ(writer->bytes_written(), bytes_before);

  // The retry lands normally and syncs at the group boundary.
  const uint64_t syncs_before = writer->fsyncs();
  ASSERT_TRUE(writer->Append(kGroupCommitAppends, "x").ok());
  EXPECT_EQ(writer->pending_appends(), 0u);
  EXPECT_EQ(writer->fsyncs(), syncs_before + 1);
  WalScan scan = ScanWalSegment(path).value();
  EXPECT_EQ(scan.frames.size(), kGroupCommitAppends);
  EXPECT_FALSE(scan.tail_truncated);
}

// ---------------------------------------------------------------------------
// WalTailer + ReadLogReadOnly: the replication read path over a primary's
// directory. These cover the resume-LSN edge cases a live primary creates:
// growth between polls, torn tails that complete later, rotation, pruning.
// ---------------------------------------------------------------------------

TEST(WalTailerTest, DeliversNewFramesAcrossPolls) {
  TempDir dir("tail_grow");
  const std::string path = SegPath(dir);
  {
    auto writer = WalWriter::Create(path, 1, WalFsyncMode::kOff).value();
    for (uint64_t lsn = 1; lsn <= 3; ++lsn) {
      ASSERT_TRUE(writer->Append(lsn, "p" + std::to_string(lsn)).ok());
    }
  }
  WalTailer tailer(dir.str(), 0);
  std::vector<WalFrame> batch = tailer.Poll().value();
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].lsn, 1u);
  EXPECT_EQ(batch[2].payload, "p3");
  EXPECT_EQ(tailer.delivered_lsn(), 3u);
  EXPECT_TRUE(tailer.Poll().value().empty());  // caught up: empty, no error

  // The primary appends more; the next poll picks up exactly the suffix.
  const uint64_t keep = fs::file_size(path);
  {
    auto writer =
        WalWriter::OpenForAppend(path, keep, WalFsyncMode::kOff).value();
    ASSERT_TRUE(writer->Append(4, "p4").ok());
    ASSERT_TRUE(writer->Append(5, "p5").ok());
  }
  batch = tailer.Poll().value();
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].lsn, 4u);
  EXPECT_EQ(batch[1].payload, "p5");
  EXPECT_EQ(tailer.stats().frames_delivered, 5u);
}

TEST(WalTailerTest, TornTailRetriedThenDeliveredWhenComplete) {
  TempDir dir("tail_torn");
  const std::string path = SegPath(dir);
  {
    auto writer = WalWriter::Create(path, 1, WalFsyncMode::kOff).value();
    ASSERT_TRUE(writer->Append(1, "first-frame").ok());
    ASSERT_TRUE(writer->Append(2, "second-frame").ok());
  }
  const std::string bytes = ReadAll(path);
  // Tear the tail mid-frame-2: the poll delivers the valid prefix and notes
  // a retry — never an error, never the torn frame.
  WriteAll(path, bytes.substr(0, bytes.size() - 5));
  WalTailer tailer(dir.str(), 0);
  std::vector<WalFrame> batch = tailer.Poll().value();
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].payload, "first-frame");
  EXPECT_EQ(tailer.stats().torn_tail_retries, 1u);

  // The in-flight append completes on the primary; the retry delivers it.
  WriteAll(path, bytes);
  batch = tailer.Poll().value();
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].lsn, 2u);
  EXPECT_EQ(batch[0].payload, "second-frame");
}

TEST(WalTailerTest, DrainsAcrossSegmentRotation) {
  TempDir dir("tail_rotate");
  {
    auto w1 = WalWriter::Create(WalSegmentPath(dir.str(), 1), 1,
                                WalFsyncMode::kOff)
                  .value();
    ASSERT_TRUE(w1->Append(1, "a").ok());
    ASSERT_TRUE(w1->Append(2, "b").ok());
    auto w2 = WalWriter::Create(WalSegmentPath(dir.str(), 3), 3,
                                WalFsyncMode::kOff)
                  .value();
    ASSERT_TRUE(w2->Append(3, "c").ok());
    ASSERT_TRUE(w2->Append(4, "d").ok());
  }
  // One poll drains both segments in LSN order, crossing the rotation.
  WalTailer tailer(dir.str(), 0);
  std::vector<WalFrame> batch = tailer.Poll().value();
  ASSERT_EQ(batch.size(), 4u);
  for (uint64_t i = 0; i < 4; ++i) EXPECT_EQ(batch[i].lsn, i + 1);
  EXPECT_GE(tailer.stats().rotations, 1u);
  EXPECT_EQ(tailer.stats().primary_lsn, 4u);

  // Resuming mid-first-segment also crosses cleanly.
  WalTailer resumed(dir.str(), 2);
  batch = resumed.Poll().value();
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].lsn, 3u);
}

TEST(WalTailerTest, PrunedResumePointIsTerminalNotFound) {
  TempDir dir("tail_pruned");
  {
    auto writer = WalWriter::Create(WalSegmentPath(dir.str(), 5), 5,
                                    WalFsyncMode::kOff)
                      .value();
    ASSERT_TRUE(writer->Append(5, "e").ok());
    ASSERT_TRUE(writer->Append(6, "f").ok());
  }
  // The replica needs LSN 3 but every surviving segment starts later: the
  // primary pruned past it. kNotFound tells the tail loop to stop retrying.
  WalTailer tailer(dir.str(), 2);
  Result<std::vector<WalFrame>> polled = tailer.Poll();
  ASSERT_FALSE(polled.ok());
  EXPECT_EQ(polled.status().code(), StatusCode::kNotFound);

  // A tailer already past the gap is unaffected.
  WalTailer caught_up(dir.str(), 4);
  EXPECT_EQ(caught_up.Poll().value().size(), 2u);
}

TEST(WalTailerTest, SnapshotNameBoundsPrimaryLsnAndFlagsPrunedGap) {
  TempDir dir("tail_snap");
  {
    auto manager =
        DurabilityManager::Open(dir.str(), WalFsyncMode::kOff).value();
    ASSERT_TRUE(manager->Recover().ok());
    for (uint64_t lsn = 1; lsn <= 8; ++lsn) {
      ASSERT_TRUE(manager->Append(lsn, "x").ok());
    }
    // Snapshot + rotate: the old segment is pruned, frames 1..8 survive
    // only inside the snapshot, and the live segment starts (empty) at 9.
    ASSERT_TRUE(manager->WriteSnapshot(8, "snapshot-payload").ok());
  }
  // A caught-up tailer learns the primary's LSN from the snapshot name even
  // though no log frame carries it.
  WalTailer caught_up(dir.str(), 8);
  EXPECT_TRUE(caught_up.Poll().value().empty());
  EXPECT_EQ(caught_up.stats().primary_lsn, 8u);

  // A tailer needing pruned frames cannot proceed from the log alone.
  WalTailer lagged(dir.str(), 3);
  Result<std::vector<WalFrame>> polled = lagged.Poll();
  ASSERT_FALSE(polled.ok());
  EXPECT_EQ(polled.status().code(), StatusCode::kNotFound);
}

TEST(ReadLogReadOnlyTest, BootstrapsFromSnapshotPlusSuffix) {
  TempDir dir("ro_bootstrap");
  {
    auto manager =
        DurabilityManager::Open(dir.str(), WalFsyncMode::kOff).value();
    ASSERT_TRUE(manager->Recover().ok());
    for (uint64_t lsn = 1; lsn <= 3; ++lsn) {
      ASSERT_TRUE(manager->Append(lsn, "pre").ok());
    }
    ASSERT_TRUE(manager->WriteSnapshot(3, "payload-A").ok());
    ASSERT_TRUE(manager->Append(4, "post4").ok());
    ASSERT_TRUE(manager->Append(5, "post5").ok());
  }
  RecoveredLog log = ReadLogReadOnly(dir.str()).value();
  EXPECT_TRUE(log.has_snapshot);
  EXPECT_EQ(log.snapshot_lsn, 3u);
  EXPECT_EQ(log.snapshot_payload, "payload-A");
  ASSERT_EQ(log.frames.size(), 2u);
  EXPECT_EQ(log.frames[0].lsn, 4u);
  EXPECT_EQ(log.frames[1].payload, "post5");
}

TEST(ReadLogReadOnlyTest, NeverRepairsTheOwnersFiles) {
  TempDir dir("ro_readonly");
  const std::string path = SegPath(dir);
  {
    auto writer = WalWriter::Create(path, 1, WalFsyncMode::kOff).value();
    ASSERT_TRUE(writer->Append(1, "kept").ok());
    ASSERT_TRUE(writer->Append(2, "torn").ok());
  }
  std::string torn_bytes = ReadAll(path);
  torn_bytes.resize(torn_bytes.size() - 3);
  WriteAll(path, torn_bytes);

  // The read-only scan stops at the valid prefix...
  RecoveredLog log = ReadLogReadOnly(dir.str()).value();
  ASSERT_EQ(log.frames.size(), 1u);
  EXPECT_EQ(log.frames[0].payload, "kept");
  // ...and leaves the torn tail byte-for-byte intact: repairing it is the
  // owning primary's job (DurabilityManager::Recover truncates; we must
  // not race its in-flight append).
  EXPECT_EQ(ReadAll(path), torn_bytes);
}

TEST(ReadLogReadOnlyTest, GapStopsAtContiguousPrefix) {
  TempDir dir("ro_gap");
  {
    auto w1 = WalWriter::Create(WalSegmentPath(dir.str(), 1), 1,
                                WalFsyncMode::kOff)
                  .value();
    ASSERT_TRUE(w1->Append(1, "a").ok());
    ASSERT_TRUE(w1->Append(2, "b").ok());
    // A segment starting beyond the contiguous end (3 was pruned or lost).
    auto w2 = WalWriter::Create(WalSegmentPath(dir.str(), 5), 5,
                                WalFsyncMode::kOff)
                  .value();
    ASSERT_TRUE(w2->Append(5, "e").ok());
  }
  RecoveredLog log = ReadLogReadOnly(dir.str()).value();
  EXPECT_FALSE(log.has_snapshot);
  ASSERT_EQ(log.frames.size(), 2u);
  EXPECT_EQ(log.frames[1].lsn, 2u);
}

// ---------------------------------------------------------------------------
// DurabilityManager: snapshots, rotation, fallback, pruning
// ---------------------------------------------------------------------------

TEST(DurabilityManagerTest, RecoverEmptyDirectoryStartsFresh) {
  TempDir dir("mgr_fresh");
  auto mgr = DurabilityManager::Open(dir.str(), WalFsyncMode::kOff).value();
  RecoveredLog log = mgr->Recover().value();
  EXPECT_FALSE(log.has_snapshot);
  EXPECT_TRUE(log.frames.empty());
  EXPECT_EQ(mgr->last_lsn(), 0u);
  ASSERT_TRUE(mgr->Append(1, "one").ok());
  ASSERT_TRUE(mgr->Append(2, "two").ok());
  // LSN discipline: gaps and replays are caller bugs, rejected loudly.
  EXPECT_FALSE(mgr->Append(2, "dup").ok());
  EXPECT_FALSE(mgr->Append(5, "gap").ok());
}

TEST(DurabilityManagerTest, FramesSurviveRestart) {
  TempDir dir("mgr_restart");
  {
    auto mgr = DurabilityManager::Open(dir.str(), WalFsyncMode::kOff).value();
    (void)mgr->Recover().value();
    for (uint64_t lsn = 1; lsn <= 5; ++lsn) {
      ASSERT_TRUE(mgr->Append(lsn, "frame-" + std::to_string(lsn)).ok());
    }
  }
  auto mgr = DurabilityManager::Open(dir.str(), WalFsyncMode::kOff).value();
  RecoveredLog log = mgr->Recover().value();
  EXPECT_FALSE(log.has_snapshot);
  ASSERT_EQ(log.frames.size(), 5u);
  EXPECT_EQ(log.frames[0].payload, "frame-1");
  EXPECT_EQ(log.frames[4].payload, "frame-5");
  EXPECT_EQ(mgr->last_lsn(), 5u);
  // The log keeps extending where it left off.
  ASSERT_TRUE(mgr->Append(6, "frame-6").ok());
}

TEST(DurabilityManagerTest, SnapshotRotatesSegmentAndShortensReplay) {
  TempDir dir("mgr_snap");
  {
    auto mgr = DurabilityManager::Open(dir.str(), WalFsyncMode::kOff).value();
    (void)mgr->Recover().value();
    for (uint64_t lsn = 1; lsn <= 3; ++lsn) {
      ASSERT_TRUE(mgr->Append(lsn, "pre-" + std::to_string(lsn)).ok());
    }
    ASSERT_TRUE(mgr->WriteSnapshot(3, "snapshot-payload-at-3").ok());
    ASSERT_TRUE(mgr->Append(4, "post-4").ok());
    EXPECT_EQ(mgr->stats().snapshots_written, 1u);
  }
  auto mgr = DurabilityManager::Open(dir.str(), WalFsyncMode::kOff).value();
  RecoveredLog log = mgr->Recover().value();
  ASSERT_TRUE(log.has_snapshot);
  EXPECT_EQ(log.snapshot_lsn, 3u);
  EXPECT_EQ(log.snapshot_payload, "snapshot-payload-at-3");
  ASSERT_EQ(log.frames.size(), 1u);  // only the post-snapshot suffix
  EXPECT_EQ(log.frames[0].lsn, 4u);
  EXPECT_EQ(log.frames[0].payload, "post-4");
  EXPECT_TRUE(mgr->stats().recovered_from_snapshot);
  EXPECT_EQ(mgr->stats().recovered_lsn, 4u);
}

TEST(DurabilityManagerTest, CorruptNewestSnapshotFallsBackToOlder) {
  TempDir dir("mgr_fallback");
  {
    auto mgr = DurabilityManager::Open(dir.str(), WalFsyncMode::kOff).value();
    (void)mgr->Recover().value();
    ASSERT_TRUE(mgr->Append(1, "a").ok());
    ASSERT_TRUE(mgr->WriteSnapshot(1, "older-snapshot").ok());
    ASSERT_TRUE(mgr->Append(2, "b").ok());
    ASSERT_TRUE(mgr->WriteSnapshot(2, "newer-snapshot").ok());
    ASSERT_TRUE(mgr->Append(3, "c").ok());
  }
  auto snaps = ListDir(dir.path(), ".snap");
  ASSERT_EQ(snaps.size(), 2u);  // newest two generations retained
  // Corrupt the newest snapshot's payload; recovery must fall back.
  std::string bytes = ReadAll(snaps.back());
  bytes[bytes.size() - 1] ^= 0xff;
  WriteAll(snaps.back(), bytes);

  auto mgr = DurabilityManager::Open(dir.str(), WalFsyncMode::kOff).value();
  RecoveredLog log = mgr->Recover().value();
  ASSERT_TRUE(log.has_snapshot);
  EXPECT_EQ(log.snapshot_lsn, 1u);
  EXPECT_EQ(log.snapshot_payload, "older-snapshot");
  EXPECT_EQ(mgr->stats().snapshots_discarded, 1u);
  // Frames 2 and 3 replay on top of the older snapshot.
  ASSERT_EQ(log.frames.size(), 2u);
  EXPECT_EQ(log.frames[0].lsn, 2u);
  EXPECT_EQ(log.frames[1].lsn, 3u);
}

TEST(DurabilityManagerTest, SnapshotFileRoundTripsAndValidates) {
  TempDir dir("mgr_snapfile");
  {
    auto mgr = DurabilityManager::Open(dir.str(), WalFsyncMode::kOff).value();
    (void)mgr->Recover().value();
    ASSERT_TRUE(mgr->Append(1, "x").ok());
    ASSERT_TRUE(mgr->WriteSnapshot(1, "the-payload").ok());
  }
  auto snaps = ListDir(dir.path(), ".snap");
  ASSERT_EQ(snaps.size(), 1u);
  auto decoded = ReadSnapshotFile(snaps[0].string()).value();
  EXPECT_EQ(decoded.first, 1u);
  EXPECT_EQ(decoded.second, "the-payload");
  // Any single-byte corruption anywhere in the file must be caught.
  const std::string bytes = ReadAll(snaps[0]);
  for (size_t i = 0; i < bytes.size(); i += 3) {
    std::string mangled = bytes;
    mangled[i] ^= 0x10;
    WriteAll(snaps[0], mangled);
    EXPECT_FALSE(ReadSnapshotFile(snaps[0].string()).ok()) << "byte " << i;
  }
}

TEST(DurabilityManagerTest, ObsoleteSegmentsArePruned) {
  TempDir dir("mgr_prune");
  auto mgr = DurabilityManager::Open(dir.str(), WalFsyncMode::kOff).value();
  (void)mgr->Recover().value();
  uint64_t lsn = 0;
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(mgr->Append(++lsn, "p").ok());
    }
    ASSERT_TRUE(mgr->WriteSnapshot(lsn, "snap").ok());
  }
  // Two snapshot generations and a bounded number of segments remain: the
  // log does not grow without bound across checkpoints.
  EXPECT_EQ(ListDir(dir.path(), ".snap").size(), 2u);
  EXPECT_LE(ListDir(dir.path(), ".log").size(), 3u);
  EXPECT_GT(mgr->stats().segments_pruned, 0u);
}

TEST(DurabilityManagerTest, UnreadableSegmentAbortsRecoveryWithoutPruning) {
  TempDir dir("mgr_ioerr");
  {
    auto mgr = DurabilityManager::Open(dir.str(), WalFsyncMode::kOff).value();
    (void)mgr->Recover().value();
    ASSERT_TRUE(mgr->Append(1, "keep-me").ok());
  }
  const fs::path seg1 = dir.path() / "wal-00000000000000000001.log";
  const std::string seg1_bytes = ReadAll(seg1);
  // A segment-named entry that open()s but fails read(2) — EISDIR stands in
  // for any transient I/O failure (EMFILE, EACCES, a flaky disk) that is
  // *not* evidence of corruption.
  const fs::path bogus = dir.path() / "wal-00000000000000000002.log";
  fs::create_directories(bogus);
  {
    auto mgr = DurabilityManager::Open(dir.str(), WalFsyncMode::kOff).value();
    EXPECT_FALSE(mgr->Recover().ok());
  }
  // Recovery aborted with the directory untouched: the frames behind the
  // failure may be perfectly valid, so nothing was truncated or unlinked.
  EXPECT_TRUE(fs::exists(bogus));
  ASSERT_TRUE(fs::exists(seg1));
  EXPECT_EQ(ReadAll(seg1), seg1_bytes);
  // Once the failure clears, recovery proceeds with every frame intact.
  fs::remove_all(bogus);
  auto mgr = DurabilityManager::Open(dir.str(), WalFsyncMode::kOff).value();
  RecoveredLog log = mgr->Recover().value();
  ASSERT_EQ(log.frames.size(), 1u);
  EXPECT_EQ(log.frames[0].payload, "keep-me");
  EXPECT_EQ(mgr->stats().tail_truncations, 0u);
}

TEST(DurabilityManagerTest, SnapshotAheadOfTailRotatesToFreshSegment) {
  // The DVMS_WAL_FSYNC=off crash shape: an fsynced snapshot at LSN 5
  // survives while the unsynced frames 3-5 (and the rotated segment) are
  // lost. The resume point (6) is then past the tail's last frame (2);
  // appending there would create an in-segment LSN gap the *next* recovery
  // truncates as corruption — silently losing acknowledged writes — so
  // recovery must rotate to a fresh segment instead.
  TempDir dir("mgr_snap_ahead");
  {
    auto mgr = DurabilityManager::Open(dir.str(), WalFsyncMode::kOff).value();
    (void)mgr->Recover().value();
    for (uint64_t lsn = 1; lsn <= 5; ++lsn) {
      ASSERT_TRUE(mgr->Append(lsn, "pre-" + std::to_string(lsn)).ok());
    }
    ASSERT_TRUE(mgr->WriteSnapshot(5, "snap-at-5").ok());
  }
  // Reconstruct the crash state: drop the rotated segment and rebuild the
  // first one with only frames 1-2 (the snapshot pruned the original).
  const fs::path seg1 = dir.path() / "wal-00000000000000000001.log";
  const fs::path seg6 = dir.path() / "wal-00000000000000000006.log";
  fs::remove(seg6);
  fs::remove(seg1);
  {
    auto writer =
        WalWriter::Create(seg1.string(), 1, WalFsyncMode::kOff).value();
    ASSERT_TRUE(writer->Append(1, "pre-1").ok());
    ASSERT_TRUE(writer->Append(2, "pre-2").ok());
  }
  {
    auto mgr = DurabilityManager::Open(dir.str(), WalFsyncMode::kOff).value();
    RecoveredLog log = mgr->Recover().value();
    ASSERT_TRUE(log.has_snapshot);
    EXPECT_EQ(log.snapshot_lsn, 5u);
    EXPECT_TRUE(log.frames.empty());
    EXPECT_EQ(mgr->last_lsn(), 5u);
    EXPECT_TRUE(fs::exists(seg6));  // fresh segment at the resume point
    ASSERT_TRUE(mgr->Append(6, "post-6").ok());
  }
  // The new frame survives the next recovery un-truncated.
  auto mgr = DurabilityManager::Open(dir.str(), WalFsyncMode::kOff).value();
  RecoveredLog log = mgr->Recover().value();
  ASSERT_EQ(log.frames.size(), 1u);
  EXPECT_EQ(log.frames[0].lsn, 6u);
  EXPECT_EQ(log.frames[0].payload, "post-6");
  EXPECT_EQ(mgr->stats().tail_truncations, 0u);
}

// ---------------------------------------------------------------------------
// Codecs: WalRecord, Statement, Expr, VersionedTable, scheduler state
// ---------------------------------------------------------------------------

TEST(WalRecordCodecTest, InsertRecordRoundTrips) {
  WalRecord record;
  record.op = WalRecord::Op::kInsert;
  record.name = "Pts";
  record.rows = {{Value::Int(-7), Value::Double(3.25), Value::String("a|b"),
                  Value::Bool(true), Value::Null()},
                 {Value::Int(1), Value::Double(-0.0), Value::String(""),
                  Value::Bool(false), Value::Int(42)}};
  WalRecord out = DecodeWalRecord(EncodeWalRecord(record)).value();
  EXPECT_EQ(out.op, WalRecord::Op::kInsert);
  EXPECT_EQ(out.name, "Pts");
  ASSERT_EQ(out.rows.size(), 2u);
  for (size_t r = 0; r < 2; ++r) {
    ASSERT_EQ(out.rows[r].size(), record.rows[r].size());
    for (size_t c = 0; c < record.rows[r].size(); ++c) {
      EXPECT_EQ(out.rows[r][c].ToString(), record.rows[r][c].ToString());
    }
  }
  EXPECT_FALSE(out.IsDefinition());
}

TEST(WalRecordCodecTest, CreateTableAndScaleRoundTrip) {
  WalRecord record;
  record.op = WalRecord::Op::kCreateTable;
  record.name = "T";
  record.schema = Schema({{"id", ValueType::kInt64},
                          {"v", ValueType::kDouble},
                          {"label", ValueType::kString}});
  WalRecord out = DecodeWalRecord(EncodeWalRecord(record)).value();
  ASSERT_EQ(out.schema.num_columns(), 3u);
  EXPECT_EQ(out.schema.column(2).name, "label");
  EXPECT_EQ(out.schema.column(2).type, ValueType::kString);
  EXPECT_TRUE(out.IsDefinition());

  WalRecord scale;
  scale.op = WalRecord::Op::kCreateScale;
  scale.name = "xscale";
  scale.scale_domain_min = -1.5;
  scale.scale_domain_max = 99.25;
  scale.scale_range_min = 0;
  scale.scale_range_max = 400;
  WalRecord sout = DecodeWalRecord(EncodeWalRecord(scale)).value();
  EXPECT_EQ(sout.scale_domain_min, -1.5);
  EXPECT_EQ(sout.scale_domain_max, 99.25);
  EXPECT_EQ(sout.scale_range_max, 400);
}

TEST(WalRecordCodecTest, DeleteWithPredicateRoundTrips) {
  WalRecord record;
  record.op = WalRecord::Op::kDelete;
  record.name = "Pts";
  record.predicate =
      ParseExpression("id % 2 = 1 AND v > 3.5 OR label = 'x'").value();
  WalRecord out = DecodeWalRecord(EncodeWalRecord(record)).value();
  ASSERT_NE(out.predicate, nullptr);
  EXPECT_EQ(out.predicate->ToString(), record.predicate->ToString());

  // Null predicate (delete all) is representable too.
  record.predicate = nullptr;
  out = DecodeWalRecord(EncodeWalRecord(record)).value();
  EXPECT_EQ(out.predicate, nullptr);
}

TEST(WalRecordCodecTest, EventAndControlRecordsRoundTrip) {
  WalRecord record;
  record.op = WalRecord::Op::kEvent;
  record.event = InputEvent::MouseDown(17, 40.5, 50.25);
  WalRecord out = DecodeWalRecord(EncodeWalRecord(record)).value();
  EXPECT_EQ(out.event.type, EventType::kMouseDown);
  EXPECT_EQ(out.event.t, 17);
  EXPECT_EQ(out.event.x, 40.5);
  EXPECT_EQ(out.event.y, 50.25);

  for (WalRecord::Op op : {WalRecord::Op::kUndo, WalRecord::Op::kRedo}) {
    WalRecord ctl;
    ctl.op = op;
    EXPECT_EQ(DecodeWalRecord(EncodeWalRecord(ctl)).value().op, op);
  }

  WalRecord compose;
  compose.op = WalRecord::Op::kCompose;
  compose.name = "merged";
  compose.compose_first = "C1";
  compose.compose_second = "C2";
  WalRecord cout = DecodeWalRecord(EncodeWalRecord(compose)).value();
  EXPECT_EQ(cout.name, "merged");
  EXPECT_EQ(cout.compose_first, "C1");
  EXPECT_EQ(cout.compose_second, "C2");
  EXPECT_TRUE(cout.IsDefinition());
}

TEST(WalRecordCodecTest, LoadProgramStatementRoundTripsThroughText) {
  // Statements round-trip structurally: encode a parsed view definition and
  // check the decoded statement drives an engine identically.
  const char* source = R"(
    C = EVENT MOUSE_DOWN AS D, MOUSE_UP AS U
        RETURN (D.t, D.x AS lo, U.x AS hi);
    picked = SELECT p.id AS id FROM C, Pts AS p
      WHERE p.px >= C.lo AND p.px <= C.hi;
  )";
  Program program = ParseProgram(source).value();
  for (const Statement& stmt : program.statements) {
    BinaryWriter w;
    EncodeStatement(stmt, &w);
    std::string bytes = w.Take();
    BinaryReader r(bytes);
    Statement out = DecodeStatement(&r).value();
    EXPECT_EQ(out.kind, stmt.kind);
    EXPECT_EQ(out.target_name, stmt.target_name);
  }

  WalRecord record;
  record.op = WalRecord::Op::kLoadProgram;
  record.text = source;
  EXPECT_EQ(DecodeWalRecord(EncodeWalRecord(record)).value().text, source);
}

TEST(WalRecordCodecTest, GarbagePayloadsRejectedNotCrash) {
  EXPECT_FALSE(DecodeWalRecord("").ok());
  EXPECT_FALSE(DecodeWalRecord("\x00").ok());
  EXPECT_FALSE(DecodeWalRecord("\xff\xff\xff\xff garbage").ok());
  // A valid record with trailing garbage is also rejected.
  WalRecord record;
  record.op = WalRecord::Op::kUndo;
  std::string bytes = EncodeWalRecord(record) + "extra";
  EXPECT_FALSE(DecodeWalRecord(bytes).ok());
  // Truncations at every prefix of a real record must error, never crash.
  WalRecord insert;
  insert.op = WalRecord::Op::kInsert;
  insert.name = "T";
  insert.rows = {{Value::Int(1), Value::String("s")}};
  const std::string full = EncodeWalRecord(insert);
  for (size_t n = 0; n < full.size(); ++n) {
    EXPECT_FALSE(DecodeWalRecord(full.substr(0, n)).ok()) << "prefix " << n;
  }
}

TEST(SnapshotCodecTest, VersionedTableStateRoundTrips) {
  VersionedTable vt("T", Schema({{"id", ValueType::kInt64},
                                 {"v", ValueType::kDouble}}));
  ASSERT_TRUE(vt.Append({Value::Int(1), Value::Double(0.5)}).ok());
  vt.Commit();
  ASSERT_TRUE(vt.Append({Value::Int(2), Value::Double(1.5)}).ok());
  vt.Commit();
  vt.BeginTransaction();
  ASSERT_TRUE(vt.Append({Value::Int(3), Value::Double(2.5)}).ok());
  vt.RecordStep();
  ASSERT_TRUE(vt.Append({Value::Int(4), Value::Double(3.5)}).ok());

  BinaryWriter w;
  EncodeVersionedTableState(vt.SaveDurableState(), &w);
  const std::string bytes = w.Take();
  BinaryReader r(bytes);
  VersionedTable::DurableState state = DecodeVersionedTableState(&r).value();

  VersionedTable restored("T", Schema({{"id", ValueType::kInt64},
                                       {"v", ValueType::kDouble}}));
  restored.RestoreDurableState(std::move(state));
  EXPECT_EQ(restored.current().num_rows(), 4u);
  EXPECT_EQ(restored.num_committed_versions(), 3u);  // initial empty + 2
  EXPECT_TRUE(restored.in_transaction());
  EXPECT_EQ(restored.num_steps(), 1u);
  EXPECT_EQ(restored.epoch(), vt.epoch());
  // @vnow-1: last committed version (2 rows); @tnow-1: one event ago.
  EXPECT_EQ(restored.Version(1).value()->num_rows(), 2u);
  EXPECT_EQ(restored.Version(2).value()->num_rows(), 1u);
  EXPECT_EQ(restored.StepVersion(1).value()->num_rows(), 3u);
}

TEST(SnapshotCodecTest, MatcherAndSchedulerStatesRoundTrip) {
  PatternMatcher::SavedState m;
  m.active = true;
  m.pos = 3;
  m.slots = {Value::Int(9), Value::Double(1.25), Value::Null()};
  m.exists_satisfied = {true, false, true};
  BinaryWriter mw;
  EncodeMatcherState(m, &mw);
  const std::string mbytes = mw.Take();
  BinaryReader mr(mbytes);
  PatternMatcher::SavedState mout = DecodeMatcherState(&mr).value();
  EXPECT_EQ(mout.active, true);
  EXPECT_EQ(mout.pos, 3u);
  ASSERT_EQ(mout.slots.size(), 3u);
  EXPECT_EQ(mout.slots[0].ToString(), m.slots[0].ToString());
  EXPECT_EQ(mout.exists_satisfied, m.exists_satisfied);

  StreamScheduler sched(8);
  sched.AddTile({"tile-a", {0.0, 0.5, 0.8, 1.0}, 0});
  sched.AddTile({"tile-b", {0.0, 0.3, 0.6}, 0});
  sched.SetProbabilities({{"tile-a", 0.9}, {"tile-b", 0.1}});
  (void)sched.TickDetailed();
  StreamScheduler::DurableState s = sched.SaveDurableState();
  BinaryWriter sw;
  EncodeSchedulerState(s, &sw);
  const std::string sbytes = sw.Take();
  BinaryReader sr(sbytes);
  StreamScheduler::DurableState sout = DecodeSchedulerState(&sr).value();
  StreamScheduler restored(0);
  restored.RestoreDurableState(std::move(sout));
  EXPECT_EQ(restored.total_sent(), sched.total_sent());
  EXPECT_EQ(restored.stats().ticks, sched.stats().ticks);
  EXPECT_EQ(restored.GetTile("tile-a").value()->sent_coeffs,
            sched.GetTile("tile-a").value()->sent_coeffs);
  EXPECT_EQ(restored.ExpectedUtility(), sched.ExpectedUtility());
}

TEST(SnapshotCodecTest, EngineSnapshotGarbageRejected) {
  EXPECT_FALSE(DecodeEngineSnapshot("").ok());
  EXPECT_FALSE(DecodeEngineSnapshot("short").ok());
  EngineSnapshot snapshot;
  snapshot.last_lsn = 12;
  snapshot.counters.events_processed = 4;
  const std::string bytes = EncodeEngineSnapshot(snapshot);
  EngineSnapshot out = DecodeEngineSnapshot(bytes).value();
  EXPECT_EQ(out.last_lsn, 12u);
  EXPECT_EQ(out.counters.events_processed, 4u);
  EXPECT_FALSE(DecodeEngineSnapshot(bytes + "x").ok());

  // A v2 payload: one relation whose working state, committed versions and
  // undo entry are one table — shared, or a byte-equal copy — is one pool
  // entry, and decoding shares it again.
  Table t(Schema({{"id", ValueType::kInt64}}));
  ASSERT_TRUE(t.Append({Value::Int(7)}).ok());
  TablePtr image = MakeTablePtr(std::move(t));
  EngineSnapshot shared;
  EngineSnapshot::RelationState rel;
  rel.name = "T";
  rel.state.current = image;
  rel.state.committed = {image, MakeTablePtr(Table(*image))};
  shared.relations.push_back(rel);
  shared.undo_history.push_back({{"T", image}});
  const std::string v2 = EncodeEngineSnapshot(shared);
  ASSERT_EQ(v2[0], 2);
  EngineSnapshot decoded = DecodeEngineSnapshot(v2).value();
  const VersionedTable::DurableState& state = decoded.relations[0].state;
  EXPECT_EQ(state.committed[0], state.current);
  EXPECT_EQ(state.committed[1], state.current);
  EXPECT_EQ(decoded.undo_history[0][0].second, state.current);
  // The bytes depend on contents only, not on which images share a pointer.
  EngineSnapshot copies = shared;
  copies.relations[0].state.current = MakeTablePtr(Table(*image));
  copies.undo_history[0][0].second = MakeTablePtr(Table(*image));
  EXPECT_EQ(EncodeEngineSnapshot(copies), v2);

  // Layout: u8 version, u64 last_lsn, u32 pool count, the pool's one
  // table, u32 definition count, u32 relation count, the name, then the
  // working state's u32 pool index.
  BinaryWriter one;
  EncodeTable(*image, &one);
  const size_t pool_count_at = 1 + 8;
  const size_t current_at = pool_count_at + 4 + one.size() + 4 + 4 + 4 + 1;
  auto patch_u32 = [](std::string bytes, size_t at, uint32_t v) {
    for (int i = 0; i < 4; ++i) bytes[at + i] = static_cast<char>(v >> (8 * i));
    return bytes;
  };
  ASSERT_EQ(patch_u32(v2, current_at, 0), v2);  // index 0, as expected
  Result<EngineSnapshot> bad_index =
      DecodeEngineSnapshot(patch_u32(v2, current_at, 5));
  ASSERT_FALSE(bad_index.ok());
  EXPECT_NE(bad_index.status().message().find("out of range"),
            std::string::npos);
  Result<EngineSnapshot> bad_pool =
      DecodeEngineSnapshot(patch_u32(v2, pool_count_at, 1u << 20));
  ASSERT_FALSE(bad_pool.ok());
  EXPECT_NE(bad_pool.status().message().find("table-pool count"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Fail-loud DVMS_FAULTS parsing
// ---------------------------------------------------------------------------

using FaultEnvDeathTest = ::testing::Test;

TEST(FaultEnvDeathTest, MalformedEnvSpecAbortsLoudly) {
  // The env path must not silently disable injection on a typo: a chaos run
  // with a misspelled spec would otherwise pass vacuously.
  EXPECT_DEATH(fault::InjectorFromEnvSpecOrDie("1:bogus"),
               "DVMS_FAULTS='1:bogus' is malformed");
  EXPECT_DEATH(fault::InjectorFromEnvSpecOrDie("1:0.5:warp_core"),
               "malformed");
  EXPECT_DEATH(fault::InjectorFromEnvSpecOrDie("1:2.0"), "malformed");
}

TEST(FaultEnvTest, WellFormedAndEmptySpecsAccepted) {
  EXPECT_EQ(fault::InjectorFromEnvSpecOrDie(nullptr), nullptr);
  EXPECT_EQ(fault::InjectorFromEnvSpecOrDie(""), nullptr);
  FaultInjector* injector = fault::InjectorFromEnvSpecOrDie("7:0.25:durability");
  ASSERT_NE(injector, nullptr);
  delete injector;
  auto site = FaultSiteFromName("durability");
  EXPECT_EQ(site.value(), FaultSite::kDurabilityIo);
}

// ---------------------------------------------------------------------------
// Engine-level recovery (fast deterministic cases)
// ---------------------------------------------------------------------------

const char* kProgram = R"(
  C = EVENT MOUSE_DOWN AS D, MOUSE_MOVE* AS M, MOUSE_UP AS U
      RETURN (D.t, D.x AS x, D.x AS x2),
             (M.t, D.x AS x, M.x AS x2);
  C_RANGE = SELECT min2(x, x2) AS lo, max2(x, x2) AS hi
    FROM C ORDER BY t DESC LIMIT 1;
  picked = SELECT p.id AS id, p.v AS v
    FROM C_RANGE, Pts AS p
    WHERE p.px >= C_RANGE.lo AND p.px <= C_RANGE.hi;
  MARKS = SELECT 4 AS radius, 'red' AS fill,
      linear_scale(k.v, 0, 100, 0, 180) AS center_x,
      linear_scale(k.id, 0, 24, 0, 120) AS center_y
    FROM picked AS k;
  P = render(SELECT * FROM MARKS);
)";

std::unique_ptr<Dvms> MakeEngine(const std::string& data_dir,
                                 const std::string& fsync = "always") {
  Dvms::Options options;
  options.canvas_width = 200;
  options.canvas_height = 150;
  options.num_threads = 1;
  options.data_dir = data_dir;
  options.wal_fsync = fsync;
  options.snapshot_interval = 0;  // explicit Checkpoint() only
  return std::make_unique<Dvms>(options);
}

void RunWorkload(Dvms& engine) {
  Schema schema({{"id", ValueType::kInt64},
                 {"v", ValueType::kDouble},
                 {"px", ValueType::kDouble}});
  ASSERT_TRUE(engine.CreateBaseTable("Pts", schema).ok());
  std::vector<Row> rows;
  for (int i = 0; i < 24; ++i) {
    rows.push_back({Value::Int(i), Value::Double((i * 37) % 100),
                    Value::Double(5.0 + i * 8.0)});
  }
  ASSERT_TRUE(engine.Insert("Pts", rows).ok());
  ASSERT_TRUE(engine.LoadProgram(kProgram).ok());
  ASSERT_TRUE(engine.PushEvent(InputEvent::MouseDown(0, 40, 50)).ok());
  ASSERT_TRUE(engine.PushEvent(InputEvent::MouseMove(1, 90, 50)).ok());
  ASSERT_TRUE(engine.PushEvent(InputEvent::MouseUp(2, 90, 50)).ok());
  ASSERT_TRUE(engine
                  .Insert("Pts", {{Value::Int(100), Value::Double(55),
                                   Value::Double(60.0)}})
                  .ok());
  ASSERT_TRUE(engine.PushEvent(InputEvent::MouseDown(3, 20, 40)).ok());
  ASSERT_TRUE(engine.PushEvent(InputEvent::MouseUp(4, 160, 40)).ok());
}

std::string Fingerprint(const Dvms& engine) {
  std::ostringstream out;
  for (const std::string& name : engine.catalog().Names()) {
    auto table = engine.GetTable(name);
    if (!table.ok()) continue;
    out << "== " << name << " ==\n";
    const Table* t = table.value();
    for (size_t c = 0; c < t->schema().num_columns(); ++c) {
      out << t->schema().column(c).name << "|";
    }
    out << "\n";
    for (size_t r = 0; r < t->num_rows(); ++r) {
      for (const Value& v : t->row(r)) out << v.ToString() << "|";
      out << "\n";
    }
  }
  return out.str();
}

TEST(EngineRecoveryTest, CleanShutdownRecoversBitIdentically) {
  TempDir dir("recover_clean");
  std::string want;
  PixelBuffer want_pixels(1, 1);
  {
    auto engine = MakeEngine(dir.str());
    ASSERT_TRUE(engine->recovery_status().ok());
    RunWorkload(*engine);
    want = Fingerprint(*engine);
    want_pixels = engine->pixels();
    EXPECT_GT(engine->durability_stats().frames_appended, 0u);
  }
  auto recovered = MakeEngine(dir.str());
  ASSERT_TRUE(recovered->recovery_status().ok())
      << recovered->recovery_status().message();
  EXPECT_GT(recovered->durability_stats().frames_replayed, 0u);
  EXPECT_EQ(Fingerprint(*recovered), want);
  EXPECT_TRUE(recovered->pixels().Equals(want_pixels));
  // And the recovered engine keeps working (and logging) normally.
  ASSERT_TRUE(recovered->PushEvent(InputEvent::MouseDown(10, 10, 30)).ok());
  ASSERT_TRUE(recovered->PushEvent(InputEvent::MouseUp(11, 10, 30)).ok());
  EXPECT_NE(Fingerprint(*recovered), want);
}

TEST(EngineRecoveryTest, SystemRelationNamesAreReserved) {
  // A relation created under a system-relation name would be shadowed by
  // the engine's rows on every read while recovery rebuilt the user's, so
  // memory and log would diverge. Every creating entry point refuses.
  TempDir dir("recover_reserved");
  std::string want;
  {
    auto engine = MakeEngine(dir.str());
    RunWorkload(*engine);
    auto rejected = [](const Status& st) {
      return st.code() == StatusCode::kInvalidArgument;
    };
    Schema schema({{"name", ValueType::kString}, {"value", ValueType::kInt64}});
    EXPECT_TRUE(rejected(engine->CreateBaseTable("dvms_storage", schema)));
    EXPECT_TRUE(rejected(engine->CreateBaseTable("DVMS_Metrics", schema)));
    EXPECT_TRUE(rejected(engine->CreateScale("dvms_governor", 0, 1, 0, 1)));
    EXPECT_TRUE(rejected(engine->ComposeInteractions("C", "C", "dvms_spans")));
    for (const char* program :
         {"dvms_storage = SELECT id FROM Pts;",
          "dvms_storage = render(SELECT * FROM MARKS);",
          "dvms_storage = EVENT MOUSE_DOWN AS D, MOUSE_UP AS U RETURN (D.t);",
          "dvms_storage = FORWARD TRACE FROM Pts WHERE id = 3 TO picked;",
          "dvms_storage = EXPLAIN SELECT * FROM Pts;"}) {
      EXPECT_TRUE(rejected(engine->LoadProgram(program))) << program;
    }
    EXPECT_FALSE(engine
                     ->Insert("dvms_storage",
                              {{Value::String("mine"), Value::Int(1)}})
                     .ok());
    Result<Table> storage = engine->Query("SELECT name FROM dvms_storage");
    ASSERT_TRUE(storage.ok()) << storage.status().message();
    EXPECT_GT(storage.value().num_rows(), 1u);
    EXPECT_TRUE(engine->recovery_status().ok());
    want = Fingerprint(*engine);
  }
  auto recovered = MakeEngine(dir.str());
  ASSERT_TRUE(recovered->recovery_status().ok())
      << recovered->recovery_status().message();
  EXPECT_EQ(Fingerprint(*recovered), want);
}

TEST(EngineRecoveryTest, CheckpointThenRecoverMatchesLogOnlyRecovery) {
  TempDir log_only("recover_logonly");
  TempDir snapped("recover_snapped");
  std::string fp_log, fp_snap;
  PixelBuffer px_log(1, 1), px_snap(1, 1);
  {
    auto engine = MakeEngine(log_only.str());
    RunWorkload(*engine);
    fp_log = Fingerprint(*engine);
  }
  {
    auto engine = MakeEngine(snapped.str());
    RunWorkload(*engine);
    ASSERT_TRUE(engine->Checkpoint().ok());
    EXPECT_EQ(engine->durability_stats().snapshots_written, 1u);
    // Mutations after the checkpoint replay from the rotated segment.
    ASSERT_TRUE(engine->PushEvent(InputEvent::MouseDown(10, 10, 30)).ok());
    ASSERT_TRUE(engine->PushEvent(InputEvent::MouseUp(11, 10, 30)).ok());
    fp_snap = Fingerprint(*engine);
    px_snap = engine->pixels();
  }
  {
    auto recovered = MakeEngine(snapped.str());
    ASSERT_TRUE(recovered->recovery_status().ok())
        << recovered->recovery_status().message();
    EXPECT_TRUE(recovered->durability_stats().recovered_from_snapshot);
    EXPECT_EQ(Fingerprint(*recovered), fp_snap);
    EXPECT_TRUE(recovered->pixels().Equals(px_snap));
  }
  {
    auto recovered = MakeEngine(log_only.str());
    EXPECT_FALSE(recovered->durability_stats().recovered_from_snapshot);
    EXPECT_EQ(Fingerprint(*recovered), fp_log);
  }
}

TEST(EngineRecoveryTest, UnchangedBaseTableIsStoredOncePerSnapshot) {
  // A 20k-row base table that no interaction changes is one image shared
  // by the working state, all 16 committed versions and all 32 undo
  // entries, so a snapshot after 40 committed brushes holds it once
  // (it held 49 copies when every version was a deep copy).
  TempDir dir("recover_shared_images");
  TpchConfig config;
  config.num_rows = 20000;
  Table sales = GenerateTpchSales(config);
  BinaryWriter one;
  EncodeTable(sales, &one);
  const char* program = R"(
    C = EVENT MOUSE_DOWN AS D, MOUSE_MOVE* AS M, MOUSE_UP AS U
        RETURN (D.t, D.x AS x, D.x AS x2), (M.t, D.x AS x, M.x AS x2);
    C_RANGE = SELECT min2(x, x2) AS lo, max2(x, x2) AS hi
      FROM C ORDER BY t DESC LIMIT 1;
    rev_region = SELECT region, SUM(revenue) AS revenue FROM Sales
      GROUP BY region;
    MARKS = SELECT 4 AS radius, 'red' AS fill, lo AS center_x,
        hi / 2 AS center_y
      FROM C_RANGE;
    P = render(SELECT * FROM MARKS);
  )";
  std::string want;
  PixelBuffer want_pixels(1, 1);
  {
    auto engine = MakeEngine(dir.str());
    ASSERT_TRUE(engine->CreateBaseTable("Sales", sales.schema()).ok());
    ASSERT_TRUE(engine->Insert("Sales", sales.rows()).ok());
    ASSERT_TRUE(engine->LoadProgram(program).ok());
    for (int64_t i = 0; i < 40; ++i) {
      const int64_t x = 10 + (i * 13) % 150;
      ASSERT_TRUE(engine->PushEvent(InputEvent::MouseDown(3 * i, x, 40)).ok());
      ASSERT_TRUE(
          engine->PushEvent(InputEvent::MouseMove(3 * i + 1, x + 20, 40)).ok());
      ASSERT_TRUE(
          engine->PushEvent(InputEvent::MouseUp(3 * i + 2, x + 30, 40)).ok());
    }
    ASSERT_TRUE(engine->Checkpoint().ok());
    want = Fingerprint(*engine);
    want_pixels = engine->pixels();
  }
  Result<std::vector<uint64_t>> snaps = ListWalSnapshots(dir.str());
  ASSERT_TRUE(snaps.ok());
  ASSERT_EQ(snaps.value().size(), 1u);
  auto file = ReadSnapshotFile(WalSnapshotPath(dir.str(), snaps.value()[0]));
  ASSERT_TRUE(file.ok()) << file.status().message();
  EXPECT_LT(file.value().second.size(), 2 * one.size());

  auto recovered = MakeEngine(dir.str());
  ASSERT_TRUE(recovered->recovery_status().ok())
      << recovered->recovery_status().message();
  EXPECT_TRUE(recovered->durability_stats().recovered_from_snapshot);
  EXPECT_EQ(Fingerprint(*recovered), want);
  EXPECT_TRUE(recovered->pixels().Equals(want_pixels));
}

TEST(EngineRecoveryTest, VersionedReadsWorkAgainstRecoveredInstance) {
  // `@vnow-k` / `@tnow-j` reads against a recovered engine must match the
  // uninterrupted engine — version history is part of durable state.
  TempDir dir("recover_versions");
  std::vector<std::string> queries = {
      "SELECT COUNT(*) AS n FROM Pts",
      "SELECT COUNT(*) AS n FROM Pts@vnow-1",
      "SELECT COUNT(*) AS n FROM Pts@vnow-2",
      "SELECT COUNT(*) AS n FROM C@vnow-1",
      "SELECT COUNT(*) AS n FROM C@tnow-1",
      "SELECT COUNT(*) AS n FROM picked@vnow-1",
  };
  std::vector<std::string> want;
  {
    auto engine = MakeEngine(dir.str());
    RunWorkload(*engine);
    ASSERT_TRUE(engine->Checkpoint().ok());
    // Leave an interaction open so @tnow has in-transaction steps.
    ASSERT_TRUE(engine->PushEvent(InputEvent::MouseDown(20, 30, 40)).ok());
    ASSERT_TRUE(engine->PushEvent(InputEvent::MouseMove(21, 50, 40)).ok());
    for (const std::string& q : queries) {
      auto result = engine->Query(q);
      ASSERT_TRUE(result.ok()) << q << ": " << result.status().message();
      want.push_back(result.value().row(0)[0].ToString());
    }
  }
  auto recovered = MakeEngine(dir.str());
  ASSERT_TRUE(recovered->recovery_status().ok())
      << recovered->recovery_status().message();
  for (size_t i = 0; i < queries.size(); ++i) {
    auto result = recovered->Query(queries[i]);
    ASSERT_TRUE(result.ok()) << queries[i];
    EXPECT_EQ(result.value().row(0)[0].ToString(), want[i]) << queries[i];
  }
  // The open interaction finishes normally after recovery.
  ASSERT_TRUE(recovered->PushEvent(InputEvent::MouseUp(22, 50, 40)).ok());
}

TEST(EngineRecoveryTest, UndoRedoCursorSurvivesRestart) {
  TempDir dir("recover_undo");
  std::string want;
  {
    auto engine = MakeEngine(dir.str());
    RunWorkload(*engine);
    ASSERT_TRUE(engine->Undo().ok());
    want = Fingerprint(*engine);
    EXPECT_TRUE(engine->CanRedo());
  }
  auto recovered = MakeEngine(dir.str());
  ASSERT_TRUE(recovered->recovery_status().ok());
  EXPECT_EQ(Fingerprint(*recovered), want);
  ASSERT_TRUE(recovered->CanRedo());
  ASSERT_TRUE(recovered->Redo().ok());

  auto control = MakeEngine("");  // durability off
  RunWorkload(*control);
  EXPECT_EQ(Fingerprint(*recovered), Fingerprint(*control));
}

TEST(EngineRecoveryTest, AutoSnapshotTriggersAtInterval) {
  TempDir dir("recover_autosnap");
  Dvms::Options options;
  options.canvas_width = 100;
  options.canvas_height = 80;
  options.num_threads = 1;
  options.data_dir = dir.str();
  options.wal_fsync = "off";
  options.snapshot_interval = 8;
  {
    Dvms engine(options);
    Schema schema({{"id", ValueType::kInt64}});
    ASSERT_TRUE(engine.CreateBaseTable("T", schema).ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(engine.Insert("T", {{Value::Int(i)}}).ok());
    }
    EXPECT_GE(engine.durability_stats().snapshots_written, 2u);
  }
  Dvms recovered(options);
  ASSERT_TRUE(recovered.recovery_status().ok());
  EXPECT_TRUE(recovered.durability_stats().recovered_from_snapshot);
  EXPECT_EQ(recovered.GetTable("T").value()->num_rows(), 20u);
}

TEST(EngineRecoveryTest, SchedulerStateRidesAlongInSnapshots) {
  TempDir dir("recover_sched");
  size_t want_sent = 0;
  {
    auto engine = MakeEngine(dir.str());
    StreamScheduler sched(4);
    sched.AddTile({"t0", {0.0, 0.4, 0.7, 1.0}, 0});
    sched.AddTile({"t1", {0.0, 0.6, 0.9}, 0});
    sched.SetProbabilities({{"t0", 0.8}, {"t1", 0.2}});
    engine->AttachScheduler(&sched);
    RunWorkload(*engine);
    (void)sched.TickDetailed();
    want_sent = sched.total_sent();
    ASSERT_GT(want_sent, 0u);
    ASSERT_TRUE(engine->Checkpoint().ok());
    engine->AttachScheduler(nullptr);
  }
  auto recovered = MakeEngine(dir.str());
  ASSERT_TRUE(recovered->recovery_status().ok());
  StreamScheduler sched(0);
  recovered->AttachScheduler(&sched);  // recovery state applied here
  EXPECT_EQ(sched.total_sent(), want_sent);
  EXPECT_EQ(sched.GetTile("t0").value()->id, "t0");
  recovered->AttachScheduler(nullptr);
}

TEST(EngineRecoveryTest, DurabilityOffHasNoSideEffects) {
  auto engine = MakeEngine("");
  ASSERT_TRUE(engine->recovery_status().ok());
  RunWorkload(*engine);
  EXPECT_EQ(engine->durability_stats().frames_appended, 0u);
  EXPECT_FALSE(engine->Checkpoint().ok());
  EXPECT_TRUE(engine->FlushWal().ok());
}

TEST(EngineRecoveryTest, FailedAppendRollsBackMemoryState) {
  // If the log cannot acknowledge a mutation, memory must not keep it:
  // otherwise a later recovery silently diverges from the live engine.
  TempDir dir("recover_rollback");
  auto engine = MakeEngine(dir.str());
  RunWorkload(*engine);
  const std::string before = Fingerprint(*engine);
  const auto frames_before = engine->durability_stats().frames_appended;

  FaultConfig config = ParseFaultSpec("1:1.0:durability").value();
  config.max_injections = 1;
  Status st;
  {
    ScopedFaultInjector scoped(config);
    st = engine->Insert("Pts", {{Value::Int(999), Value::Double(1),
                                 Value::Double(2)}});
  }
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("injected fault"), std::string::npos);
  EXPECT_EQ(Fingerprint(*engine), before);
  EXPECT_EQ(engine->durability_stats().frames_appended, frames_before);

  // The same insert succeeds afterwards and recovery sees exactly one copy.
  ASSERT_TRUE(engine
                  ->Insert("Pts", {{Value::Int(999), Value::Double(1),
                                    Value::Double(2)}})
                  .ok());
  const std::string after = Fingerprint(*engine);
  engine.reset();
  auto recovered = MakeEngine(dir.str());
  ASSERT_TRUE(recovered->recovery_status().ok());
  EXPECT_EQ(Fingerprint(*recovered), after);
}

TEST(EngineRecoveryTest, StatementAppendFailureFailsStop) {
  // Execute() commits through nested entry points whose depth-2 logging is
  // a no-op, so a failed append at depth 1 cannot roll the mutation back.
  // Logging must fail-stop rather than let later frames replay against a
  // diverged state.
  TempDir dir("recover_failstop");
  auto engine = MakeEngine(dir.str());
  Schema schema({{"id", ValueType::kInt64}});
  ASSERT_TRUE(engine->CreateBaseTable("T", schema).ok());
  ASSERT_TRUE(engine->Insert("T", {{Value::Int(1)}}).ok());
  const auto frames_before = engine->durability_stats().frames_appended;

  Statement stmt;
  stmt.kind = Statement::Kind::kInsert;
  stmt.target_name = "T";
  stmt.insert_rows = {{Value::Int(2)}};
  FaultConfig config = ParseFaultSpec("1:1.0:durability").value();
  config.max_injections = 1;
  Status st;
  {
    ScopedFaultInjector scoped(config);
    st = engine->Execute(stmt);
  }
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("injected fault"), std::string::npos);
  // Memory kept the mutation the log lost; logging is now fail-stopped.
  EXPECT_EQ(engine->GetTable("T").value()->num_rows(), 2u);
  EXPECT_EQ(engine->durability_stats().frames_appended, frames_before);
  EXPECT_FALSE(engine->recovery_status().ok());
  EXPECT_NE(engine->recovery_status().message().find("fail-stop"),
            std::string::npos);
  EXPECT_FALSE(engine->Checkpoint().ok());

  // The engine stays usable in memory but appends nothing further.
  ASSERT_TRUE(engine->Insert("T", {{Value::Int(3)}}).ok());
  EXPECT_EQ(engine->durability_stats().frames_appended, frames_before);

  // A restart recovers the last logged state and logs normally again.
  engine.reset();
  auto recovered = MakeEngine(dir.str());
  ASSERT_TRUE(recovered->recovery_status().ok())
      << recovered->recovery_status().message();
  EXPECT_EQ(recovered->GetTable("T").value()->num_rows(), 1u);
  ASSERT_TRUE(recovered->Insert("T", {{Value::Int(2)}}).ok());
  EXPECT_GT(recovered->durability_stats().frames_appended, 0u);
}

TEST(EngineRecoveryTest, PartiallyAppliedProgramFailsStop) {
  // A program commits as one frame; when a later statement fails, the
  // earlier ones are already applied (view DDL outlives a unit rollback)
  // but unlogged — so logging must fail-stop. A pure parse error, by
  // contrast, touches nothing and must not poison anything.
  TempDir dir("recover_partial");
  auto engine = MakeEngine(dir.str());
  Schema schema({{"id", ValueType::kInt64}});
  ASSERT_TRUE(engine->CreateBaseTable("Pts", schema).ok());
  ASSERT_TRUE(engine->Insert("Pts", {{Value::Int(1)}}).ok());
  const auto frames_before = engine->durability_stats().frames_appended;

  ASSERT_FALSE(engine->LoadProgram("not ! a : program").ok());
  EXPECT_TRUE(engine->recovery_status().ok());  // nothing was applied

  Status st = engine->LoadProgram(
      "ok_view = SELECT id AS id FROM Pts;\n"
      "bad = SELECT x AS x FROM NoSuchRelation;");
  ASSERT_FALSE(st.ok());
  // The first statement stuck in memory but nothing reached the log.
  EXPECT_TRUE(engine->catalog()->Exists("ok_view"));
  EXPECT_EQ(engine->durability_stats().frames_appended, frames_before);
  EXPECT_FALSE(engine->recovery_status().ok());
  EXPECT_NE(engine->recovery_status().message().find("fail-stop"),
            std::string::npos);

  engine.reset();
  auto recovered = MakeEngine(dir.str());
  ASSERT_TRUE(recovered->recovery_status().ok())
      << recovered->recovery_status().message();
  EXPECT_FALSE(recovered->catalog()->Exists("ok_view"));
  EXPECT_EQ(recovered->GetTable("Pts").value()->num_rows(), 1u);
}

TEST(EngineRecoveryTest, CorpusSeedsReplayCompoundInteractions) {
  // Every loadable corpus program (multi-stage NFAs, concurrent patterns,
  // `@tnow` trails, key/wheel streams) is driven through a canonical event
  // stream that ends mid-interaction, then recovered: the replayed engine —
  // matcher slots and step versions included — must be bit-identical.
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(DVMS_TEST_CORPUS_DIR)) {
    if (entry.path().extension() == ".devil") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  std::vector<std::string> loaded;
  for (const fs::path& file : files) {
    SCOPED_TRACE(file.filename().string());
    std::ifstream in(file);
    std::ostringstream source;
    source << in.rdbuf();

    TempDir dir("corpus");
    std::string want;
    {
      auto engine = MakeEngine(dir.str());
      Schema schema({{"id", ValueType::kInt64}, {"v", ValueType::kDouble}});
      ASSERT_TRUE(engine->CreateBaseTable("Pts", schema).ok());
      ASSERT_TRUE(engine
                      ->Insert("Pts", {{Value::Int(1), Value::Double(25)},
                                       {Value::Int(2), Value::Double(55)},
                                       {Value::Int(3), Value::Double(85)}})
                      .ok());
      // Programs over relations this harness doesn't provide simply skip.
      if (!engine->LoadProgram(source.str()).ok()) continue;
      loaded.push_back(file.filename().string());
      std::vector<InputEvent> stream = {
          InputEvent::MouseDown(1, 30, 30), InputEvent::MouseMove(2, 60, 60),
          InputEvent::MouseUp(3, 60, 60),   InputEvent::KeyPress(4, "p"),
          InputEvent::KeyPress(5, "f"),     InputEvent::Wheel(6, 50, 50, 3),
          InputEvent::MouseDown(7, 40, 40), InputEvent::MouseUp(8, 42, 40),
          InputEvent::MouseDown(9, 44, 40),  // second click of a double
          InputEvent::MouseMove(10, 50, 50),  // ...or an open drag
      };
      for (const InputEvent& e : stream) {
        ASSERT_TRUE(engine->PushEvent(e).ok());
      }
      want = Fingerprint(*engine);
    }
    auto recovered = MakeEngine(dir.str());
    ASSERT_TRUE(recovered->recovery_status().ok())
        << recovered->recovery_status().message();
    EXPECT_EQ(Fingerprint(*recovered), want);
    // The restored matchers accept the rest of the interaction.
    ASSERT_TRUE(recovered->PushEvent(InputEvent::MouseUp(11, 50, 50)).ok());
  }
  // The replay-focused seeds must all participate, not be skipped.
  for (const char* seed : {"double_click_select.devil", "shift_drag_pan.devil",
                           "drag_trail_steps.devil"}) {
    EXPECT_NE(std::find(loaded.begin(), loaded.end(), seed), loaded.end())
        << seed << " did not load against the harness";
  }
  EXPECT_GE(loaded.size(), 5u);
}

TEST(EngineRecoveryTest, BatchAndOffModesRecoverAfterCleanShutdown) {
  // Group-commit and no-fsync modes still produce a complete log when the
  // process exits cleanly (destructor flush).
  for (const char* mode : {"batch", "off"}) {
    SCOPED_TRACE(mode);
    TempDir dir(std::string("recover_mode_") + mode);
    std::string want;
    {
      auto engine = MakeEngine(dir.str(), mode);
      RunWorkload(*engine);
      want = Fingerprint(*engine);
    }
    auto recovered = MakeEngine(dir.str(), mode);
    ASSERT_TRUE(recovered->recovery_status().ok());
    EXPECT_EQ(Fingerprint(*recovered), want);
  }
}

}  // namespace
}  // namespace dvms
