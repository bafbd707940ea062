// routed_read: ROADMAP's routed session read. A ClusterClient fronts an
// in-process durable primary and one WAL-tailing replica holding 50,000
// TPC-H-shaped Sales rows plus region_dim; each engine runs a 2-thread
// morsel pool. One client issues a seeded rotation of dashboard reads and,
// every ten reads, one routed Insert batch of new seeded rows. Reads load
// the router, the session pin, parse/plan/bind and the vectorized
// scan/filter/aggregate plus the row-path join; writes load large WAL
// frames, snapshot publish and replica apply. No events, view maintenance
// or rendering run here.

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>

#include "cluster/cluster_client.h"
#include "common/rng.h"
#include "core/session.h"
#include "driver/interaction.h"
#include "driver/reference.h"
#include "driver/tracer.h"
#include "driver/workloads.h"
#include "durability/log_record.h"
#include "durability/manager.h"
#include "parser/parser.h"
#include "parser/planner.h"
#include "query/binder.h"
#include "workload/tpch.h"

namespace perfbench {

namespace {

using dvms::Dvms;
using dvms::Status;
using dvms::Value;

constexpr size_t kRows = 50000;
/// 8 new rows per insert: a 0.6 KB WAL frame, ten times an event's, while
/// Sales grows by about 7% over a 30-second run, so late slices' reads
/// cost about what early ones' do.
constexpr size_t kBatchRows = 8;
constexpr size_t kReadsPerWrite = 10;
constexpr size_t kStatements = 5;
constexpr size_t kThreads = 2;
constexpr int64_t kPollMs = 2;
constexpr int64_t kCatchupTimeoutMs = 30000;
/// Setup logs 4 frames, so 60 write cycles reach the first snapshot.
constexpr size_t kWarmupCycles = 60;
/// Timed reads per second of --seconds (about the rate on a 4-core x86
/// host, so a run measures for roughly --seconds).
constexpr double kNominalReadsPerS = 140;
/// A timed slice is 16 write cycles: 160 reads, 32 of each statement.
constexpr size_t kSliceCycles = 16;
/// Setup is ~0.1 s, so take the best of many builds.
constexpr size_t kSetupBuilds = 25;
/// A recovery open is ~15 ms, so each slice adds several.
constexpr int kRecoveryOpensPerSlice = 3;
/// The traced run explains and re-plans every read of one rotation in this
/// many.
constexpr size_t kExplainEveryRotations = 4;
constexpr int kFirstYear = 1992;
constexpr int kYears = 7;

/// One generated read: its SQL and the reference answer check.
struct Read {
  std::string sql;
  size_t kind = 0;  // position in the rotation
  int64_t a = 0, b = 0;
  std::string region;
};

class RoutedRead {
 public:
  RoutedRead(const RunConfig& config, RunResult* result)
      : config_(config), result_(result), rng_(config.seed ^ 0x5ca1ab1eu) {
    dvms::TpchConfig tpch;
    tpch.num_rows = kRows;
    tpch.seed = config.seed;
    base_ = dvms::GenerateTpchSales(tpch).rows();
    cycles_ = kSliceCycles * TimedSlices(config.seconds, kNominalReadsPerS,
                                         kSliceCycles * kReadsPerWrite);
    dvms::TpchConfig extra;
    extra.num_rows = (kWarmupCycles + cycles_) * kBatchRows;
    extra.seed = config.seed + 0x9e3779b9u;
    extra_ = dvms::GenerateTpchSales(extra).rows();
    for (size_t i = 0; i < extra_.size(); ++i) {
      extra_[i][0] = Value::Int(static_cast<int64_t>(kRows + i + 1));
    }
  }

  void Run() {
    if (config_.trace) {
      RunTraced();
    } else {
      RunUntraced();
    }
  }

 private:
  /// One primary, one replica and the client in front of them.
  struct Fleet {
    std::string dir;
    std::unique_ptr<Dvms> primary;
    std::unique_ptr<Dvms> replica;
    std::unique_ptr<dvms::cluster::ClusterClient> client;
    std::vector<SalesRow> acked;  // rows acknowledged so far
    size_t next_extra = 0;
    uint64_t checkpoint_lsn = 0;
    FsyncCounter fsyncs;

    ~Fleet() {
      client.reset();
      replica.reset();
      primary.reset();
      RemoveDir(dir);
    }
  };

  Dvms::Options PrimaryOptions(const std::string& dir, bool split) const {
    Dvms::Options options = PinnedOptions();
    options.canvas_width = 100;
    options.canvas_height = 100;
    options.num_threads = kThreads;
    options.data_dir = dir;
    if (split) options.snapshot_interval = 0;
    return options;
  }

  std::unique_ptr<Fleet> Build(const std::string& dir, bool split,
                               double* seconds) {
    ResetDir(dir);
    auto fleet = std::make_unique<Fleet>();
    fleet->dir = dir;
    const std::string primary_dir = dir + "/primary";
    Clock::time_point start = Clock::now();
    fleet->primary = std::make_unique<Dvms>(PrimaryOptions(primary_dir, split));
    Dvms& p = *fleet->primary;
    Status st = p.recovery_status();
    if (st.ok()) st = p.CreateBaseTable("Sales", dvms::TpchSalesSchema());
    if (st.ok()) st = p.Insert("Sales", base_);
    if (st.ok()) {
      st = p.CreateBaseTable("region_dim",
                             dvms::Schema({{"region", dvms::ValueType::kString},
                                           {"idx", dvms::ValueType::kInt64}}));
    }
    if (st.ok()) {
      std::vector<dvms::Row> regions;
      for (size_t i = 0; i < dvms::TpchRegions().size(); ++i) {
        regions.push_back({Value::String(dvms::TpchRegions()[i]),
                           Value::Int(static_cast<int64_t>(i))});
      }
      st = p.Insert("region_dim", regions);
    }
    if (!st.ok()) {
      result_->Fail("setup: " + st.ToString());
      return nullptr;
    }
    Dvms::Options replica = PinnedOptions();
    replica.canvas_width = 100;
    replica.canvas_height = 100;
    replica.num_threads = kThreads;
    replica.replica_of = primary_dir;
    replica.replica_poll_ms = kPollMs;
    replica.replica_jitter_seed = config_.seed * 2 + 1;
    fleet->replica = std::make_unique<Dvms>(replica);
    if (fleet->replica->WaitForReplicaLsn(p.wal_lsn(), kCatchupTimeoutMs) <
        p.wal_lsn()) {
      result_->Fail("replica bootstrap did not catch up");
      return nullptr;
    }
    dvms::cluster::ClusterOptions copts;
    copts.staleness_bound_frames = 0;
    copts.max_attempts = 6;
    copts.backoff_floor_ms = 1;
    copts.backoff_cap_ms = 64;
    copts.hedge_percentile = 0;  // hedging off
    copts.hedge_min_samples = 32;
    copts.breaker_failures = 3;
    copts.breaker_cooldown_ms = 50;
    copts.deadline_ms = 0;
    copts.seed = config_.seed * 2 + 1;
    fleet->client = std::make_unique<dvms::cluster::ClusterClient>(copts);
    st = fleet->client->AddEndpoint("primary", fleet->primary.get());
    if (st.ok()) {
      st = fleet->client->AddEndpoint("replica", fleet->replica.get());
    }
    *seconds = MsSince(start) / 1000.0;
    if (!st.ok()) {
      result_->Fail("setup: " + st.ToString());
      return nullptr;
    }
    for (const dvms::Row& row : base_) {
      fleet->acked.push_back(SalesRowFrom(row));
    }
    return fleet;
  }

  /// The next read of the seeded rotation.
  Read NextRead(size_t n) {
    Read read;
    read.kind = n % kStatements;
    switch (read.kind) {
      case 0:  // filtered group-by
        read.a = kFirstYear + rng_.UniformInt(0, kYears - 1);
        read.b = std::min<int64_t>(read.a + rng_.UniformInt(0, 2),
                                   kFirstYear + kYears - 1);
        read.sql = "SELECT region, SUM(revenue) AS revenue FROM Sales "
                   "WHERE year >= " + std::to_string(read.a) +
                   " AND year <= " + std::to_string(read.b) +
                   " GROUP BY region";
        break;
      case 1:  // group-by with a string predicate
        read.region = dvms::TpchRegions()[static_cast<size_t>(
            rng_.UniformInt(0, dvms::TpchRegions().size() - 1))];
        read.sql = "SELECT year, SUM(quantity) AS quantity FROM Sales "
                   "WHERE region = '" + read.region + "' GROUP BY year";
        break;
      case 2:  // join with region_dim
        read.a = rng_.UniformInt(1, 12);
        read.sql = "SELECT d.idx AS idx, SUM(s.revenue) AS revenue "
                   "FROM Sales AS s, region_dim AS d "
                   "WHERE s.region = d.region AND s.month = " +
                   std::to_string(read.a) + " GROUP BY d.idx";
        break;
      case 3:  // top-k
        read.a = rng_.UniformInt(0, 6);
        read.sql = "SELECT orderkey, revenue FROM Sales WHERE dow = " +
                   std::to_string(read.a) +
                   " ORDER BY revenue DESC LIMIT 10";
        break;
      default:  // system relation
        read.sql = "SELECT name, value FROM dvms_replication "
                   "WHERE name = 'replica_lsn'";
        break;
    }
    return read;
  }

  /// Compares a read's answer with the reference over the acked rows.
  std::string Check(const Fleet& fleet, const Read& read,
                    const dvms::Table& got) const {
    const std::vector<SalesRow>& rows = fleet.acked;
    switch (read.kind) {
      case 0:
        return CompareGroupSums(
            got, 0, 1,
            SumBy(rows,
                  [&](const SalesRow& r) {
                    return r.year >= read.a && r.year <= read.b;
                  },
                  [](const SalesRow& r) { return Value::String(r.region); },
                  [](const SalesRow& r) { return r.revenue; }));
      case 1:
        return CompareGroupSums(
            got, 0, 1,
            SumBy(rows,
                  [&](const SalesRow& r) { return r.region == read.region; },
                  [](const SalesRow& r) { return Value::Int(r.year); },
                  [](const SalesRow& r) { return r.quantity; }));
      case 2: {
        const auto& regions = dvms::TpchRegions();
        return CompareGroupSums(
            got, 0, 1,
            SumBy(rows, [&](const SalesRow& r) { return r.month == read.a; },
                  [&](const SalesRow& r) {
                    auto it = std::find(regions.begin(), regions.end(),
                                        r.region);
                    return Value::Int(it - regions.begin());
                  },
                  [](const SalesRow& r) { return r.revenue; }));
      }
      case 3:
        return CompareTopK(
            got, TopRevenue(rows,
                            [&](const SalesRow& r) { return r.dow == read.a; },
                            10));
      default: {
        const auto lsn = static_cast<int64_t>(fleet.primary->wal_lsn());
        if (got.num_rows() != 1 || got.ValueAt(0, 1).type() !=
                                       dvms::ValueType::kInt64 ||
            got.ValueAt(0, 1).int_value() != lsn) {
          return "dvms_replication.replica_lsn is not the primary's LSN " +
                 std::to_string(lsn) + " (read not served by the replica?)";
        }
        return "";
      }
    }
  }

  /// Issues one routed read, checks it, returns its latency in ms.
  double DoRead(Fleet* fleet, const Read& read, Tracer* tracer, int64_t op) {
    int64_t start = NowNs();
    dvms::Result<dvms::Table> got = [&] {
      Tracer::Scope root(tracer, "read", op);
      Tracer::Scope span(tracer, "cluster.query", op);
      return fleet->client->Query(read.sql);
    }();
    double ms = (NowNs() - start) / 1e6;
    std::string diff =
        got.ok() ? Check(*fleet, read, got.value()) : got.status().ToString();
    if (!diff.empty()) result_->Fail("read '" + read.sql + "': " + diff);
    return ms;
  }

  /// Issues one routed insert batch (and, on a split primary, the
  /// checkpoint it makes due), then waits untimed for the replica to apply
  /// it so every read is served at the acknowledged LSN. Returns ms.
  double DoWrite(Fleet* fleet, bool split, Tracer* tracer, int64_t op,
                 std::vector<dvms::Row>* batches) {
    auto first = extra_.begin() + static_cast<ptrdiff_t>(fleet->next_extra);
    std::vector<dvms::Row> rows(first, first + kBatchRows);
    fleet->next_extra += kBatchRows;
    if (batches != nullptr) {
      batches->insert(batches->end(), rows.begin(), rows.end());
    }
    int64_t start = NowNs();
    Status st;
    {
      Tracer::Scope root(tracer, "write", op);
      {
        Tracer::Scope span(tracer, "cluster.write", op);
        st = fleet->client->Insert("Sales", rows);
      }
      uint64_t lsn = fleet->primary->wal_lsn();
      if (split && st.ok() &&
          lsn - fleet->checkpoint_lsn >= kSnapshotFrames) {
        Tracer::Scope span(tracer, "durability.checkpoint", op);
        st = fleet->primary->Checkpoint();
        fleet->checkpoint_lsn = lsn;
      }
    }
    double ms = (NowNs() - start) / 1e6;
    if (!st.ok()) {
      result_->Fail("write: " + st.ToString());
      return ms;
    }
    for (const dvms::Row& row : rows) fleet->acked.push_back(SalesRowFrom(row));
    fleet->fsyncs.Sample(fleet->primary->durability_stats().fsyncs);
    uint64_t acked = fleet->client->acked_lsn();
    uint64_t applied = [&] {
      Tracer::Scope span(tracer, "durability.replica_catchup", op);
      return fleet->replica->WaitForReplicaLsn(acked, kCatchupTimeoutMs);
    }();
    if (applied < acked) result_->Fail("replica did not catch up");
    return ms;
  }

  /// Drives `cycles` write cycles (kReadsPerWrite reads, then one write).
  /// Returns read and write latencies; with a tracer, also the paired
  /// session reads, explains and plan timings of the traced run.
  void Drive(Fleet* fleet, size_t cycles, bool split, Tracer* tracer,
             std::vector<double>* read_ms, std::vector<double>* write_ms,
             std::vector<dvms::Row>* batches) {
    for (size_t c = 0; c < cycles; ++c) {
      for (size_t r = 0; r < kReadsPerWrite; ++r) {
        const int64_t op = static_cast<int64_t>(ops_++);
        Read read = NextRead(reads_++);
        double ms = DoRead(fleet, read, tracer, op);
        if (read_ms != nullptr) read_ms->push_back(ms);
        if (tracer != nullptr) Probe(fleet, read, tracer, op, ms);
      }
      const int64_t op = static_cast<int64_t>(ops_++);
      double ms = DoWrite(fleet, split, tracer, op, batches);
      if (write_ms != nullptr) write_ms->push_back(ms);
    }
  }

  /// Traced-run probes beside one routed read: the same statement through
  /// a Session on the serving endpoint and, every few rotations, EXPLAIN
  /// ANALYZE plus parse/plan/bind against the primary's catalog.
  void Probe(Fleet* fleet, const Read& read, Tracer* tracer, int64_t op,
             double routed_ms) {
    dvms::Session session(fleet->replica.get());
    int64_t start = NowNs();
    dvms::Result<dvms::Table> direct = [&] {
      Tracer::Scope scope(tracer, "core.session_read", op);
      return session.Query(read.sql);
    }();
    double session_ms = (NowNs() - start) / 1e6;
    if (!direct.ok()) {
      result_->Fail("session read: " + direct.status().ToString());
    }
    route_us_.push_back((routed_ms - session_ms) * 1000);
    if ((reads_ - 1) / kStatements % kExplainEveryRotations != 0) return;

    auto report = session.Query("EXPLAIN ANALYZE " + read.sql);
    if (!report.ok()) {
      result_->Fail("explain: " + report.status().ToString());
      return;
    }
    ++explained_;
    const dvms::Table& t = report.value();
    for (size_t r = 0; r < t.num_rows(); ++r) {
      std::string kind = t.ValueAt(r, 0).string_value();
      op_self_us_[kind] += static_cast<double>(t.ValueAt(r, 5).int_value());
      if (kind == "Scan") rows_scanned_ += t.ValueAt(r, 3).int_value();
    }
    if (read.kind == kStatements - 1) return;  // system relations plan lazily
    dvms::CatalogSchemaResolver resolver(fleet->primary->catalog());
    Status st = [&] {
      Tracer::Scope scope(tracer, "parser.plan", op);
      auto select = dvms::ParseSelect(read.sql);
      if (!select.ok()) return select.status();
      dvms::Planner planner(&resolver);
      auto plan = planner.PlanSelect(select.value());
      if (!plan.ok()) return plan.status();
      return dvms::Binder(&resolver, &udfs_).Bind(plan.value().get());
    }();
    if (!st.ok()) result_->Fail("plan: " + st.ToString());
  }

  /// The timed phase runs in slices of kSliceCycles write cycles, each with
  /// the client thread on the next CPU (CpuRotation; the engines' threads
  /// started unpinned and stay so). Between slices the run does its untimed
  /// work: a replica-state comparison, recovery opens and its share of the
  /// extra setup builds, so every measured quantity is sampled across the
  /// whole run and each metric is the best of those samples. Every
  /// recovery open starts from the same copy of the primary's directory,
  /// taken right after warm-up; a last open of the final directory checks
  /// that recovery reproduces the live primary.
  void RunUntraced() {
    std::vector<double> setup_s(1);
    auto fleet = Build(config_.work_dir + "/live", false, &setup_s[0]);
    if (fleet == nullptr) return;
    result_->attempted += (kWarmupCycles + cycles_) * (kReadsPerWrite + 1);
    Drive(fleet.get(), kWarmupCycles, false, nullptr, nullptr, nullptr,
          nullptr);
    if (fleet->primary->durability_stats().snapshots_written == 0) {
      result_->Fail("warm-up wrote no checkpoint");
    }
    const std::string primary_dir = fleet->dir + "/primary";
    const std::string pristine = config_.work_dir + "/pristine";
    if (!CopyDir(primary_dir, pristine)) {
      result_->Fail("could not copy " + primary_dir);
    }
    const size_t slices = cycles_ / kSliceCycles;
    std::vector<double> reads, writes, recovery_s, slice_p50, slice_rate;
    for (size_t s = 0; s < slices; ++s) {
      const size_t first_read = reads_;
      std::vector<double> read_ms, write_ms;
      {
        CpuRotation pin(s);
        Drive(fleet.get(), kSliceCycles, false, nullptr, &read_ms, &write_ms,
              nullptr);
      }
      slice_p50.push_back(RotationMedian(read_ms, first_read));
      double slice_ms = std::accumulate(read_ms.begin(), read_ms.end(), 0.0) +
                        std::accumulate(write_ms.begin(), write_ms.end(), 0.0);
      slice_rate.push_back(read_ms.size() * 1000.0 / slice_ms);
      reads.insert(reads.end(), read_ms.begin(), read_ms.end());
      writes.insert(writes.end(), write_ms.begin(), write_ms.end());

      std::string diff = CompareEngineState(*fleet->replica, *fleet->primary);
      if (!diff.empty()) result_->Fail("replica state: " + diff);
      for (int open = 0; open < kRecoveryOpensPerSlice; ++open) {
        recovery_s.push_back(TimedRecovery(
            PrimaryOptions("", false), pristine, config_.work_dir + "/recover",
            nullptr, result_));
      }
      // The kSetupBuilds - 1 extra builds, spread evenly over the slices.
      const size_t due = (s + 1) * (kSetupBuilds - 1) / slices;
      while (setup_s.size() <= due) {
        double seconds = 0;
        if (!Build(config_.work_dir + "/setup", false, &seconds)) break;
        setup_s.push_back(seconds);
      }
    }
    TimedRecovery(PrimaryOptions("", false), primary_dir,
                  config_.work_dir + "/recover", fleet->primary.get(), result_);

    AddLatency(result_, "read", Best(slice_p50), reads);
    Metrics& m = result_->metrics;
    m.Set("reads_per_s", BestRate(slice_rate), "1/s");
    m.Set("write_p50_ms", Median(writes), "ms");
    m.Set("recovery_s", Best(recovery_s), "s");
    m.Set("setup_s", Best(setup_s), "s");
    m.Set("peak_rss_mb", PeakRssMb(), "MiB");
    m.Set("disk_mb", DurableBytes(primary_dir) / kMiB, "MiB");
    m.Set("op_p50_ms", m.Find("read_p50_ms")->value, "ms");
    m.Set("op_p99_ms", m.Find("read_p99_ms")->value, "ms");
    m.Set("ops_per_s", m.Find("reads_per_s")->value, "1/s");
  }

  /// The mean over the rotation's statements of each one's median latency
  /// among `ms`, the reads numbered from `first`. Each median stays inside
  /// one statement's population; a pooled median would fall where the
  /// statements' latency ranges overlap.
  static double RotationMedian(const std::vector<double>& ms, size_t first) {
    std::vector<std::vector<double>> by_kind(kStatements);
    for (size_t i = 0; i < ms.size(); ++i) {
      by_kind[(first + i) % kStatements].push_back(ms[i]);
    }
    double sum = 0;
    for (const std::vector<double>& kind : by_kind) sum += Median(kind);
    return sum / kStatements;
  }

  void RunTraced() {
    // The untraced loop the tracing overhead is measured against.
    double untraced_ms = 0;
    {
      double seconds = 0;
      auto fleet = Build(config_.work_dir + "/untraced", false, &seconds);
      if (fleet == nullptr) return;
      result_->attempted += (kWarmupCycles + cycles_) * (kReadsPerWrite + 1);
      Drive(fleet.get(), kWarmupCycles, false, nullptr, nullptr, nullptr,
            nullptr);
      std::vector<double> read_ms, write_ms;
      Drive(fleet.get(), cycles_, false, nullptr, &read_ms, &write_ms, nullptr);
      untraced_ms = std::accumulate(read_ms.begin(), read_ms.end(), 0.0) +
                    std::accumulate(write_ms.begin(), write_ms.end(), 0.0);
    }

    // Same seed, same reads: restart the rotation.
    rng_ = dvms::Rng(config_.seed ^ 0x5ca1ab1eu);
    reads_ = 0;
    ops_ = 0;
    double seconds = 0;
    auto fleet = Build(config_.work_dir + "/traced", true, &seconds);
    if (fleet == nullptr) return;
    result_->attempted += (kWarmupCycles + cycles_) * (kReadsPerWrite + 1);
    Drive(fleet.get(), kWarmupCycles, true, nullptr, nullptr, nullptr, nullptr);
    if (fleet->primary->durability_stats().snapshots_written == 0) {
      result_->Fail("warm-up wrote no checkpoint");
    }
    Tracer tracer;
    const dvms::DurabilityStats durable0 = fleet->primary->durability_stats();
    const int64_t epochs0 = fleet->primary->governor_stats().epochs_published +
                            fleet->replica->governor_stats().epochs_published;
    const dvms::cluster::ClusterStats cluster0 = fleet->client->stats();
    fleet->fsyncs = FsyncCounter(durable0.fsyncs);
    std::vector<double> read_ms, write_ms;
    std::vector<dvms::Row> batches;
    Drive(fleet.get(), cycles_, true, &tracer, &read_ms, &write_ms, &batches);
    const dvms::DurabilityStats durable1 = fleet->primary->durability_stats();
    const int64_t epochs = fleet->primary->governor_stats().epochs_published +
                           fleet->replica->governor_stats().epochs_published -
                           epochs0;
    const dvms::cluster::ClusterStats cluster1 = fleet->client->stats();
    const size_t ops = read_ms.size() + write_ms.size();

    Status st = fleet->primary->FlushWal();
    if (!st.ok()) result_->Fail("flush: " + st.ToString());
    const std::string primary_dir = fleet->dir + "/primary";
    double snapshot_mb = NewestSnapshotBytes(primary_dir) / kMiB;
    uint64_t replayed = 0;
    TimedRecovery(PrimaryOptions("", false), primary_dir,
                  config_.work_dir + "/recover", fleet->primary.get(), result_,
                  &replayed);

    // Standalone log manager appending the timed inserts' WAL payloads.
    double wal_bytes = 0;
    {
      std::string wal_dir = config_.work_dir + "/append";
      ResetDir(wal_dir);
      auto manager =
          dvms::DurabilityManager::Open(wal_dir, dvms::WalFsyncMode::kBatch);
      st = manager.status();
      if (st.ok()) st = manager.value()->Recover().status();
      for (size_t w = 0; st.ok() && w < write_ms.size(); ++w) {
        dvms::WalRecord record;
        record.op = dvms::WalRecord::Op::kInsert;
        record.name = "Sales";
        auto first = batches.begin() + static_cast<ptrdiff_t>(w * kBatchRows);
        record.rows.assign(first, first + kBatchRows);
        std::string payload = dvms::EncodeWalRecord(record);
        Tracer::Scope scope(&tracer, "durability.append",
                            static_cast<int64_t>(w));
        st = manager.value()->Append(w + 1, payload);
      }
      if (st.ok()) st = manager.value()->Flush();
      if (!st.ok()) result_->Fail("standalone append: " + st.ToString());
      wal_bytes = static_cast<double>(DurableBytes(wal_dir) -
                                      dvms::kWalHeaderBytes);
      RemoveDir(wal_dir);
    }

    double traced_ms = 0;
    for (const char* root : {"read", "write"}) {
      for (double v : tracer.DurationMs(root)) traced_ms += v;
    }
    const uint64_t frames = durable1.frames_appended - durable0.frames_appended;
    const uint64_t routed = cluster1.reads_routed - cluster0.reads_routed;
    Metrics& m = result_->metrics;
    for (const auto& [kind, us] : op_self_us_) {
      m.Set("query.op_self_ms." + kind, us / 1000.0 / explained_, "ms");
    }
    m.Set("query.rows_scanned_per_read",
          static_cast<double>(rows_scanned_) / explained_, "rows/read");
    m.Set("parser.plan_us", Median(tracer.SelfMs("parser.plan")) * 1000, "us");
    m.Set("durability.append_us",
          Median(tracer.SelfMs("durability.append")) * 1000, "us");
    m.Set("durability.checkpoint_ms",
          Median(tracer.SelfMs("durability.checkpoint")), "ms");
    m.Set("durability.snapshot_mb", snapshot_mb, "MiB");
    m.Set("durability.wal_bytes_per_op", wal_bytes / write_ms.size(), "B/op");
    m.Set("durability.fsyncs_per_op",
          frames == 0 ? 0.0
                      : static_cast<double>(fleet->fsyncs.total()) / frames,
          "1/op");
    m.Set("durability.replay_frames", static_cast<double>(replayed), "count");
    m.Set("durability.replica_catchup_ms",
          Median(tracer.SelfMs("durability.replica_catchup")), "ms");
    m.Set("concurrency.epochs_per_op", static_cast<double>(epochs) / ops,
          "1/op");
    m.Set("concurrency.pins_leaked",
          static_cast<double>(
              fleet->primary->governor_stats().pinned_snapshots +
              fleet->replica->governor_stats().pinned_snapshots),
          "count");
    m.Set("core.session_read_ms", Median(tracer.SelfMs("core.session_read")),
          "ms");
    m.Set("core.op_ms", Median(tracer.DurationMs("read")), "ms");
    m.Set("durability.checkpoint_pct",
          tracer.SharePct("durability.checkpoint", {"read", "write"}), "%");
    m.Set("durability.checkpoint_tail_frac",
          tracer.TailShare({"read", "write"}, "durability.checkpoint"),
          "ratio");
    m.Set("cluster.route_us", Median(route_us_), "us");
    m.Set("cluster.replica_read_frac",
          routed == 0 ? 0.0
                      : static_cast<double>(cluster1.reads_replica -
                                            cluster0.reads_replica) /
                            routed,
          "ratio");
    m.Set("cluster.retries",
          static_cast<double>(cluster1.read_retries + cluster1.write_retries -
                              cluster0.read_retries - cluster0.write_retries),
          "count");
    m.Set("trace.overhead_pct",
          untraced_ms > 0 ? (traced_ms - untraced_ms) / untraced_ms * 100 : 0,
          "%");
    if (!config_.spans_out.empty() && !tracer.WriteJsonl(config_.spans_out)) {
      result_->Fail("could not write " + config_.spans_out);
    }
  }

  const RunConfig& config_;
  RunResult* result_;
  dvms::Rng rng_;
  dvms::UdfRegistry udfs_ = dvms::UdfRegistry::WithBuiltins();
  std::vector<dvms::Row> base_;
  std::vector<dvms::Row> extra_;
  size_t cycles_ = 0;
  size_t reads_ = 0;
  size_t ops_ = 0;
  size_t explained_ = 0;
  std::map<std::string, double> op_self_us_;
  int64_t rows_scanned_ = 0;
  std::vector<double> route_us_;
};

}  // namespace

RunResult RunRoutedRead(const RunConfig& config) {
  RunResult result;
  RoutedRead(config, &result).Run();
  return result;
}

}  // namespace perfbench
