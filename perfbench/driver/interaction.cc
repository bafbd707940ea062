#include "driver/interaction.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>

#include "driver/tracer.h"
#include "durability/log_record.h"
#include "durability/manager.h"
#include "events/recognizer.h"
#include "expr/udf_registry.h"
#include "parser/parser.h"

namespace perfbench {

using dvms::Dvms;
using dvms::Status;

size_t TimedSlices(int seconds, double nominal_ops_per_s, size_t slice_ops) {
  // 1000 samples leave exactly ten beyond the nearest-rank p99.
  auto ops = std::max<size_t>(static_cast<size_t>(seconds * nominal_ops_per_s),
                              1000);
  return std::max((ops + slice_ops - 1) / slice_ops, kMinSlices);
}

void AddLatency(RunResult* result, const std::string& prefix, double p50_ms,
                const std::vector<double>& ms) {
  std::optional<int> tail = HighestSupportedPercentile(ms.size());
  if (!tail.has_value() || *tail < 9900) {
    result->Fail(prefix + ": " + std::to_string(ms.size()) +
                 " samples are too few for a p99");
  }
  result->metrics.Set(prefix + "_p50_ms", p50_ms, "ms");
  result->metrics.Set(prefix + "_p99_ms", Percentile(ms, 9900), "ms");
  result->metrics.Set(prefix + "_samples", static_cast<double>(ms.size()),
                      "count");
}

namespace {

/// The traced run samples per-view recompute cost every this many events.
constexpr size_t kViewSampleEvery = 8;

double Sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

/// Durable options; `split` moves rendering and snapshots out of PushEvent
/// so the traced run can time them at their public seams.
Dvms::Options EngineOptions(const InteractionSpec& spec, const std::string& dir,
                            bool split) {
  Dvms::Options options = spec.options;
  options.data_dir = dir;
  if (split) {
    options.auto_render = false;
    options.snapshot_interval = 0;
  }
  return options;
}

std::unique_ptr<Dvms> Build(const InteractionSpec& spec,
                            const Dvms::Options& options, RunResult* result,
                            double* seconds) {
  Clock::time_point start = Clock::now();
  auto engine = std::make_unique<Dvms>(options);
  Status st = engine->recovery_status();
  if (st.ok()) st = spec.load(*engine);
  *seconds = MsSince(start) / 1000.0;
  if (!st.ok()) {
    result->Fail("setup: " + st.ToString());
    return nullptr;
  }
  return engine;
}

size_t MarksRows(Dvms& engine) {
  size_t rows = 0;
  for (const std::string& name : engine.catalog()->Names()) {
    auto kind = engine.catalog()->KindOf(name);
    if (kind.ok() && kind.value() == dvms::RelationKind::kMarks) {
      rows += engine.GetTable(name).value()->num_rows();
    }
  }
  return rows;
}

/// Drives events [begin, end) and returns each one's latency in ms. An
/// untraced engine is timed around PushEvent alone (rendering and automatic
/// snapshots happen inside it); a split engine is timed around PushEvent,
/// Render and, every 64 frames, Checkpoint. Checks run outside the timing.
class EventDriver {
 public:
  EventDriver(const InteractionSpec& spec, Dvms* engine, bool split,
              RunResult* result)
      : spec_(spec), engine_(engine), split_(split), result_(result) {}

  std::vector<double> Drive(size_t begin, size_t end, Tracer* tracer) {
    std::vector<double> ms;
    ms.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      const auto op = static_cast<int64_t>(i);
      Status st;
      int64_t start = NowNs();
      {
        Tracer::Scope root(tracer, "interaction", op);
        {
          Tracer::Scope span(tracer, "core.push_event", op);
          st = engine_->PushEvent(spec_.events[i]);
        }
        if (split_ && st.ok()) {
          {
            Tracer::Scope span(tracer, "render.frame", op);
            st = engine_->Render();
          }
          uint64_t lsn = engine_->wal_lsn();
          if (st.ok() && lsn - checkpoint_lsn_ >= kSnapshotFrames) {
            Tracer::Scope span(tracer, "durability.checkpoint", op);
            st = engine_->Checkpoint();
            checkpoint_lsn_ = lsn;
          }
        }
      }
      ms.push_back((NowNs() - start) / 1e6);
      std::string diff = st.ok() ? spec_.check(*engine_, i) : st.ToString();
      if (!diff.empty()) {
        result_->Fail("event " + std::to_string(i) + ": " + diff);
        ++failed_;
        continue;
      }
      if (tracer != nullptr) {
        marks_rows_ += MarksRows(*engine_);
        fsyncs_.Sample(engine_->durability_stats().fsyncs);
      }
    }
    return ms;
  }

  /// Warm-up: the undo history must be full and a checkpoint written before
  /// the timed phase, so checkpoint cost is at steady state.
  void WarmUp() {
    Drive(0, spec_.warmup_events, nullptr);
    if (engine_->durability_stats().snapshots_written == 0) {
      result_->Fail("warm-up wrote no checkpoint");
    }
  }

  /// Starts counting WAL fsyncs of the traced events.
  void StartFsyncCount() {
    fsyncs_ = FsyncCounter(engine_->durability_stats().fsyncs);
  }
  uint64_t fsyncs() const { return fsyncs_.total(); }
  size_t marks_rows() const { return marks_rows_; }
  /// Events that errored or failed their check.
  size_t failed() const { return failed_; }

 private:
  const InteractionSpec& spec_;
  Dvms* engine_;
  bool split_;
  RunResult* result_;
  uint64_t checkpoint_lsn_ = 0;
  size_t marks_rows_ = 0;
  size_t failed_ = 0;
  FsyncCounter fsyncs_;
};

std::unique_ptr<Dvms> BuildShadow(const InteractionSpec& spec,
                                  RunResult* result) {
  Dvms::Options options = spec.options;
  options.auto_render = false;
  double seconds = 0;
  return Build(spec, options, result, &seconds);
}

/// A non-durable engine fed the same events as the live one, so its final
/// relations and pixels can be compared with the live engine's. With a
/// tracer, every kViewSampleEvery timed events it also recomputes each view
/// an event affects, timing it and noting whether the crossfilter cube
/// served a group-by view.
class Shadow {
 public:
  Shadow(const InteractionSpec& spec, RunResult* result)
      : spec_(spec), result_(result), engine_(BuildShadow(spec, result)) {
    if (engine_ == nullptr) return;
    const dvms::ViewRegistry& registry = engine_->maintainer()->registry();
    auto affected = registry.AffectedBy({spec.event_table});
    if (!affected.ok()) {
      result->Fail("view graph: " + affected.status().ToString());
      engine_.reset();
      return;
    }
    views_ = affected.value();
    std::function<bool(const dvms::PlanNode&)> has_aggregate =
        [&](const dvms::PlanNode& node) {
          if (node.kind == dvms::PlanKind::kAggregate) return true;
          for (const auto& child : node.children) {
            if (has_aggregate(*child)) return true;
          }
          return false;
        };
    for (const std::string& view : views_) {
      groupby_.push_back(has_aggregate(*registry.Get(view).value()->plan));
    }
  }

  /// Replays events up to (not including) `end`.
  void Advance(size_t end, Tracer* tracer) {
    for (; engine_ != nullptr && next_ < end; ++next_) {
      Status st = engine_->PushEvent(spec_.events[next_]);
      if (!st.ok()) {
        result_->Fail("replay event " + std::to_string(next_) + ": " +
                      st.ToString());
        engine_.reset();
        return;
      }
      if (tracer != nullptr && next_ >= spec_.warmup_events &&
          (next_ - spec_.warmup_events) % kViewSampleEvery == 0) {
        SampleViews(tracer);
      }
    }
  }

  /// Renders the replayed state and compares it with `live`.
  void Finish(Dvms& live) {
    if (engine_ == nullptr) return;
    Status st = engine_->Render();
    std::string diff =
        st.ok() ? CompareEngineState(*engine_, live) : st.ToString();
    if (!diff.empty()) result_->Fail("non-durable replay: " + diff);
  }

  const std::vector<std::string>& views() const { return views_; }
  size_t groupby_recomputes() const { return groupby_recomputes_; }
  size_t cube_hits() const { return cube_hits_; }

 private:
  void SampleViews(Tracer* tracer) {
    for (size_t v = 0; v < views_.size(); ++v) {
      size_t hits_before = engine_->optimizer().hits();
      Status st;
      {
        Tracer::Scope span(tracer, "query.recompute." + views_[v],
                           static_cast<int64_t>(next_));
        st = engine_->maintainer()->RecomputeView(views_[v]);
      }
      if (!st.ok()) {
        result_->Fail("recompute " + views_[v] + ": " + st.ToString());
      }
      if (groupby_[v]) {
        ++groupby_recomputes_;
        if (engine_->optimizer().hits() > hits_before) ++cube_hits_;
      }
    }
  }

  const InteractionSpec& spec_;
  RunResult* result_;
  std::unique_ptr<Dvms> engine_;
  std::vector<std::string> views_;  // views an event affects, in order
  std::vector<bool> groupby_;
  size_t next_ = 0;
  size_t groupby_recomputes_ = 0;
  size_t cube_hits_ = 0;
};

/// The timed phase runs in slices of spec.slice_events events, each on the
/// next CPU (CpuRotation). After each slice, on the same CPU, the run does
/// its untimed work: one recovery open, its share of the extra setup
/// builds and the shadow replay. So every measured quantity is sampled
/// across the whole run and every CPU, and each time metric is the best of
/// those samples (Best). Every recovery open starts from the same copy of
/// the data directory, taken right after warm-up, so the opens repeat
/// identical work; a last open of the final directory checks that recovery
/// reproduces the live engine.
void RunUntraced(const RunConfig& config, const InteractionSpec& spec,
                 RunResult* result) {
  const std::string live_dir = config.work_dir + "/live";
  const std::string pristine = config.work_dir + "/pristine";
  const std::string scratch = config.work_dir + "/scratch";
  ResetDir(live_dir);
  std::vector<double> setup_s(1);
  auto live = Build(spec, EngineOptions(spec, live_dir, false), result,
                    &setup_s[0]);
  if (live == nullptr) return;
  std::optional<Shadow> shadow;
  if (spec.replay_pixels) shadow.emplace(spec, result);

  result->attempted += spec.events.size();
  EventDriver driver(spec, live.get(), /*split=*/false, result);
  driver.WarmUp();
  if (!CopyDir(live_dir, pristine)) result->Fail("could not copy " + live_dir);
  const size_t warmup_failed = driver.failed();
  const size_t slices =
      (spec.events.size() - spec.warmup_events) / spec.slice_events;
  std::vector<std::vector<double>> ms(slices);
  std::vector<double> recovery_s;
  for (size_t s = 0; s < slices; ++s) {
    CpuRotation pin(s);
    size_t begin = spec.warmup_events + s * spec.slice_events;
    ms[s] = driver.Drive(begin, begin + spec.slice_events, nullptr);

    // The setup_builds - 1 extra builds, spread evenly over the slices.
    const size_t due = (s + 1) * (spec.setup_builds - 1) / slices;
    while (setup_s.size() <= due) {
      ResetDir(scratch);
      double seconds = 0;
      if (!Build(spec, EngineOptions(spec, scratch, false), result, &seconds)) {
        break;
      }
      setup_s.push_back(seconds);
    }
    recovery_s.push_back(TimedRecovery(EngineOptions(spec, "", false),
                                       pristine, scratch, nullptr, result));
    if (shadow.has_value()) {
      shadow->Advance(begin + spec.slice_events, nullptr);
    }
  }
  TimedRecovery(EngineOptions(spec, "", false), live_dir, scratch, live.get(),
                result);
  if (shadow.has_value()) shadow->Finish(*live);
  const std::vector<double> pooled = Pooled(ms);
  size_t over_budget = driver.failed() - warmup_failed;
  for (double v : pooled) over_budget += v > kBudgetMs ? 1 : 0;

  AddLatency(result, "interaction", Best(SliceMedians(ms)), pooled);
  Metrics& m = result->metrics;
  m.Set("interactions_per_s", BestRate(SliceRates(ms)), "1/s");
  m.Set("over_budget_frac", static_cast<double>(over_budget) / pooled.size(),
        "ratio");
  m.Set("recovery_s", Best(recovery_s), "s");
  m.Set("setup_s", Best(setup_s), "s");
  m.Set("peak_rss_mb", PeakRssMb(), "MiB");
  m.Set("disk_mb", DurableBytes(live_dir) / kMiB, "MiB");
  m.Set("op_p50_ms", m.Find("interaction_p50_ms")->value, "ms");
  m.Set("op_p99_ms", m.Find("interaction_p99_ms")->value, "ms");
  m.Set("ops_per_s", m.Find("interactions_per_s")->value, "1/s");
}

void RunTraced(const RunConfig& config, const InteractionSpec& spec,
               RunResult* result) {
  // The untraced loop the tracing overhead is measured against.
  double untraced_ms = 0;
  {
    std::string dir = config.work_dir + "/untraced";
    ResetDir(dir);
    double seconds = 0;
    auto engine =
        Build(spec, EngineOptions(spec, dir, false), result, &seconds);
    if (engine == nullptr) return;
    result->attempted += spec.events.size();
    EventDriver driver(spec, engine.get(), /*split=*/false, result);
    driver.WarmUp();
    untraced_ms =
        Sum(driver.Drive(spec.warmup_events, spec.events.size(), nullptr));
    engine.reset();
    RemoveDir(dir);
  }

  std::string dir = config.work_dir + "/traced";
  ResetDir(dir);
  double seconds = 0;
  auto live = Build(spec, EngineOptions(spec, dir, true), result, &seconds);
  if (live == nullptr) return;
  result->attempted += spec.events.size();
  EventDriver driver(spec, live.get(), /*split=*/true, result);
  driver.Drive(0, spec.warmup_events, nullptr);
  if (live->durability_stats().snapshots_written == 0) {
    result->Fail("warm-up wrote no checkpoint");
  }

  Tracer tracer;
  const size_t timed = spec.events.size() - spec.warmup_events;
  const size_t recomputes0 = live->maintainer()->recompute_count();
  const dvms::DurabilityStats durable0 = live->durability_stats();
  const int64_t epochs0 = live->governor_stats().epochs_published;
  driver.StartFsyncCount();
  std::vector<double> ms =
      driver.Drive(spec.warmup_events, spec.events.size(), &tracer);
  const size_t recomputes = live->maintainer()->recompute_count() - recomputes0;
  const dvms::DurabilityStats durable1 = live->durability_stats();
  const int64_t epochs = live->governor_stats().epochs_published - epochs0;
  const uint64_t frames = durable1.frames_appended - durable0.frames_appended;
  const uint64_t fsyncs = driver.fsyncs();

  Status flushed = live->FlushWal();
  if (!flushed.ok()) result->Fail("flush: " + flushed.ToString());
  double snapshot_mb = NewestSnapshotBytes(dir) / kMiB;
  uint64_t replayed = 0;
  TimedRecovery(EngineOptions(spec, "", false), dir,
                config.work_dir + "/recover", live.get(), result, &replayed);

  // Standalone recognizer fed the timed gestures.
  size_t feed_rows = 0;
  {
    auto program = dvms::ParseProgram(spec.program);
    const dvms::Statement* pattern = nullptr;
    if (program.ok()) {
      for (const dvms::Statement& stmt : program.value().statements) {
        if (stmt.kind == dvms::Statement::Kind::kEventDef &&
            stmt.target_name == spec.event_table) {
          pattern = &stmt;
        }
      }
    }
    dvms::Catalog catalog;
    dvms::UdfRegistry udfs = dvms::UdfRegistry::WithBuiltins();
    dvms::EventRecognizer recognizer(&catalog, &udfs);
    Status st =
        pattern == nullptr
            ? Status::NotFound("event statement")
            : recognizer.DefinePattern(spec.event_table, pattern->event);
    for (size_t i = spec.warmup_events; st.ok() && i < spec.events.size();
         ++i) {
      dvms::Result<std::vector<dvms::EventRecognizer::FeedOutcome>> fed =
          [&] {
            Tracer::Scope span(&tracer, "events.feed", static_cast<int64_t>(i));
            return recognizer.Feed(spec.events[i]);
          }();
      st = fed.status();
      for (size_t o = 0; st.ok() && o < fed.value().size(); ++o) {
        feed_rows += fed.value()[o].rows_inserted;
      }
    }
    if (!st.ok()) result->Fail("standalone recognizer: " + st.ToString());
  }

  // Standalone log manager appending the timed events' WAL payloads.
  double wal_bytes = 0;
  {
    std::string wal_dir = config.work_dir + "/append";
    ResetDir(wal_dir);
    auto manager = dvms::DurabilityManager::Open(wal_dir,
                                                 dvms::WalFsyncMode::kBatch);
    Status st = manager.status();
    if (st.ok()) st = manager.value()->Recover().status();
    uint64_t lsn = 1;
    for (size_t i = spec.warmup_events; st.ok() && i < spec.events.size();
         ++i) {
      dvms::WalRecord record;
      record.op = dvms::WalRecord::Op::kEvent;
      record.event = spec.events[i];
      std::string payload = dvms::EncodeWalRecord(record);
      Tracer::Scope span(&tracer, "durability.append", static_cast<int64_t>(i));
      st = manager.value()->Append(lsn++, payload);
    }
    if (st.ok()) st = manager.value()->Flush();
    if (!st.ok()) result->Fail("standalone append: " + st.ToString());
    wal_bytes = static_cast<double>(DurableBytes(wal_dir) -
                                    dvms::kWalHeaderBytes);
    RemoveDir(wal_dir);
  }

  Shadow shadow(spec, result);
  shadow.Advance(spec.events.size(), &tracer);
  shadow.Finish(*live);

  std::vector<double> commit_ms;
  std::vector<int64_t> self = tracer.SelfNs();
  for (size_t s = 0; s < tracer.spans().size(); ++s) {
    const Tracer::Span& span = tracer.spans()[s];
    if (span.name == "core.push_event" &&
        spec.events[static_cast<size_t>(span.interaction)].type ==
            dvms::EventType::kMouseUp) {
      commit_ms.push_back(self[s] / 1e6);
    }
  }

  Metrics& m = result->metrics;
  m.Set("events.feed_us", Median(tracer.SelfMs("events.feed")) * 1000, "us");
  m.Set("events.rows_per_event", static_cast<double>(feed_rows) / timed,
        "rows/event");
  for (const std::string& view : shadow.views()) {
    m.Set("query.view_ms." + view,
          Median(tracer.SelfMs("query.recompute." + view)), "ms");
  }
  m.Set("query.recomputes_per_event", static_cast<double>(recomputes) / timed,
        "1/event");
  m.Set("query.cube_hit_ratio",
        shadow.groupby_recomputes() == 0
            ? 0.0
            : static_cast<double>(shadow.cube_hits()) /
                  shadow.groupby_recomputes(),
        "ratio");
  m.Set("query.cube_builds",
        static_cast<double>(live->optimizer().cube_builds()), "count");
  m.Set("render.frame_ms", Median(tracer.SelfMs("render.frame")), "ms");
  m.Set("render.marks_per_frame",
        static_cast<double>(driver.marks_rows()) / timed, "marks/frame");
  m.Set("durability.append_us",
        Median(tracer.SelfMs("durability.append")) * 1000, "us");
  m.Set("durability.checkpoint_ms",
        Median(tracer.SelfMs("durability.checkpoint")), "ms");
  m.Set("durability.snapshot_mb", snapshot_mb, "MiB");
  m.Set("durability.wal_bytes_per_op", wal_bytes / timed, "B/op");
  m.Set("durability.fsyncs_per_op",
        frames == 0 ? 0.0 : static_cast<double>(fsyncs) / frames, "1/op");
  m.Set("durability.replay_frames", static_cast<double>(replayed), "count");
  m.Set("concurrency.epochs_per_op", static_cast<double>(epochs) / timed,
        "1/op");
  m.Set("concurrency.pins_leaked",
        static_cast<double>(live->governor_stats().pinned_snapshots), "count");
  m.Set("core.commit_event_ms", Median(commit_ms), "ms");
  m.Set("core.push_event_ms", Median(tracer.SelfMs("core.push_event")), "ms");
  m.Set("core.op_ms", Median(tracer.DurationMs("interaction")), "ms");
  m.Set("durability.checkpoint_pct",
        tracer.SharePct("durability.checkpoint", {"interaction"}), "%");
  m.Set("durability.checkpoint_tail_frac",
        tracer.TailShare({"interaction"}, "durability.checkpoint"), "ratio");
  m.Set("trace.overhead_pct",
        untraced_ms > 0 ? (Sum(ms) - untraced_ms) / untraced_ms * 100 : 0,
        "%");
  if (!config.spans_out.empty() && !tracer.WriteJsonl(config.spans_out)) {
    result->Fail("could not write " + config.spans_out);
  }
  live.reset();
  RemoveDir(dir);
}

}  // namespace

RunResult RunInteraction(const RunConfig& config, const InteractionSpec& spec) {
  RunResult result;
  if (config.trace) {
    RunTraced(config, spec, &result);
  } else {
    RunUntraced(config, spec, &result);
  }
  return result;
}

}  // namespace perfbench
