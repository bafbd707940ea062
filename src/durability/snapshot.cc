#include "durability/snapshot.h"

#include <string_view>
#include <unordered_map>

namespace dvms {

namespace {

// v1: every table inline, once per reference. v2: one table pool up
// front; relation versions and undo entries refer to it by u32 index.
constexpr uint8_t kSnapshotFormatV1 = 1;
constexpr uint8_t kSnapshotFormatVersion = 2;
constexpr uint64_t kMaxSnapshotCount = 1ull << 28;
/// Pool index of a null TablePtr (no open transaction base).
constexpr uint32_t kNoTable = 0xFFFFFFFFu;

Status CountError(uint64_t n, const char* what) {
  return Status::ExecutionError("snapshot decode: implausible " +
                                std::string(what) + " count " +
                                std::to_string(n));
}

/// Writes a payload's table pool into `out`: a u32 count, then each
/// distinct table encoded once. A table is looked up by pointer first
/// (shared images cost one probe), then encoded in place and compared
/// with the earlier entries of the same byte size; a duplicate is cut
/// off again. Indexes thus follow the first occurrence of each distinct
/// content in traversal order, and the payload depends only on logical
/// state, not on which images happen to share a pointer.
class TablePoolWriter {
 public:
  explicit TablePoolWriter(BinaryWriter* out)
      : out_(out), count_at_(out->size()) {
    out_->PutU32(0);  // patched by Finish()
  }

  uint32_t Add(const TablePtr& table) {
    if (table == nullptr) return kNoTable;
    auto by_ptr = by_ptr_.find(table.get());
    if (by_ptr != by_ptr_.end()) return by_ptr->second;
    const size_t begin = out_->size();
    EncodeTable(*table, out_);
    const size_t size = out_->size() - begin;
    const std::string_view bytes(out_->data().data() + begin, size);
    std::vector<uint32_t>& same_size = by_size_[size];
    uint32_t index = static_cast<uint32_t>(offsets_.size());
    for (uint32_t candidate : same_size) {
      if (bytes == std::string_view(out_->data().data() + offsets_[candidate],
                                    size)) {
        index = candidate;
        break;
      }
    }
    if (index == offsets_.size()) {
      offsets_.push_back(begin);
      same_size.push_back(index);
    } else {
      out_->Truncate(begin);
    }
    by_ptr_.emplace(table.get(), index);
    return index;
  }

  void Finish() {
    out_->PatchU32(count_at_, static_cast<uint32_t>(offsets_.size()));
  }

 private:
  BinaryWriter* out_;
  size_t count_at_;
  std::vector<size_t> offsets_;  // entry index -> first byte in *out_
  std::unordered_map<const Table*, uint32_t> by_ptr_;
  std::unordered_map<size_t, std::vector<uint32_t>> by_size_;
};

Result<std::vector<TablePtr>> DecodeTablePool(BinaryReader* r) {
  DVMS_ASSIGN_OR_RETURN(uint32_t n, r->GetU32());
  // Every encoded table takes at least one byte.
  if (n > kMaxSnapshotCount || n > r->remaining()) {
    return CountError(n, "table-pool");
  }
  std::vector<TablePtr> pool;
  pool.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    DVMS_ASSIGN_OR_RETURN(Table t, DecodeTable(r));
    pool.push_back(MakeTablePtr(std::move(t)));
  }
  return pool;
}

/// Reads one table reference: a pool index (v2) or, with no pool, an
/// inline v1 table — bare for working states and undo entries, behind a
/// presence flag for versions.
class TableRefReader {
 public:
  explicit TableRefReader(const std::vector<TablePtr>* pool) : pool_(pool) {}

  Result<TablePtr> Get(BinaryReader* r, bool v1_flagged) const {
    if (pool_ == nullptr) {
      if (v1_flagged) {
        DVMS_ASSIGN_OR_RETURN(bool present, r->GetBool());
        if (!present) return TablePtr();
      }
      DVMS_ASSIGN_OR_RETURN(Table t, DecodeTable(r));
      return MakeTablePtr(std::move(t));
    }
    DVMS_ASSIGN_OR_RETURN(uint32_t index, r->GetU32());
    if (index == kNoTable) return TablePtr();
    if (index >= pool_->size()) {
      return Status::ExecutionError(
          "snapshot decode: table index " + std::to_string(index) +
          " out of range (pool holds " + std::to_string(pool_->size()) + ")");
    }
    return (*pool_)[index];
  }

  /// A reference that must name a table (working states, versions, undo
  /// entries).
  Result<TablePtr> GetRequired(BinaryReader* r, bool v1_flagged) const {
    DVMS_ASSIGN_OR_RETURN(TablePtr t, Get(r, v1_flagged));
    if (t == nullptr) {
      return Status::ExecutionError("snapshot decode: missing table");
    }
    return t;
  }

 private:
  const std::vector<TablePtr>* pool_;
};

void EncodeStateRefs(const VersionedTable::DurableState& s,
                     TablePoolWriter* pool, BinaryWriter* w) {
  w->PutU32(pool->Add(s.current));
  w->PutU32(static_cast<uint32_t>(s.committed.size()));
  for (const TablePtr& t : s.committed) w->PutU32(pool->Add(t));
  w->PutU32(static_cast<uint32_t>(s.steps.size()));
  for (const TablePtr& t : s.steps) w->PutU32(pool->Add(t));
  w->PutU32(pool->Add(s.txn_base));
  w->PutBool(s.in_transaction);
  w->PutU64(s.epoch);
}

Result<VersionedTable::DurableState> DecodeStateRefs(
    const TableRefReader& refs, BinaryReader* r) {
  VersionedTable::DurableState s;
  DVMS_ASSIGN_OR_RETURN(s.current, refs.GetRequired(r, false));
  DVMS_ASSIGN_OR_RETURN(uint32_t n_committed, r->GetU32());
  if (n_committed > kMaxSnapshotCount) return CountError(n_committed, "version");
  s.committed.reserve(n_committed);
  for (uint32_t i = 0; i < n_committed; ++i) {
    DVMS_ASSIGN_OR_RETURN(TablePtr t, refs.GetRequired(r, true));
    s.committed.push_back(std::move(t));
  }
  DVMS_ASSIGN_OR_RETURN(uint32_t n_steps, r->GetU32());
  if (n_steps > kMaxSnapshotCount) return CountError(n_steps, "step");
  s.steps.reserve(n_steps);
  for (uint32_t i = 0; i < n_steps; ++i) {
    DVMS_ASSIGN_OR_RETURN(TablePtr t, refs.GetRequired(r, true));
    s.steps.push_back(std::move(t));
  }
  DVMS_ASSIGN_OR_RETURN(s.txn_base, refs.Get(r, true));
  DVMS_ASSIGN_OR_RETURN(s.in_transaction, r->GetBool());
  DVMS_ASSIGN_OR_RETURN(s.epoch, r->GetU64());
  return s;
}

}  // namespace

void EncodeVersionedTableState(const VersionedTable::DurableState& s,
                               BinaryWriter* w) {
  TablePoolWriter pool(w);
  BinaryWriter refs;
  EncodeStateRefs(s, &pool, &refs);
  pool.Finish();
  w->PutBytes(refs.data().data(), refs.size());
}

Result<VersionedTable::DurableState> DecodeVersionedTableState(
    BinaryReader* r) {
  DVMS_ASSIGN_OR_RETURN(std::vector<TablePtr> pool, DecodeTablePool(r));
  return DecodeStateRefs(TableRefReader(&pool), r);
}

void EncodeMatcherState(const PatternMatcher::SavedState& s, BinaryWriter* w) {
  w->PutBool(s.active);
  w->PutU64(s.pos);
  EncodeRow(s.slots, w);
  w->PutU32(static_cast<uint32_t>(s.exists_satisfied.size()));
  for (bool b : s.exists_satisfied) w->PutBool(b);
}

Result<PatternMatcher::SavedState> DecodeMatcherState(BinaryReader* r) {
  PatternMatcher::SavedState s;
  DVMS_ASSIGN_OR_RETURN(s.active, r->GetBool());
  DVMS_ASSIGN_OR_RETURN(uint64_t pos, r->GetU64());
  s.pos = static_cast<size_t>(pos);
  DVMS_ASSIGN_OR_RETURN(s.slots, DecodeRow(r));
  DVMS_ASSIGN_OR_RETURN(uint32_t n, r->GetU32());
  if (n > kMaxSnapshotCount) return CountError(n, "exists-flag");
  s.exists_satisfied.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    DVMS_ASSIGN_OR_RETURN(bool b, r->GetBool());
    s.exists_satisfied[i] = b;
  }
  return s;
}

void EncodeSchedulerState(const StreamScheduler::DurableState& s,
                          BinaryWriter* w) {
  w->PutU64(s.coeffs_per_tick);
  w->PutI64(s.policy.budget_us);
  w->PutU64(s.policy.max_retries);
  w->PutI64(s.policy.retry_backoff_us);
  w->PutU32(static_cast<uint32_t>(s.tiles.size()));
  for (const StreamScheduler::DurableState::TileEntry& e : s.tiles) {
    w->PutString(e.tile.id);
    w->PutU32(static_cast<uint32_t>(e.tile.utility.size()));
    for (double u : e.tile.utility) w->PutDouble(u);
    w->PutU64(e.tile.sent_coeffs);
    w->PutDouble(e.probability);
  }
  w->PutU64(s.total_sent);
  w->PutU64(s.stats.ticks);
  w->PutU64(s.stats.deadline_misses);
  w->PutU64(s.stats.faults_injected);
  w->PutU64(s.stats.retries);
  w->PutU64(s.stats.degraded_serves);
}

Result<StreamScheduler::DurableState> DecodeSchedulerState(BinaryReader* r) {
  StreamScheduler::DurableState s;
  DVMS_ASSIGN_OR_RETURN(uint64_t coeffs, r->GetU64());
  s.coeffs_per_tick = static_cast<size_t>(coeffs);
  DVMS_ASSIGN_OR_RETURN(s.policy.budget_us, r->GetI64());
  DVMS_ASSIGN_OR_RETURN(uint64_t max_retries, r->GetU64());
  s.policy.max_retries = static_cast<size_t>(max_retries);
  DVMS_ASSIGN_OR_RETURN(s.policy.retry_backoff_us, r->GetI64());
  DVMS_ASSIGN_OR_RETURN(uint32_t n_tiles, r->GetU32());
  if (n_tiles > kMaxSnapshotCount) return CountError(n_tiles, "tile");
  s.tiles.reserve(n_tiles);
  for (uint32_t i = 0; i < n_tiles; ++i) {
    StreamScheduler::DurableState::TileEntry e;
    DVMS_ASSIGN_OR_RETURN(e.tile.id, r->GetString());
    DVMS_ASSIGN_OR_RETURN(uint32_t n_u, r->GetU32());
    if (n_u > kMaxSnapshotCount) return CountError(n_u, "utility");
    e.tile.utility.reserve(n_u);
    for (uint32_t j = 0; j < n_u; ++j) {
      DVMS_ASSIGN_OR_RETURN(double u, r->GetDouble());
      e.tile.utility.push_back(u);
    }
    DVMS_ASSIGN_OR_RETURN(uint64_t sent, r->GetU64());
    e.tile.sent_coeffs = static_cast<size_t>(sent);
    DVMS_ASSIGN_OR_RETURN(e.probability, r->GetDouble());
    s.tiles.push_back(std::move(e));
  }
  DVMS_ASSIGN_OR_RETURN(uint64_t total_sent, r->GetU64());
  s.total_sent = static_cast<size_t>(total_sent);
  DVMS_ASSIGN_OR_RETURN(uint64_t v, r->GetU64());
  s.stats.ticks = static_cast<size_t>(v);
  DVMS_ASSIGN_OR_RETURN(v, r->GetU64());
  s.stats.deadline_misses = static_cast<size_t>(v);
  DVMS_ASSIGN_OR_RETURN(v, r->GetU64());
  s.stats.faults_injected = static_cast<size_t>(v);
  DVMS_ASSIGN_OR_RETURN(v, r->GetU64());
  s.stats.retries = static_cast<size_t>(v);
  DVMS_ASSIGN_OR_RETURN(v, r->GetU64());
  s.stats.degraded_serves = static_cast<size_t>(v);
  return s;
}

std::string EncodeEngineSnapshot(const EngineSnapshot& snapshot) {
  // The pool fills `out` while everything after it is written to `w`,
  // which is appended once the pool is complete.
  BinaryWriter out;
  out.PutU8(kSnapshotFormatVersion);
  out.PutU64(snapshot.last_lsn);
  TablePoolWriter pool(&out);
  BinaryWriter w;
  w.PutU32(static_cast<uint32_t>(snapshot.definition_ops.size()));
  for (const std::string& op : snapshot.definition_ops) w.PutString(op);

  w.PutU32(static_cast<uint32_t>(snapshot.relations.size()));
  for (const EngineSnapshot::RelationState& rel : snapshot.relations) {
    w.PutString(rel.name);
    EncodeStateRefs(rel.state, &pool, &w);
  }

  w.PutU32(static_cast<uint32_t>(snapshot.matchers.size()));
  for (const PatternMatcher::SavedState& m : snapshot.matchers) {
    EncodeMatcherState(m, &w);
  }

  w.PutU64(snapshot.counters.events_processed);
  w.PutU64(snapshot.counters.transactions_started);
  w.PutU64(snapshot.counters.transactions_committed);
  w.PutU64(snapshot.counters.transactions_aborted);
  w.PutU64(snapshot.counters.renders);
  w.PutU64(snapshot.counters.trace_recomputes);
  w.PutU64(snapshot.counters.interactions_rolled_back);

  w.PutU32(static_cast<uint32_t>(snapshot.undo_history.size()));
  for (const auto& commit : snapshot.undo_history) {
    w.PutU32(static_cast<uint32_t>(commit.size()));
    for (const auto& [name, table] : commit) {
      w.PutString(name);
      w.PutU32(pool.Add(table));
    }
  }
  w.PutU64(snapshot.undo_cursor);

  w.PutBool(snapshot.has_scheduler);
  if (snapshot.has_scheduler) EncodeSchedulerState(snapshot.scheduler, &w);

  pool.Finish();
  out.PutBytes(w.data().data(), w.size());
  return out.Take();
}

Result<EngineSnapshot> DecodeEngineSnapshot(const std::string& payload) {
  BinaryReader r(payload);
  EngineSnapshot s;
  DVMS_ASSIGN_OR_RETURN(uint8_t version, r.GetU8());
  if (version != kSnapshotFormatV1 && version != kSnapshotFormatVersion) {
    return Status::ExecutionError("snapshot decode: unsupported format v" +
                                  std::to_string(version));
  }
  DVMS_ASSIGN_OR_RETURN(s.last_lsn, r.GetU64());
  std::vector<TablePtr> pool;
  if (version != kSnapshotFormatV1) {
    DVMS_ASSIGN_OR_RETURN(pool, DecodeTablePool(&r));
  }
  const TableRefReader refs(version == kSnapshotFormatV1 ? nullptr : &pool);

  DVMS_ASSIGN_OR_RETURN(uint32_t n_defs, r.GetU32());
  if (n_defs > kMaxSnapshotCount) return CountError(n_defs, "definition-op");
  s.definition_ops.reserve(n_defs);
  for (uint32_t i = 0; i < n_defs; ++i) {
    DVMS_ASSIGN_OR_RETURN(std::string op, r.GetString());
    s.definition_ops.push_back(std::move(op));
  }

  DVMS_ASSIGN_OR_RETURN(uint32_t n_rels, r.GetU32());
  if (n_rels > kMaxSnapshotCount) return CountError(n_rels, "relation");
  s.relations.reserve(n_rels);
  for (uint32_t i = 0; i < n_rels; ++i) {
    EngineSnapshot::RelationState rel;
    DVMS_ASSIGN_OR_RETURN(rel.name, r.GetString());
    DVMS_ASSIGN_OR_RETURN(rel.state, DecodeStateRefs(refs, &r));
    s.relations.push_back(std::move(rel));
  }

  DVMS_ASSIGN_OR_RETURN(uint32_t n_matchers, r.GetU32());
  if (n_matchers > kMaxSnapshotCount) return CountError(n_matchers, "matcher");
  s.matchers.reserve(n_matchers);
  for (uint32_t i = 0; i < n_matchers; ++i) {
    DVMS_ASSIGN_OR_RETURN(PatternMatcher::SavedState m, DecodeMatcherState(&r));
    s.matchers.push_back(std::move(m));
  }

  DVMS_ASSIGN_OR_RETURN(s.counters.events_processed, r.GetU64());
  DVMS_ASSIGN_OR_RETURN(s.counters.transactions_started, r.GetU64());
  DVMS_ASSIGN_OR_RETURN(s.counters.transactions_committed, r.GetU64());
  DVMS_ASSIGN_OR_RETURN(s.counters.transactions_aborted, r.GetU64());
  DVMS_ASSIGN_OR_RETURN(s.counters.renders, r.GetU64());
  DVMS_ASSIGN_OR_RETURN(s.counters.trace_recomputes, r.GetU64());
  DVMS_ASSIGN_OR_RETURN(s.counters.interactions_rolled_back, r.GetU64());

  DVMS_ASSIGN_OR_RETURN(uint32_t n_commits, r.GetU32());
  if (n_commits > kMaxSnapshotCount) return CountError(n_commits, "undo-commit");
  s.undo_history.reserve(n_commits);
  for (uint32_t i = 0; i < n_commits; ++i) {
    DVMS_ASSIGN_OR_RETURN(uint32_t n_tables, r.GetU32());
    if (n_tables > kMaxSnapshotCount) return CountError(n_tables, "undo-table");
    std::vector<std::pair<std::string, TablePtr>> commit;
    commit.reserve(n_tables);
    for (uint32_t j = 0; j < n_tables; ++j) {
      DVMS_ASSIGN_OR_RETURN(std::string name, r.GetString());
      DVMS_ASSIGN_OR_RETURN(TablePtr table, refs.GetRequired(&r, false));
      commit.emplace_back(std::move(name), std::move(table));
    }
    s.undo_history.push_back(std::move(commit));
  }
  DVMS_ASSIGN_OR_RETURN(s.undo_cursor, r.GetU64());

  DVMS_ASSIGN_OR_RETURN(s.has_scheduler, r.GetBool());
  if (s.has_scheduler) {
    DVMS_ASSIGN_OR_RETURN(s.scheduler, DecodeSchedulerState(&r));
  }
  if (!r.AtEnd()) {
    return Status::ExecutionError("snapshot decode: " +
                                  std::to_string(r.remaining()) +
                                  " trailing bytes");
  }
  return s;
}

}  // namespace dvms
