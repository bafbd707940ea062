#include "concurrency/snapshot.h"

#include <algorithm>
#include <utility>

#include "parser/planner.h"

namespace dvms {

Result<TablePtr> RelationSnapshot::Read(const VersionRef& version) const {
  switch (version.kind) {
    case VersionRef::Kind::kCurrent:
      return current;
    case VersionRef::Kind::kVnow: {
      size_t k = version.offset;
      if (k == 0) return current;
      if (k > committed.size()) {
        return Status::NotFound("table '" + name + "' has no version @vnow-" +
                                std::to_string(k) + " (history depth " +
                                std::to_string(committed.size()) + ")");
      }
      return committed[committed.size() - k];
    }
    case VersionRef::Kind::kTnow: {
      size_t j = version.offset;
      if (j == 0) return current;
      if (!in_transaction) return MakeTablePtr(Table(declared_schema));
      if (j > steps.size()) {
        if (txn_base != nullptr) return txn_base;
        return MakeTablePtr(Table(declared_schema));
      }
      return steps[steps.size() - j];
    }
  }
  return Status::Internal("bad version ref");
}

const RelationSnapshotPtr* EngineSnapshotView::Find(
    const std::string& name) const {
  auto it = relations_.find(IdentKey(name));
  if (it == relations_.end()) return nullptr;
  return &it->second;
}

Result<Schema> EngineSnapshotView::ResolveRelation(
    const std::string& name) const {
  const RelationSnapshotPtr* rel = Find(name);
  if (rel == nullptr) {
    return Status::NotFound("unknown relation '" + name + "'");
  }
  return (*rel)->current->schema();
}

Result<TablePtr> EngineSnapshotView::Read(const std::string& relation,
                                          const VersionRef& version) const {
  const RelationSnapshotPtr* rel = Find(relation);
  if (rel == nullptr) {
    return Status::NotFound("unknown relation '" + relation + "'");
  }
  return (*rel)->Read(version);
}

void SystemRelationRegistry::Register(const std::string& name,
                                      Producer produce) {
  producers_[IdentKey(name)] = std::move(produce);
}

const SystemRelationRegistry::Producer* SystemRelationRegistry::Find(
    const std::string& name) const {
  auto it = producers_.find(IdentKey(name));
  return it == producers_.end() ? nullptr : &it->second;
}

TablePtr StatementView::System(const std::string& name) const {
  const SystemRelationRegistry::Producer* produce = registry_->Find(name);
  if (produce == nullptr) return nullptr;
  TablePtr& table = built_[IdentKey(name)];
  if (table == nullptr) table = MakeTablePtr((*produce)());
  return table;
}

Result<Schema> StatementView::ResolveRelation(const std::string& name) const {
  if (TablePtr table = System(name)) return table->schema();
  return base_schemas_->ResolveRelation(name);
}

Result<TablePtr> StatementView::Read(const std::string& relation,
                                     const VersionRef& version) const {
  // System relations have no history: every version ref resolves to the
  // statement's freshly built table.
  if (TablePtr table = System(relation)) return table;
  return base_relations_->Read(relation, version);
}

namespace {

/// One-line operator annotation for the EXPLAIN report.
std::string PlanNodeDetail(const PlanNode& node) {
  switch (node.kind) {
    case PlanKind::kScan:
      return node.relation + node.version.ToString();
    case PlanKind::kLimit:
      return std::to_string(node.limit);
    case PlanKind::kAlias:
      return node.alias;
    default:
      return "";
  }
}

Table EmptyExplainReport() {
  return Table(Schema({{"operator", ValueType::kString},
                       {"detail", ValueType::kString},
                       {"depth", ValueType::kInt64},
                       {"rows", ValueType::kInt64},
                       {"morsels", ValueType::kInt64},
                       {"self_us", ValueType::kInt64},
                       {"total_us", ValueType::kInt64}}));
}

}  // namespace

Result<Table> RunSelect(const SelectStmt& select, bool explain, bool analyze,
                        const StatementView& view, const UdfRegistry& udfs,
                        ExecOptions opts) {
  Planner planner(&view);
  DVMS_ASSIGN_OR_RETURN(PlanPtr plan, planner.PlanSelect(select));
  Binder binder(&view, &udfs);
  DVMS_RETURN_IF_ERROR(binder.Bind(plan.get()));
  if (explain && !analyze) {
    // Plan-only: pre-order walk with NULL runtime columns.
    Table report = EmptyExplainReport();
    std::function<void(const PlanNode&, int64_t)> walk =
        [&](const PlanNode& node, int64_t depth) {
          report.AppendUnchecked(
              {Value::String(PlanKindToString(node.kind)),
               Value::String(PlanNodeDetail(node)), Value::Int(depth),
               Value::Null(), Value::Null(), Value::Null(), Value::Null()});
          for (const PlanPtr& child : node.children) walk(*child, depth + 1);
        };
    walk(*plan, 0);
    return report;
  }
  Executor exec(&view, &udfs);
  opts.analyze = explain;
  DVMS_ASSIGN_OR_RETURN(std::unique_ptr<NodeResult> result,
                        exec.Execute(*plan, opts));
  if (!explain) return std::move(result->table);
  Table report = EmptyExplainReport();
  std::function<void(const NodeResult&, int64_t)> walk =
      [&](const NodeResult& node, int64_t depth) {
        int64_t children_us = 0;
        for (const auto& child : node.children) children_us += child->exec_us;
        int64_t self_us = node.exec_us - children_us;
        if (self_us < 0) self_us = 0;
        report.AppendUnchecked(
            {Value::String(PlanKindToString(node.node->kind)),
             Value::String(PlanNodeDetail(*node.node)), Value::Int(depth),
             Value::Int(static_cast<int64_t>(node.table.num_rows())),
             Value::Int(static_cast<int64_t>(node.morsels_used)),
             Value::Int(self_us), Value::Int(node.exec_us)});
        for (const auto& child : node.children) walk(*child, depth + 1);
      };
  walk(*result, 0);
  return report;
}

uint64_t SnapshotManager::Publish(const Catalog& catalog) {
  std::lock_guard<std::mutex> lock(mu_);
  const EngineSnapshotView* prev = latest_.get();
  auto next = std::make_shared<EngineSnapshotView>();
  bool changed = prev == nullptr;
  for (const std::string& name : catalog.Names()) {
    auto table_or = catalog.Get(name);
    if (!table_or.ok()) continue;  // racing Drop cannot happen (write lock)
    const VersionedTable* table = table_or.value();
    auto kind_or = catalog.KindOf(name);
    RelationKind kind = kind_or.ok() ? kind_or.value() : RelationKind::kBase;
    std::string key = IdentKey(table->name());

    // Incremental reuse: an unchanged mutation epoch certifies the whole
    // version surface is bit-identical to the previous publish.
    if (prev != nullptr) {
      auto it = prev->relations_.find(key);
      if (it != prev->relations_.end() &&
          it->second->table_epoch == table->epoch()) {
        next->relations_.emplace(key, it->second);
        next->names_.push_back(it->second->name);
        continue;
      }
    }
    changed = true;
    auto rel = std::make_shared<RelationSnapshot>();
    rel->name = table->name();
    rel->kind = kind;
    rel->declared_schema = table->declared_schema();
    rel->table_epoch = table->epoch();
    rel->current = table->CurrentImage();
    rel->committed = table->committed_versions();
    rel->steps = table->step_versions();
    rel->txn_base = table->transaction_base();
    rel->in_transaction = table->in_transaction();
    next->relations_.emplace(std::move(key), std::move(rel));
    next->names_.push_back(table->name());
  }
  if (prev != nullptr && !changed &&
      next->relations_.size() == prev->relations_.size()) {
    // Nothing moved (e.g. a rolled-back unit restored every epoch): the
    // previous view stays current and no epoch is minted.
    return prev->epoch_;
  }
  next->epoch_ = next_epoch_++;
  ++epochs_published_;
  history_.push_back(next);
  // Bound the weak history (retired entries are counted then dropped).
  if (history_.size() > 4096) {
    uint64_t retired = 0;
    history_.erase(std::remove_if(history_.begin(), history_.end(),
                                  [&retired](const auto& w) {
                                    if (w.expired()) {
                                      ++retired;
                                      return true;
                                    }
                                    return false;
                                  }),
                   history_.end());
    retired_compacted_ += retired;
  }
  latest_ = std::move(next);
  return latest_->epoch();
}

SnapshotPtr SnapshotManager::Acquire() const {
  std::lock_guard<std::mutex> lock(mu_);
  return latest_;
}

void SnapshotManager::NotePin() {
  std::lock_guard<std::mutex> lock(mu_);
  ++pinned_;
}

void SnapshotManager::NoteUnpin() {
  std::lock_guard<std::mutex> lock(mu_);
  --pinned_;
}

uint64_t SnapshotManager::current_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return latest_ == nullptr ? 0 : latest_->epoch();
}

int64_t SnapshotManager::pinned() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pinned_;
}

uint64_t SnapshotManager::epochs_published() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epochs_published_;
}

uint64_t SnapshotManager::epochs_retired() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t retired = retired_compacted_;
  for (const auto& w : history_) {
    if (w.expired()) ++retired;
  }
  return retired;
}

}  // namespace dvms
