#ifndef DVMS_CONCURRENCY_SNAPSHOT_H_
#define DVMS_CONCURRENCY_SNAPSHOT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "parser/ast.h"
#include "query/binder.h"
#include "query/executor.h"
#include "storage/catalog.h"

namespace dvms {

/// An immutable freeze of one relation's full version surface at a publish
/// point: working state, committed `@vnow-k` history, per-event `@tnow-j`
/// steps, and the open-transaction base. Readers resolve every VersionRef
/// against this struct with the exact semantics of
/// VersionedTable::Version/StepVersion — no lock, no live storage.
struct RelationSnapshot {
  std::string name;        // display name (original casing)
  RelationKind kind = RelationKind::kBase;
  Schema declared_schema;  // for empty @tnow reads outside a transaction
  uint64_t table_epoch = 0;  // VersionedTable::epoch() at publish

  TablePtr current;                 // never null once published
  std::vector<TablePtr> committed;  // oldest first
  std::vector<TablePtr> steps;      // oldest first, within transaction
  TablePtr txn_base;                // null when no transaction was open
  bool in_transaction = false;

  /// Mirrors VersionedTable::Version (kVnow / kCurrent) and
  /// ::StepVersion (kTnow), including the out-of-range error texts.
  Result<TablePtr> Read(const VersionRef& version) const;
};

using RelationSnapshotPtr = std::shared_ptr<const RelationSnapshot>;

/// A consistent engine-wide snapshot: every relation frozen at the same
/// publish epoch. Immutable once published; shared_ptr ownership means a
/// pinned epoch cannot be reclaimed while any reader still holds it.
/// Serves both planner schema resolution and executor scans.
class EngineSnapshotView : public SchemaResolver, public RelationSource {
 public:
  /// Monotone publish epoch (1 = first publish after engine construction).
  uint64_t epoch() const { return epoch_; }

  const RelationSnapshotPtr* Find(const std::string& name) const;
  std::vector<std::string> Names() const { return names_; }

  // SchemaResolver: schema of the working state at the snapshot.
  Result<Schema> ResolveRelation(const std::string& name) const override;

  // RelationSource: versioned read against the frozen histories.
  Result<TablePtr> Read(const std::string& relation,
                        const VersionRef& version) const override;

 private:
  friend class SnapshotManager;

  uint64_t epoch_ = 0;
  std::unordered_map<std::string, RelationSnapshotPtr> relations_;  // IdentKey
  std::vector<std::string> names_;  // creation order, original casing
};

using SnapshotPtr = std::shared_ptr<const EngineSnapshotView>;

/// The engine-maintained relations that exist only at read time
/// (dvms_metrics, dvms_cluster, ...): each owner registers a name and a row
/// producer once, at construction, and every read resolves the name the
/// same way. Lookups after construction are lock-free; producers must be
/// safe to call from concurrent readers.
class SystemRelationRegistry {
 public:
  using Producer = std::function<Table()>;

  void Register(const std::string& name, Producer produce);

  /// The producer registered under `name` (case-insensitive), or null.
  const Producer* Find(const std::string& name) const;

 private:
  std::unordered_map<std::string, Producer> producers_;  // IdentKey
};

/// The read view of one statement: a registered system relation is built
/// on its first ResolveRelation or Read and that table serves the rest of
/// the statement, whether it is named in FROM, in a FROM subquery, or in
/// `x IN <relation>`; every other name reads through to the base — a
/// published snapshot, or the live catalog under the engine write lock.
/// One view serves one statement on one thread.
class StatementView : public SchemaResolver, public RelationSource {
 public:
  StatementView(const SchemaResolver* base_schemas,
                const RelationSource* base_relations,
                const SystemRelationRegistry* registry)
      : base_schemas_(base_schemas),
        base_relations_(base_relations),
        registry_(registry) {}
  StatementView(const EngineSnapshotView* base,
                const SystemRelationRegistry* registry)
      : StatementView(base, base, registry) {}

  Result<Schema> ResolveRelation(const std::string& name) const override;
  Result<TablePtr> Read(const std::string& relation,
                        const VersionRef& version) const override;

 private:
  /// The statement's table for a registered relation; null otherwise.
  TablePtr System(const std::string& name) const;

  const SchemaResolver* base_schemas_;
  const RelationSource* base_relations_;
  const SystemRelationRegistry* registry_;
  mutable std::unordered_map<std::string, TablePtr> built_;  // IdentKey
};

/// Plans, binds and runs one read statement against `view`: the result
/// table, or with `explain` the per-operator plan report
/// `(operator, detail, depth, rows, morsels, self_us, total_us)` — plan
/// only with NULL runtime columns, or executed and timed under `analyze`.
Result<Table> RunSelect(const SelectStmt& select, bool explain, bool analyze,
                        const StatementView& view, const UdfRegistry& udfs,
                        ExecOptions opts = {});

/// Publishes and hands out engine snapshots.
///
/// Publish() runs under the engine write lock at the end of every mutation
/// unit; it is incremental — relations whose VersionedTable::epoch() did
/// not move since the last publish share the previous RelationSnapshot
/// (O(1) per unchanged relation), and if nothing moved at all the previous
/// EngineSnapshotView stays current and no new epoch is minted.
///
/// Acquire() is what readers call; it takes a brief internal mutex (never
/// the engine lock) and returns a shared_ptr that keeps the whole epoch
/// alive. GC is reference counting: an epoch is reclaimed when the last
/// reader (and the manager's own latest-pointer) releases it — a pinned
/// epoch can therefore never be reclaimed early, which ASan verifies for
/// free in the snapshot-invariant tests.
class SnapshotManager {
 public:
  /// Freezes `catalog`, including the kSystem reports a named EXPLAIN
  /// materializes. Returns the now-current epoch.
  uint64_t Publish(const Catalog& catalog);

  /// The latest published snapshot; null before the first Publish.
  SnapshotPtr Acquire() const;

  /// Explicit pin accounting (session Pin/Unpin and per-read guards):
  /// purely for leak-checking via GovernorStats — lifetime itself is the
  /// shared_ptr.
  void NotePin();
  void NoteUnpin();

  uint64_t current_epoch() const;
  int64_t pinned() const;
  uint64_t epochs_published() const;
  /// Published epochs whose EngineSnapshotView has been destroyed.
  uint64_t epochs_retired() const;

 private:
  mutable std::mutex mu_;
  SnapshotPtr latest_;
  uint64_t next_epoch_ = 1;
  uint64_t epochs_published_ = 0;
  uint64_t retired_compacted_ = 0;  // retired views dropped from history_
  int64_t pinned_ = 0;
  /// Every published view, weakly held: retired = published - still alive.
  mutable std::vector<std::weak_ptr<const EngineSnapshotView>> history_;
};

}  // namespace dvms

#endif  // DVMS_CONCURRENCY_SNAPSHOT_H_
