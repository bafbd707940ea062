#ifndef DVMS_STORAGE_VERSIONED_TABLE_H_
#define DVMS_STORAGE_VERSIONED_TABLE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "storage/table.h"

namespace dvms {

/// A relation with DeVIL's two-level version history.
///
/// DeVIL maps interactions to transactions: an EVENT pattern's start state
/// begins a transaction, accept commits, reject aborts. Queries may address
///   * `@vnow-k` — the committed state k transactions ago (k >= 1); during an
///     in-flight interaction `@vnow-1` is the state at the beginning of the
///     interaction (used by DeVIL 3 to break recursion). `@vnow-0` is the
///     current working state.
///   * `@tnow-j` — the state j events ago *within* the current transaction
///     (used for interactions like mouse trails).
///
/// Committed history is capped; old versions are discarded FIFO.
///
/// Shared images: every version, undo entry, published epoch and scan of
/// the working state is the same immutable TablePtr, CurrentImage(). It is
/// made (one copy of the working state) on first use after a mutation and
/// dropped by every mutator, so a relation that no interaction changes
/// keeps one image however many versions refer to it.
///
/// Undo capture (interaction rollback): between ArmUndo() and
/// DisarmUndo()/RollbackUndo(), the first mutation of the working state and
/// the first mutation of the version metadata each snapshot the
/// pre-mutation state lazily, so an engine-level statement batch can be
/// rolled back to a bit-identical pre-batch state on any mid-batch error.
/// The fault-free cost is near zero: unmutated tables snapshot nothing, the
/// working-state capture is the current image, and SetCurrent captures by
/// *moving* the displaced working state when no image exists.
class VersionedTable {
 public:
  VersionedTable(std::string name, Schema schema, size_t max_history = 16);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return current_.schema(); }

  /// The current working state (uncommitted if a transaction is open).
  const Table& current() const { return current_; }

  /// The working state as a shared immutable image: made on the first call
  /// after a mutation, then returned as the same pointer until the next
  /// one. Call only under the engine write lock (it may fill the cache).
  const TablePtr& CurrentImage() const;

  /// Mutable working-state access. Counts as a mutation for undo capture
  /// (the pre-mutation state is snapshotted if capture is armed) and drops
  /// the current image. Do not hold the reference across a call that makes
  /// an image (Commit, RecordStep, Version(0), a publish or a scan): later
  /// writes through it would not reach that image.
  Table& mutable_current() {
    CaptureCurrentForUndo();
    ++epoch_;
    image_.reset();
    return current_;
  }

  /// Replaces the working state. The schema of `t` must be union-compatible
  /// with the declared schema.
  Status SetCurrent(Table t);

  /// Replaces the working state with an earlier CurrentImage() of this
  /// relation (interaction undo), which becomes the current image again:
  /// versions taken before the next mutation share it. Errors like
  /// SetCurrent if the image is not union-compatible.
  Status SetCurrentImage(TablePtr image);

  /// Appends a row to the working state (validated). Subject to
  /// FaultSite::kStorageAppend injection.
  Status Append(Row row);

  /// Clears the working state's rows (undo-capture aware).
  void ClearCurrent();

  /// Begins an interaction transaction: snapshots the working state as the
  /// transaction base and clears per-event step history. Idempotent if a
  /// transaction is already open (nested interactions share the outer
  /// boundary).
  void BeginTransaction();

  /// Records a per-event snapshot (`@tnow` granularity) of the working state.
  void RecordStep();

  /// Commits: pushes the working state onto committed history and closes the
  /// transaction. Also usable outside a transaction to checkpoint.
  void Commit();

  /// Aborts: restores the working state to the transaction base (or the last
  /// committed version if no transaction is open) and closes the transaction.
  void Abort();

  bool in_transaction() const { return in_transaction_; }

  /// Number of committed versions retained.
  size_t num_committed_versions() const { return committed_.size(); }

  /// Number of per-event snapshots recorded in the open transaction.
  size_t num_steps() const { return steps_.size(); }

  /// Monotone mutation counter: bumps on every working-state or version
  /// mutation, and is restored by RollbackUndo() — equal epochs before and
  /// after a rolled-back batch certify untouched state.
  uint64_t epoch() const { return epoch_; }

  // ---- Undo capture (engine statement-batch rollback) ----

  /// Arms lazy pre-mutation capture. Any capture from a previous arm cycle
  /// is discarded.
  void ArmUndo();

  /// Disarms capture and discards any snapshot (the batch committed).
  void DisarmUndo();

  /// Restores every captured piece of state (working state and/or version
  /// metadata) and disarms. Returns true if anything was restored — i.e.
  /// the table was mutated since ArmUndo().
  bool RollbackUndo();

  bool undo_armed() const { return undo_armed_; }

  // ---- Durability (snapshot serialization) ----

  /// Everything a snapshot must persist to reproduce this relation
  /// bit-identically: working state, committed/step version history, the
  /// open-transaction base, and the mutation epoch. Undo-capture state is
  /// deliberately excluded — snapshots are taken between mutation units,
  /// when capture is disarmed.
  struct DurableState {
    TablePtr current;                 // the current image; never null
    std::vector<TablePtr> committed;  // oldest first
    std::vector<TablePtr> steps;      // oldest first
    TablePtr txn_base;                // null when no transaction is open
    bool in_transaction = false;
    uint64_t epoch = 0;
  };

  DurableState SaveDurableState() const;

  /// Installs `state` wholesale (row contents are trusted; callers decode
  /// through the validating snapshot codec). The declared schema keeps the
  /// value it was constructed with — recovery recreates the table from its
  /// DDL before overlaying state. `state.current` becomes the current
  /// image, so versions the decoder shared stay shared.
  void RestoreDurableState(DurableState state);

  size_t max_history() const { return max_history_; }

  /// `@vnow-k`. k == 0 returns the working state; k >= 1 returns the k-th
  /// most recent committed version. Errors if history does not reach back
  /// that far.
  Result<TablePtr> Version(size_t k) const;

  /// `@tnow-j`. j == 0 returns the working state; j >= 1 returns the state
  /// j recorded events ago within the open transaction. Addressing past
  /// the recorded steps returns the transaction-start snapshot; with no
  /// open transaction, an empty relation (no events have happened "within
  /// the current transaction").
  Result<TablePtr> StepVersion(size_t j) const;

  // ---- Snapshot publishing (concurrent readers) ----
  // Cheap structural access for SnapshotManager::Publish, which freezes a
  // relation's full version history into an immutable RelationSnapshot at
  // the end of a mutation unit (under the engine write lock). The shared
  // TablePtr histories make this O(history length), not O(rows); the
  // working state is CurrentImage(), a copy only when no version, scan or
  // earlier publish has made it since the last mutation.

  const Schema& declared_schema() const { return declared_schema_; }
  const std::vector<TablePtr>& committed_versions() const { return committed_; }
  const std::vector<TablePtr>& step_versions() const { return steps_; }
  const TablePtr& transaction_base() const { return txn_base_; }

 private:
  /// Version metadata snapshot: cheap (vectors of shared_ptr + flags).
  struct UndoMeta {
    std::vector<TablePtr> committed;
    std::vector<TablePtr> steps;
    TablePtr txn_base;
    bool in_transaction = false;
  };

  void CaptureCurrentForUndo();
  /// Capture for a mutator that replaces current_ wholesale: keeps the
  /// image or moves current_ out, never copies.
  void CaptureByDisplacement();
  void CaptureMetaForUndo();

  std::string name_;
  Schema declared_schema_;
  Table current_;
  /// CurrentImage()'s cache: an immutable copy of current_, or null after
  /// a mutation. Written only under the engine write lock.
  mutable TablePtr image_;
  std::vector<TablePtr> committed_;  // oldest first
  std::vector<TablePtr> steps_;      // oldest first, within transaction
  TablePtr txn_base_;
  bool in_transaction_ = false;
  size_t max_history_;
  uint64_t epoch_ = 0;
  bool undo_armed_ = false;
  uint64_t undo_epoch_ = 0;  // epoch at first capture of this arm cycle
  TablePtr undo_current_;    // pre-mutation image; null until captured
  std::optional<UndoMeta> undo_meta_;
};

}  // namespace dvms

#endif  // DVMS_STORAGE_VERSIONED_TABLE_H_
