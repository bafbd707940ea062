#include "storage/versioned_table.h"

#include "common/fault.h"

namespace dvms {

VersionedTable::VersionedTable(std::string name, Schema schema,
                               size_t max_history)
    : name_(std::move(name)),
      declared_schema_(schema),
      current_(std::move(schema)),
      max_history_(max_history) {
  // Seed history with the empty initial version so @vnow-1 is always
  // addressable.
  committed_.push_back(CurrentImage());
}

const TablePtr& VersionedTable::CurrentImage() const {
  if (image_ == nullptr) image_ = MakeTablePtr(current_);
  return image_;
}

void VersionedTable::CaptureCurrentForUndo() {
  if (!undo_armed_ || undo_current_ != nullptr) return;
  if (!undo_meta_.has_value()) undo_epoch_ = epoch_;
  // The caller mutates current_ in place and drops the image; the capture
  // keeps it (a copy only if no image existed yet).
  undo_current_ = CurrentImage();
}

void VersionedTable::CaptureByDisplacement() {
  if (!undo_armed_ || undo_current_ != nullptr) return;
  if (!undo_meta_.has_value()) undo_epoch_ = epoch_;
  // The outgoing working state becomes the undo snapshot instead of being
  // destroyed: its image if one exists, else the moved-out table.
  undo_current_ =
      image_ != nullptr ? std::move(image_) : MakeTablePtr(std::move(current_));
}

void VersionedTable::CaptureMetaForUndo() {
  if (!undo_armed_ || undo_meta_.has_value()) return;
  if (undo_current_ == nullptr) undo_epoch_ = epoch_;
  UndoMeta meta;
  meta.committed = committed_;  // shared_ptr copies — cheap
  meta.steps = steps_;
  meta.txn_base = txn_base_;
  meta.in_transaction = in_transaction_;
  undo_meta_ = std::move(meta);
}

void VersionedTable::ArmUndo() {
  undo_armed_ = true;
  undo_current_.reset();
  undo_meta_.reset();
}

void VersionedTable::DisarmUndo() {
  undo_armed_ = false;
  undo_current_.reset();
  undo_meta_.reset();
}

bool VersionedTable::RollbackUndo() {
  bool restored = undo_current_ != nullptr || undo_meta_.has_value();
  if (undo_current_ != nullptr) {
    current_ = *undo_current_;
    image_ = std::move(undo_current_);
  }
  if (undo_meta_.has_value()) {
    committed_ = std::move(undo_meta_->committed);
    steps_ = std::move(undo_meta_->steps);
    txn_base_ = std::move(undo_meta_->txn_base);
    in_transaction_ = undo_meta_->in_transaction;
  }
  if (restored) epoch_ = undo_epoch_;
  DisarmUndo();
  return restored;
}

Status VersionedTable::SetCurrent(Table t) {
  if (!declared_schema_.UnionCompatible(t.schema())) {
    return Status::TypeError("table '" + name_ +
                             "': assigned contents are not union-compatible "
                             "with declared schema [" +
                             declared_schema_.ToString() + "]");
  }
  // Keep the declared column names/types; adopt the columns in place.
  Table replacement = std::move(t);
  replacement.ReplaceSchema(declared_schema_);
  CaptureByDisplacement();  // zero-copy on the view path
  current_ = std::move(replacement);
  image_.reset();
  ++epoch_;
  return Status::OK();
}

Status VersionedTable::SetCurrentImage(TablePtr image) {
  if (!declared_schema_.UnionCompatible(image->schema())) {
    return Status::TypeError("table '" + name_ +
                             "': restored contents are not union-compatible "
                             "with declared schema [" +
                             declared_schema_.ToString() + "]");
  }
  CaptureByDisplacement();
  current_ = *image;
  image_ = std::move(image);
  ++epoch_;
  return Status::OK();
}

Status VersionedTable::Append(Row row) {
  DVMS_RETURN_IF_ERROR(fault::MaybeInject(FaultSite::kStorageAppend));
  CaptureCurrentForUndo();
  ++epoch_;
  image_.reset();
  return current_.Append(std::move(row));
}

void VersionedTable::ClearCurrent() {
  CaptureCurrentForUndo();
  ++epoch_;
  image_.reset();
  current_.Clear();
}

void VersionedTable::BeginTransaction() {
  if (in_transaction_) return;
  CaptureMetaForUndo();
  ++epoch_;
  in_transaction_ = true;
  txn_base_ = CurrentImage();
  steps_.clear();
}

void VersionedTable::RecordStep() {
  if (!in_transaction_) BeginTransaction();
  CaptureMetaForUndo();
  ++epoch_;
  steps_.push_back(CurrentImage());
}

void VersionedTable::Commit() {
  CaptureMetaForUndo();
  ++epoch_;
  committed_.push_back(CurrentImage());
  if (committed_.size() > max_history_) {
    committed_.erase(committed_.begin());
  }
  steps_.clear();
  txn_base_.reset();
  in_transaction_ = false;
}

void VersionedTable::Abort() {
  TablePtr restore = in_transaction_ ? txn_base_ : nullptr;
  if (restore == nullptr && !committed_.empty()) restore = committed_.back();
  CaptureMetaForUndo();
  if (restore != nullptr) {
    CaptureByDisplacement();
    current_ = *restore;
    image_ = std::move(restore);
  }
  ++epoch_;
  steps_.clear();
  txn_base_.reset();
  in_transaction_ = false;
}

VersionedTable::DurableState VersionedTable::SaveDurableState() const {
  DurableState state;
  state.current = CurrentImage();
  state.committed = committed_;  // shared_ptr copies; versions are immutable
  state.steps = steps_;
  state.txn_base = txn_base_;
  state.in_transaction = in_transaction_;
  state.epoch = epoch_;
  return state;
}

void VersionedTable::RestoreDurableState(DurableState state) {
  current_ = *state.current;
  image_ = std::move(state.current);
  committed_ = std::move(state.committed);
  steps_ = std::move(state.steps);
  txn_base_ = std::move(state.txn_base);
  in_transaction_ = state.in_transaction;
  epoch_ = state.epoch;
  undo_armed_ = false;
  undo_current_.reset();
  undo_meta_.reset();
}

Result<TablePtr> VersionedTable::Version(size_t k) const {
  if (k == 0) return CurrentImage();
  if (k > committed_.size()) {
    return Status::NotFound("table '" + name_ + "' has no version @vnow-" +
                            std::to_string(k) + " (history depth " +
                            std::to_string(committed_.size()) + ")");
  }
  return committed_[committed_.size() - k];
}

Result<TablePtr> VersionedTable::StepVersion(size_t j) const {
  if (j == 0) return CurrentImage();
  if (!in_transaction_) {
    return MakeTablePtr(Table(declared_schema_));
  }
  if (j > steps_.size()) {
    // Further back than any recorded event: the interaction-start state.
    if (txn_base_ != nullptr) return txn_base_;
    return MakeTablePtr(Table(declared_schema_));
  }
  return steps_[steps_.size() - j];
}

}  // namespace dvms
