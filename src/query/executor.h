#ifndef DVMS_QUERY_EXECUTOR_H_
#define DVMS_QUERY_EXECUTOR_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.h"
#include "expr/eval.h"
#include "expr/udf_registry.h"
#include "query/plan.h"
#include "storage/catalog.h"

namespace dvms {

/// One contribution to an output row: (child operator index, row index in
/// that child's output).
struct LineageEntry {
  uint32_t child;
  RowId row;
};

/// The materialized output of one plan node, with optional row-level
/// lineage and the full child results (so provenance can walk the tree down
/// to Scan leaves).
struct NodeResult {
  const PlanNode* node = nullptr;
  Table table;
  bool has_lineage = false;
  /// lineage[i] lists the child rows that produced output row i.
  std::vector<std::vector<LineageEntry>> lineage;
  std::vector<std::unique_ptr<NodeResult>> children;

  /// EXPLAIN ANALYZE accounting (filled when ExecOptions::analyze).
  /// Inclusive wall time for this operator and its subtree; the report
  /// derives self time as exec_us - sum(children exec_us).
  int64_t exec_us = 0;
  /// Morsels the operator was split into (1 for serial / non-morsel ops).
  size_t morsels_used = 1;
};

namespace exec {
/// Process-wide default for ExecOptions::vectorize: the DVMS_VECTORIZE
/// environment variable ("0" disables), overridable at runtime for
/// differential tests.
bool VectorizeDefault();
void SetVectorizeDefault(bool on);
}  // namespace exec

struct ExecOptions {
  /// Record row-level lineage at every operator (the "eager" strategy of
  /// §3.1). Costs memory and time; see bench_sec31_provenance.
  bool capture_lineage = false;
  /// Parallelism for morsel-driven operators (scan/filter/project/
  /// aggregate/sort): 0 = the pool's full width, 1 = serial inline.
  /// Results are bit-identical at every setting — partial results merge in
  /// morsel-index order, never completion order.
  size_t num_threads = 0;
  /// Rows per morsel. Fixed-size morsels define the shape of partial
  /// floating-point aggregation, so results are a function of this value
  /// and the input — never of num_threads.
  size_t morsel_rows = 2048;
  /// Pool to run on; nullptr = ThreadPool::Global().
  ThreadPool* pool = nullptr;
  /// Per-operator timing + morsel accounting for EXPLAIN ANALYZE. Off by
  /// default: two steady_clock reads per operator are cheap but not free.
  bool analyze = false;
  /// Columnar kernels for scan/filter/project/aggregate/sort: operate on
  /// typed column runs (dictionary ids for strings) instead of per-row
  /// Value dispatch. Bit-identical to the row-at-a-time paths — same
  /// values, same order, same lineage — at every thread count; operators
  /// whose expressions aren't vectorizable fall back per-operator.
  bool vectorize = exec::VectorizeDefault();
};

/// Where the executor reads relations from. View maintenance (and a named
/// EXPLAIN run inside Execute) reads the live catalog under the engine
/// write lock; ad-hoc reads go through an immutable snapshot view (see
/// concurrency/snapshot.h) so no scan ever touches mutable storage.
class RelationSource {
 public:
  virtual ~RelationSource() = default;
  /// Resolves `relation` at `version` to an immutable table.
  virtual Result<TablePtr> Read(const std::string& relation,
                                const VersionRef& version) const = 0;
};

/// RelationSource over the live catalog. Callers must hold the engine
/// write lock (or otherwise guarantee no concurrent mutation).
class CatalogRelationSource final : public RelationSource {
 public:
  explicit CatalogRelationSource(const Catalog* catalog) : catalog_(catalog) {}
  Result<TablePtr> Read(const std::string& relation,
                        const VersionRef& version) const override;

 private:
  const Catalog* catalog_;
};

/// Pull-style materializing executor over bound plans. Stateless; reads
/// relations from a RelationSource at the versions named by Scan nodes.
class Executor {
 public:
  Executor(const Catalog* catalog, const UdfRegistry* udfs)
      : owned_source_(std::make_unique<CatalogRelationSource>(catalog)),
        source_(owned_source_.get()),
        udfs_(udfs) {}

  Executor(const RelationSource* source, const UdfRegistry* udfs)
      : source_(source), udfs_(udfs) {}

  /// Executes a bound plan. Returns the full operator-result tree.
  Result<std::unique_ptr<NodeResult>> Execute(const PlanNode& plan,
                                              const ExecOptions& opts = {}) const;

  /// Convenience: executes and returns only the root table.
  Result<Table> ExecuteToTable(const PlanNode& plan) const;

 private:
  using InSets =
      std::unordered_map<std::string, std::shared_ptr<const ValueSet>>;

  /// Materializes the first column of every IN-referenced relation.
  Result<InSets> BuildInSets(const PlanNode& plan) const;

  /// Timing/metrics wrapper around ExecImpl/ExecScan (one node).
  Result<std::unique_ptr<NodeResult>> Exec(const PlanNode& node,
                                           const ExecOptions& opts,
                                           const EvalContext& ctx) const;

  Result<std::unique_ptr<NodeResult>> ExecImpl(const PlanNode& node,
                                               const ExecOptions& opts,
                                               const EvalContext& ctx) const;

  Result<std::unique_ptr<NodeResult>> ExecScan(const PlanNode& node,
                                               const ExecOptions& opts) const;

  std::unique_ptr<CatalogRelationSource> owned_source_;
  const RelationSource* source_;
  const UdfRegistry* udfs_;
};

}  // namespace dvms

#endif  // DVMS_QUERY_EXECUTOR_H_
