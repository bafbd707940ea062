#ifndef DVMS_QUERY_OPTIMIZER_H_
#define DVMS_QUERY_OPTIMIZER_H_

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "query/ivm.h"
#include "query/plan.h"
#include "storage/catalog.h"

namespace dvms {

/// The Online Optimizer of Figure 3, specialized to the workload that
/// dominates Figure 1: crossfilter-shaped views.
///
/// When a view plan matches
///
///   SELECT g, SUM(m) FROM fact [WHERE f IN selection] GROUP BY g
///
/// with `fact` a base relation, the optimizer adopts the view and
/// maintains it from a precomputed marginal cube: a change to the
/// `selection` relation refreshes the view by summing |selection| cube
/// cells per group instead of rescanning the fact table. A totals view
/// (no WHERE) and a self-filtered view (f = g) read the 1-D marginal of g;
/// any other f reads the 2-D marginal of (g, f). The refreshed view has
/// the scan's rows: the same groups, and a NULL sum where the scan has
/// one. Cubes are shared across views over the same (fact, measure, dims)
/// and are invalidated (lazily rebuilt) when the fact relation itself
/// changes.
class CrossfilterOptimizer {
 public:
  explicit CrossfilterOptimizer(Catalog* catalog) : catalog_(catalog) {}

  /// Inspects a bound view plan; adopts it when it has the crossfilter
  /// shape. Safe to call for every view; returns true on adoption.
  /// Re-defining a view re-adopts (or un-adopts) it.
  bool TryAdopt(const std::string& view_name, const PlanNode& plan);

  /// Produces the adopted view's current contents from the cube.
  /// NotFound when the view is not adopted.
  Result<Table> Refresh(const std::string& view_name);

  /// Invalidates cubes built over `relation` (call when base data
  /// changes). Selection-relation changes need no invalidation — the
  /// selection is read fresh on every Refresh.
  void OnRelationChanged(const std::string& relation);

  bool IsAdopted(const std::string& view_name) const;
  size_t cube_count() const { return cubes_.size(); }
  size_t hits() const { return hits_; }
  size_t cube_builds() const { return cube_builds_; }

 private:
  struct AdoptedView {
    std::string fact;        // base relation scanned
    std::string group_col;   // fact column grouped on
    std::string measure;     // fact column summed
    std::string filter_col;  // fact column filtered (empty: totals view;
                             // group_col: self-filtered view)
    std::string filter_rel;  // selection relation (empty: totals view)
    // Output schema details (the planner emits Project(Aggregate(...))).
    std::string group_out;
    std::string agg_out;
    bool group_first = true;  // column order in the view output
  };

  std::string CubeKey(const AdoptedView& view) const;
  Result<const CrossfilterCube*> GetOrBuildCube(const AdoptedView& view);

  Catalog* catalog_;
  std::unordered_map<std::string, AdoptedView> adopted_;  // key: view name
  std::unordered_map<std::string, std::unique_ptr<CrossfilterCube>> cubes_;
  size_t hits_ = 0;
  size_t cube_builds_ = 0;
};

}  // namespace dvms

#endif  // DVMS_QUERY_OPTIMIZER_H_
