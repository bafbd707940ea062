#include "query/optimizer.h"

#include <algorithm>

namespace dvms {

namespace {

/// Matches `Project(Aggregate(child))` where the Aggregate has exactly one
/// ColumnRef group expression and one SUM(ColumnRef) aggregate, and the
/// Project merely reorders the aggregate's two outputs.
bool MatchProjectAggregate(const PlanNode& plan, const PlanNode** aggregate,
                           std::string* group_out, std::string* agg_out,
                           bool* group_first) {
  if (plan.kind != PlanKind::kProject || plan.children.size() != 1) {
    return false;
  }
  const PlanNode& agg = *plan.children[0];
  if (agg.kind != PlanKind::kAggregate) return false;
  if (agg.group_by.size() != 1 || agg.aggregates.size() != 1) return false;
  if (agg.group_by[0]->kind != ExprKind::kColumnRef) return false;
  const AggSpec& spec = agg.aggregates[0];
  if (spec.func != AggFunc::kSum || spec.count_star ||
      spec.arg == nullptr || spec.arg->kind != ExprKind::kColumnRef) {
    return false;
  }
  // The projection must be exactly the two aggregate outputs as bare refs.
  if (plan.projections.size() != 2) return false;
  for (const ExprPtr& e : plan.projections) {
    if (e->kind != ExprKind::kColumnRef) return false;
  }
  const std::string& group_name = agg.group_names[0];
  const std::string& agg_name = spec.output_name;
  const std::string& first = plan.projections[0]->column;
  const std::string& second = plan.projections[1]->column;
  if (IdentEquals(first, group_name) && IdentEquals(second, agg_name)) {
    *group_first = true;
  } else if (IdentEquals(first, agg_name) && IdentEquals(second, group_name)) {
    *group_first = false;
  } else {
    return false;
  }
  *aggregate = &agg;
  *group_out = plan.projection_names[*group_first ? 0 : 1];
  *agg_out = plan.projection_names[*group_first ? 1 : 0];
  return true;
}

}  // namespace

bool CrossfilterOptimizer::TryAdopt(const std::string& view_name,
                                    const PlanNode& plan) {
  adopted_.erase(IdentKey(view_name));  // redefinition un-adopts first

  const PlanNode* agg = nullptr;
  AdoptedView view;
  bool group_first = true;
  if (!MatchProjectAggregate(plan, &agg, &view.group_out, &view.agg_out,
                             &group_first)) {
    return false;
  }
  view.group_first = group_first;
  view.group_col = agg->group_by[0]->column;
  view.measure = agg->aggregates[0].arg->column;

  const PlanNode* child = agg->children[0].get();
  if (child->kind == PlanKind::kFilter) {
    const Expr& pred = *child->predicate;
    if (pred.kind != ExprKind::kInRelation || pred.negated ||
        pred.children[0]->kind != ExprKind::kColumnRef) {
      return false;
    }
    view.filter_col = pred.children[0]->column;
    view.filter_rel = pred.in_relation;
    child = child->children[0].get();
  }
  if (child->kind != PlanKind::kScan || !child->version.is_current()) {
    return false;
  }
  // Only base relations: views can change shape under us.
  auto kind = catalog_->KindOf(child->relation);
  if (!kind.ok() || kind.value() != RelationKind::kBase) return false;
  view.fact = child->relation;
  // Grouping or filtering on the measure column itself is out of scope.
  // Filtering on the group column is the 1-D case: the groups in the
  // selection.
  if (IdentEquals(view.group_col, view.measure) ||
      IdentEquals(view.filter_col, view.measure)) {
    return false;
  }

  adopted_[IdentKey(view_name)] = std::move(view);
  return true;
}

std::string CrossfilterOptimizer::CubeKey(const AdoptedView& view) const {
  std::string a = IdentKey(view.group_col);
  std::string b = view.filter_col.empty() ? a : IdentKey(view.filter_col);
  if (b < a) std::swap(a, b);
  return IdentKey(view.fact) + "|" + IdentKey(view.measure) + "|" + a + "|" + b;
}

Result<const CrossfilterCube*> CrossfilterOptimizer::GetOrBuildCube(
    const AdoptedView& view) {
  std::string key = CubeKey(view);
  auto it = cubes_.find(key);
  if (it != cubes_.end()) return it->second.get();
  DVMS_ASSIGN_OR_RETURN(VersionedTable * fact, catalog_->Get(view.fact));
  std::vector<std::string> dims = {view.group_col};
  if (!view.filter_col.empty() &&
      !IdentEquals(view.filter_col, view.group_col)) {
    dims.push_back(view.filter_col);
  }
  DVMS_ASSIGN_OR_RETURN(
      CrossfilterCube cube,
      CrossfilterCube::Build(fact->current(), dims, view.measure));
  ++cube_builds_;
  auto owned = std::make_unique<CrossfilterCube>(std::move(cube));
  const CrossfilterCube* ptr = owned.get();
  cubes_.emplace(std::move(key), std::move(owned));
  return ptr;
}

Result<Table> CrossfilterOptimizer::Refresh(const std::string& view_name) {
  auto it = adopted_.find(IdentKey(view_name));
  if (it == adopted_.end()) {
    return Status::NotFound("view '" + view_name + "' is not adopted");
  }
  const AdoptedView& view = it->second;
  DVMS_ASSIGN_OR_RETURN(const CrossfilterCube* cube, GetOrBuildCube(view));

  // The selection set the scan's IN would probe: the first column's
  // non-NULL values.
  ValueSet values;
  const ValueSet* filter = nullptr;
  if (!view.filter_rel.empty()) {
    DVMS_ASSIGN_OR_RETURN(VersionedTable * selection,
                          catalog_->Get(view.filter_rel));
    const Table& sel = selection->current();
    if (sel.num_columns() == 0) {
      return Status::ExecutionError("IN-relation '" + view.filter_rel +
                                    "' has no columns");
    }
    const ColumnVec& first = sel.col(0);
    for (size_t i = 0; i < sel.num_rows(); ++i) {
      if (!first.IsNull(i)) values.insert(first.Get(i));
    }
    filter = &values;
  }
  DVMS_ASSIGN_OR_RETURN(
      Table sums, cube->ViewSums(view.group_col, view.filter_col, filter));

  // Shape the output to the view's column order and names.
  Schema schema;
  if (view.group_first) {
    schema.AddColumn({view.group_out, ValueType::kNull});
    schema.AddColumn({view.agg_out, ValueType::kDouble});
  } else {
    schema.AddColumn({view.agg_out, ValueType::kDouble});
    schema.AddColumn({view.group_out, ValueType::kNull});
  }
  Table out(schema);
  for (const Row& row : sums.rows()) {
    if (view.group_first) {
      out.AppendUnchecked({row[0], row[1]});
    } else {
      out.AppendUnchecked({row[1], row[0]});
    }
  }
  ++hits_;
  return out;
}

void CrossfilterOptimizer::OnRelationChanged(const std::string& relation) {
  std::string key = IdentKey(relation);
  for (auto it = cubes_.begin(); it != cubes_.end();) {
    // Cube keys start with the fact relation key.
    if (it->first.compare(0, key.size(), key) == 0 &&
        it->first.size() > key.size() && it->first[key.size()] == '|') {
      it = cubes_.erase(it);
    } else {
      ++it;
    }
  }
}

bool CrossfilterOptimizer::IsAdopted(const std::string& view_name) const {
  return adopted_.count(IdentKey(view_name)) > 0;
}

}  // namespace dvms
