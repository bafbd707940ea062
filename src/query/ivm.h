#ifndef DVMS_QUERY_IVM_H_
#define DVMS_QUERY_IVM_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "expr/eval.h"
#include "storage/table.h"

namespace dvms {

/// Incremental maintenance structure for linked group-by-sum views under
/// crossfilter-style selection (Figure 1).
///
/// Recomputing every chart's `SELECT dim, SUM(measure) ... WHERE filter`
/// from the fact table on every brush change is the baseline the generic
/// ViewMaintainer implements. The crossfilter optimization precomputes the
/// 1-D marginal sum(measure | d_i) of every dimension and, given two or
/// more dimensions, the 2-D marginal sum(measure | d_i, d_j) of every
/// ordered pair, after which a selection updates a chart by summing
/// |selected| cells per group instead of scanning the facts.
/// bench_ablation_ivm measures both paths.
class CrossfilterCube {
 public:
  /// Builds the 1-D marginal of every dimension in `dims` and the 2-D
  /// marginal of every ordered pair of them over `measure`. One dimension
  /// builds the 1-D marginal only.
  static Result<CrossfilterCube> Build(const Table& fact,
                                       const std::vector<std::string>& dims,
                                       const std::string& measure);

  /// Unfiltered totals: one row (value, total) per distinct value of `dim`,
  /// sorted by value.
  Result<Table> GroupTotals(const std::string& dim) const;

  /// Filtered totals of `dim` with the selection `filter_dim IN values`.
  /// Schema (value, total), sorted by value; groups with no contribution
  /// appear with total 0 so bars keep their slots.
  Result<Table> FilteredGroupSums(const std::string& dim,
                                  const std::string& filter_dim,
                                  const ValueSet& values) const;

  /// The rows the executor returns for
  ///
  ///   SELECT dim, SUM(measure) FROM fact [WHERE filter_dim IN values]
  ///   GROUP BY dim
  ///
  /// (`values == nullptr`: no WHERE). One row (value, sum) per group with
  /// at least one fact row passing the filter, sorted by value: the group
  /// value is that of the first such row, and the sum is NULL when none of
  /// them has a non-NULL measure. `filter_dim == dim` reads the 1-D
  /// marginal only: the groups whose value is in `values`.
  Result<Table> ViewSums(const std::string& dim, const std::string& filter_dim,
                         const ValueSet* values) const;

  /// Incremental append: folds new fact rows into every marginal.
  Status Update(const Table& delta);

 private:
  /// The fold of every fact row with one marginal key.
  struct Cell {
    double sum = 0;               // numeric measures
    int64_t rows = 0;             // fact rows
    int64_t non_null = 0;         // of those, rows with a non-NULL measure
    size_t first_row = SIZE_MAX;  // fact index of the first of them
    Value group;                  // its group value

    /// Adds `other`'s rows; the earlier first row keeps its group value.
    void Merge(const Cell& other) {
      if (other.first_row < first_row) {
        first_row = other.first_row;
        group = other.group;
      }
      sum += other.sum;
      rows += other.rows;
      non_null += other.non_null;
    }
  };
  using CellMap = std::unordered_map<Value, Cell, ValueHash, ValueEq>;
  /// group value -> (filter value -> cell)
  using PairMarginal = std::unordered_map<Value, CellMap, ValueHash, ValueEq>;

  Result<size_t> DimIndex(const std::string& dim) const;
  Result<const PairMarginal*> FindMarginal(
      const std::string& dim, const std::string& filter_dim) const;
  Status Fold(const Table& fact);

  std::vector<std::string> dims_;
  std::vector<size_t> dim_cols_;
  size_t measure_col_ = 0;
  // totals_[i]: 1-D marginal of dim i.
  std::vector<CellMap> totals_;
  // pairs_[i * dims + j]: group dim i, filter dim j (i != j).
  std::vector<PairMarginal> pairs_;
  size_t rows_folded_ = 0;
  Schema fact_schema_;
};

}  // namespace dvms

#endif  // DVMS_QUERY_IVM_H_
