#ifndef PERFBENCH_DRIVER_REFERENCE_H_
#define PERFBENCH_DRIVER_REFERENCE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/value.h"
#include "storage/table.h"

// Benchmark-side reference calculators. Each recomputes a workload output
// from the generated inputs with plain loops, independently of the engine,
// and the comparators report the first difference as text ("" = equal).
namespace perfbench {

// ---- Fig. 2 scatter plot ----

/// linear_scale(v, d0, d1, r0, r1), the same formula the DeVIL builtin uses.
double LinearScale(double v, double d0, double d1, double r0, double r1);

struct ScatterPoint {
  int64_t id = 0;
  double cx = 0;  // canvas position of the point's centre
  double cy = 0;
};

/// Ids (ascending) of the points whose centre lies in the closed rectangle
/// spanned by corners (ax, ay) and (bx, by), given in any order.
std::vector<int64_t> PointsInRect(const std::vector<ScatterPoint>& points,
                                  double ax, double ay, double bx, double by);

/// Compares column `col` of `got` (any row order) with ascending `want`.
std::string CompareIdSet(const dvms::Table& got, size_t col,
                         const std::vector<int64_t>& want);

// ---- TPC-H-shaped Sales rows (Fig. 1 and routed reads) ----

struct SalesRow {
  int64_t orderkey = 0;
  std::string region;
  int64_t year = 0;
  int64_t month = 0;
  int64_t dow = 0;
  double quantity = 0;
  double revenue = 0;
};

/// Decodes rows with the TpchSalesSchema column order.
SalesRow SalesRowFrom(const dvms::Row& row);

/// Group value -> summed measure, ordered by dvms::Value::Compare.
using GroupSums = std::map<dvms::Value, double>;

/// SUM(measure) GROUP BY group over the rows that pass `keep`.
GroupSums SumBy(const std::vector<SalesRow>& rows,
                const std::function<bool(const SalesRow&)>& keep,
                const std::function<dvms::Value(const SalesRow&)>& group,
                const std::function<double(const SalesRow&)>& measure);

/// Compares a (group, sum) result (any row order; group in `group_col`, sum
/// in `sum_col`) with `want`: same groups, sums within a relative
/// tolerance (the engine may add in another order).
std::string CompareGroupSums(const dvms::Table& got, size_t group_col,
                             size_t sum_col, const GroupSums& want,
                             double rel_tol = 1e-9);

/// Fig. 1 year brush: the years whose band [x0, x1] overlaps the range
/// between the two brush ends (given in any order), ascending.
struct YearBand {
  int64_t year = 0;
  double x0 = 0;
  double x1 = 0;
};
std::vector<int64_t> SelectedYears(const std::vector<YearBand>& bands,
                                   double a, double b);

/// Per-year partial revenue sums of one dimension, so the crossfiltered
/// sums for any year selection cost O(groups x years), not a rescan.
class PerYearSums {
 public:
  PerYearSums(const std::vector<SalesRow>& rows,
              const std::function<dvms::Value(const SalesRow&)>& group);

  /// SUM(revenue) GROUP BY group over rows whose year is in `years`.
  GroupSums Filtered(const std::vector<int64_t>& years) const;

 private:
  std::map<int64_t, GroupSums> by_year_;
};

/// One row of an `ORDER BY value DESC LIMIT k` answer.
struct KeyedValue {
  int64_t key = 0;
  double value = 0;
};

/// Top `k` rows passing `keep` by revenue, descending (ties by orderkey).
std::vector<KeyedValue> TopRevenue(
    const std::vector<SalesRow>& rows,
    const std::function<bool(const SalesRow&)>& keep, size_t k);

/// Compares an ordered (key, value) result with `want`, exactly.
std::string CompareTopK(const dvms::Table& got,
                        const std::vector<KeyedValue>& want);

/// Compares two relations row by row, exactly (recovery and replay checks).
std::string CompareTables(const dvms::Table& got, const dvms::Table& want);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_REFERENCE_H_
