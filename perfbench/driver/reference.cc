#include "driver/reference.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

using dvms::Row;
using dvms::Table;
using dvms::Value;

double LinearScale(double v, double d0, double d1, double r0, double r1) {
  double domain = d1 - d0;
  if (domain == 0.0) return r0;
  double t = (v - d0) / domain;
  return r0 + t * (r1 - r0);
}

std::vector<int64_t> PointsInRect(const std::vector<ScatterPoint>& points,
                                  double ax, double ay, double bx, double by) {
  double x0 = std::min(ax, bx), x1 = std::max(ax, bx);
  double y0 = std::min(ay, by), y1 = std::max(ay, by);
  std::vector<int64_t> ids;
  for (const ScatterPoint& p : points) {
    if (p.cx >= x0 && p.cx <= x1 && p.cy >= y0 && p.cy <= y1) {
      ids.push_back(p.id);
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::string CompareIdSet(const Table& got, size_t col,
                         const std::vector<int64_t>& want) {
  std::vector<int64_t> ids;
  for (size_t r = 0; r < got.num_rows(); ++r) {
    Value v = got.ValueAt(r, col);
    if (v.type() != dvms::ValueType::kInt64) return "non-integer id";
    ids.push_back(v.int_value());
  }
  std::sort(ids.begin(), ids.end());
  if (ids == want) return "";
  return "id set differs: got " + std::to_string(ids.size()) + " ids, want " +
         std::to_string(want.size());
}

SalesRow SalesRowFrom(const Row& row) {
  SalesRow s;
  s.orderkey = row[0].int_value();
  s.region = row[1].string_value();
  s.year = row[2].int_value();
  s.month = row[3].int_value();
  s.dow = row[4].int_value();
  s.quantity = row[5].double_value();
  s.revenue = row[6].double_value();
  return s;
}

GroupSums SumBy(const std::vector<SalesRow>& rows,
                const std::function<bool(const SalesRow&)>& keep,
                const std::function<Value(const SalesRow&)>& group,
                const std::function<double(const SalesRow&)>& measure) {
  GroupSums sums;
  for (const SalesRow& row : rows) {
    if (keep(row)) sums[group(row)] += measure(row);
  }
  return sums;
}

std::string CompareGroupSums(const Table& got, size_t group_col,
                             size_t sum_col, const GroupSums& want,
                             double rel_tol) {
  if (got.num_rows() != want.size()) {
    return "group count differs: got " + std::to_string(got.num_rows()) +
           ", want " + std::to_string(want.size());
  }
  GroupSums seen;
  for (size_t r = 0; r < got.num_rows(); ++r) {
    Value key = got.ValueAt(r, group_col);
    auto it = want.find(key);
    if (it == want.end()) return "unexpected group " + key.ToString();
    if (!seen.emplace(key, 0).second) {
      return "duplicate group " + key.ToString();
    }
    auto sum = got.ValueAt(r, sum_col).AsDouble();
    if (!sum.ok()) return "non-numeric sum for group " + key.ToString();
    double a = sum.value(), b = it->second;
    if (std::abs(a - b) > rel_tol * std::max(1.0, std::abs(b))) {
      return "sum differs for group " + key.ToString() + ": got " +
             std::to_string(a) + ", want " + std::to_string(b);
    }
  }
  return "";
}

std::vector<int64_t> SelectedYears(const std::vector<YearBand>& bands,
                                   double a, double b) {
  double lo = std::min(a, b), hi = std::max(a, b);
  std::vector<int64_t> years;
  for (const YearBand& band : bands) {
    if (band.x1 >= lo && band.x0 <= hi) years.push_back(band.year);
  }
  std::sort(years.begin(), years.end());
  return years;
}

PerYearSums::PerYearSums(const std::vector<SalesRow>& rows,
                         const std::function<Value(const SalesRow&)>& group) {
  for (const SalesRow& row : rows) {
    by_year_[row.year][group(row)] += row.revenue;
  }
}

GroupSums PerYearSums::Filtered(const std::vector<int64_t>& years) const {
  GroupSums sums;
  for (int64_t year : years) {
    auto it = by_year_.find(year);
    if (it == by_year_.end()) continue;
    for (const auto& [key, sum] : it->second) sums[key] += sum;
  }
  return sums;
}

std::vector<KeyedValue> TopRevenue(
    const std::vector<SalesRow>& rows,
    const std::function<bool(const SalesRow&)>& keep, size_t k) {
  std::vector<KeyedValue> kept;
  for (const SalesRow& row : rows) {
    if (keep(row)) kept.push_back({row.orderkey, row.revenue});
  }
  auto by_value_desc = [](const KeyedValue& a, const KeyedValue& b) {
    return a.value != b.value ? a.value > b.value : a.key < b.key;
  };
  size_t n = std::min(k, kept.size());
  std::partial_sort(kept.begin(), kept.begin() + n, kept.end(), by_value_desc);
  kept.resize(n);
  return kept;
}

std::string CompareTopK(const Table& got, const std::vector<KeyedValue>& want) {
  if (got.num_rows() != want.size()) {
    return "row count differs: got " + std::to_string(got.num_rows()) +
           ", want " + std::to_string(want.size());
  }
  for (size_t r = 0; r < want.size(); ++r) {
    Value key = got.ValueAt(r, 0);
    Value value = got.ValueAt(r, 1);
    if (key.type() != dvms::ValueType::kInt64 ||
        value.type() != dvms::ValueType::kDouble ||
        key.int_value() != want[r].key ||
        value.double_value() != want[r].value) {
      return "row " + std::to_string(r) + " differs";
    }
  }
  return "";
}

std::string CompareTables(const Table& got, const Table& want) {
  if (got.num_rows() != want.num_rows()) {
    return "row count differs: got " + std::to_string(got.num_rows()) +
           ", want " + std::to_string(want.num_rows());
  }
  if (got.schema().num_columns() != want.schema().num_columns()) {
    return "schema differs";
  }
  for (size_t r = 0; r < want.num_rows(); ++r) {
    if (!dvms::RowsEqual(got.row(r), want.row(r))) {
      return "row " + std::to_string(r) + " differs";
    }
  }
  return "";
}

}  // namespace perfbench
