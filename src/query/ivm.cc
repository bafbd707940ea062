#include "query/ivm.h"

#include <algorithm>
#include <utility>

#include "common/schema.h"
#include "common/thread_pool.h"
#include "governor/governor.h"
#include "obs/trace.h"

namespace dvms {

Result<CrossfilterCube> CrossfilterCube::Build(
    const Table& fact, const std::vector<std::string>& dims,
    const std::string& measure) {
  if (dims.empty()) {
    return Status::InvalidArgument("crossfilter needs at least one dimension");
  }
  CrossfilterCube cube;
  cube.dims_ = dims;
  cube.fact_schema_ = fact.schema();
  for (const std::string& dim : dims) {
    DVMS_ASSIGN_OR_RETURN(size_t col, fact.schema().IndexOf(dim));
    cube.dim_cols_.push_back(col);
  }
  DVMS_ASSIGN_OR_RETURN(cube.measure_col_, fact.schema().IndexOf(measure));
  cube.totals_.resize(dims.size());
  cube.pairs_.resize(dims.size() * dims.size());
  DVMS_RETURN_IF_ERROR(cube.Fold(fact));
  return cube;
}

namespace {

/// The executor's SUM input: a numeric measure adds its value; any other
/// non-NULL measure only counts.
double MeasureAt(const ColumnVec& col, size_t i) {
  switch (col.enc()) {
    case ColumnVec::Enc::kInt64:
      return static_cast<double>(col.ints()[i]);
    case ColumnVec::Enc::kDouble:
      return col.doubles()[i];
    case ColumnVec::Enc::kBool:
      return col.bools()[i] != 0 ? 1.0 : 0.0;
    default: {
      auto m = col.Get(i).AsDouble();
      return m.ok() ? m.value() : 0.0;
    }
  }
}

}  // namespace

Status CrossfilterCube::Fold(const Table& fact) {
  obs::Span span("ivm.fold");
  obs::Count("ivm.folds");
  obs::Count("ivm.fold_rows", fact.num_rows());
  const size_t d = dims_.size();
  // Morsel-batched delta application: each fixed-size batch of fact rows
  // folds into its own scratch marginal set (in parallel when threads are
  // available), then scratch sets merge into the cube in batch-index
  // order. Per-cell sums therefore depend only on the batch layout, never
  // on thread count, and a cell's first row is the earliest batch's.
  constexpr size_t kBatchRows = 4096;
  const size_t n = fact.num_rows();
  const size_t base = rows_folded_;
  const size_t batches = MorselCount(n, kBatchRows);
  struct Partial {
    std::vector<CellMap> totals;
    std::vector<PairMarginal> pairs;
  };
  std::vector<Partial> partials(batches);
  auto add_row = [](Cell* cell, size_t row, const Value& group, bool counted,
                    double v) {
    if (cell->rows++ == 0) {
      cell->first_row = row;
      cell->group = group;
    }
    if (counted) {
      ++cell->non_null;
      cell->sum += v;
    }
  };
  // Per-batch governor status: a deadline expiring mid-fold aborts within
  // one batch of work, and each batch charges its scratch marginals.
  std::vector<Status> batch_status(batches);
  ThreadPool::Global()->ParallelFor(
      n, kBatchRows, /*max_threads=*/0, [&](const MorselRange& r) {
        Status& st = batch_status[r.index];
        st = governor::CheckPoint();
        if (!st.ok()) return;
        Partial& local = partials[r.index];
        local.totals.resize(d);
        local.pairs.resize(d * d);
        // Columnar fold: the measure reads straight off its typed column
        // and each dimension cell materializes once per row — the fact
        // table's row view is never built.
        const ColumnVec& mcol = fact.col(measure_col_);
        std::vector<Value> dvals(d);
        for (size_t ri = r.begin; ri < r.end; ++ri) {
          const bool counted = !mcol.IsNull(ri);
          const double v = counted ? MeasureAt(mcol, ri) : 0.0;
          const size_t row = base + ri;
          for (size_t i = 0; i < d; ++i) dvals[i] = fact.ValueAt(ri, dim_cols_[i]);
          for (size_t i = 0; i < d; ++i) {
            const Value& gval = dvals[i];
            add_row(&local.totals[i][gval], row, gval, counted, v);
            for (size_t j = 0; j < d; ++j) {
              if (i == j) continue;
              add_row(&local.pairs[i * d + j][gval][dvals[j]], row, gval,
                      counted, v);
            }
          }
        }
        // Upper bound on the cells this batch may have added (~48 bytes
        // per map node: key/value pair + bucket overhead).
        st = governor::ChargeMemory(
            static_cast<int64_t>((r.end - r.begin) * d * d) * 48);
      });
  for (Status& st : batch_status) {
    DVMS_RETURN_IF_ERROR(std::move(st));
  }
  for (const Partial& local : partials) {
    for (size_t i = 0; i < local.totals.size(); ++i) {
      for (const auto& [gval, cell] : local.totals[i]) {
        totals_[i][gval].Merge(cell);
      }
    }
    for (size_t k = 0; k < local.pairs.size(); ++k) {
      for (const auto& [gval, cells] : local.pairs[k]) {
        CellMap& dst = pairs_[k][gval];
        for (const auto& [fval, cell] : cells) dst[fval].Merge(cell);
      }
    }
  }
  rows_folded_ += n;
  return Status::OK();
}

Status CrossfilterCube::Update(const Table& delta) {
  if (!fact_schema_.UnionCompatible(delta.schema())) {
    return Status::TypeError("delta schema does not match fact schema");
  }
  return Fold(delta);
}

Result<size_t> CrossfilterCube::DimIndex(const std::string& dim) const {
  for (size_t i = 0; i < dims_.size(); ++i) {
    if (IdentEquals(dims_[i], dim)) return i;
  }
  return Status::NotFound("'" + dim + "' is not a crossfilter dimension");
}

Result<const CrossfilterCube::PairMarginal*> CrossfilterCube::FindMarginal(
    const std::string& dim, const std::string& filter_dim) const {
  DVMS_ASSIGN_OR_RETURN(size_t gi, DimIndex(dim));
  DVMS_ASSIGN_OR_RETURN(size_t fi, DimIndex(filter_dim));
  if (gi == fi) {
    return Status::InvalidArgument(
        "group and filter dimension must differ (crossfilter never filters "
        "a chart by its own dimension)");
  }
  return &pairs_[gi * dims_.size() + fi];
}

namespace {

Table MakeSumsTable(std::vector<std::pair<Value, Value>> rows) {
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.first.Compare(b.first) < 0;
  });
  Table out(Schema({{"value", ValueType::kNull}, {"total", ValueType::kDouble}}));
  for (auto& [value, total] : rows) {
    out.AppendUnchecked({std::move(value), std::move(total)});
  }
  return out;
}

}  // namespace

Result<Table> CrossfilterCube::GroupTotals(const std::string& dim) const {
  DVMS_ASSIGN_OR_RETURN(size_t gi, DimIndex(dim));
  std::vector<std::pair<Value, Value>> rows;
  rows.reserve(totals_[gi].size());
  for (const auto& [value, cell] : totals_[gi]) {
    rows.emplace_back(value, Value::Double(cell.sum));
  }
  return MakeSumsTable(std::move(rows));
}

Result<Table> CrossfilterCube::FilteredGroupSums(const std::string& dim,
                                                 const std::string& filter_dim,
                                                 const ValueSet& values) const {
  DVMS_ASSIGN_OR_RETURN(const PairMarginal* pair,
                        FindMarginal(dim, filter_dim));
  std::vector<std::pair<Value, Value>> rows;
  rows.reserve(pair->size());
  for (const auto& [gval, cells] : *pair) {
    double sum = 0;
    for (const Value& f : values) {
      auto it = cells.find(f);
      if (it != cells.end()) sum += it->second.sum;
    }
    rows.emplace_back(gval, Value::Double(sum));
  }
  return MakeSumsTable(std::move(rows));
}

Result<Table> CrossfilterCube::ViewSums(const std::string& dim,
                                        const std::string& filter_dim,
                                        const ValueSet* values) const {
  DVMS_ASSIGN_OR_RETURN(size_t gi, DimIndex(dim));
  std::vector<std::pair<Value, Value>> rows;
  auto emit = [&rows](const Cell& cell) {
    rows.emplace_back(cell.group, cell.non_null == 0
                                      ? Value::Null()
                                      : Value::Double(cell.sum));
  };
  if (values == nullptr) {
    for (const auto& [value, cell] : totals_[gi]) emit(cell);
  } else if (IdentEquals(dim, filter_dim)) {
    for (const Value& v : *values) {
      auto it = totals_[gi].find(v);
      if (it != totals_[gi].end()) emit(it->second);
    }
  } else {
    DVMS_ASSIGN_OR_RETURN(const PairMarginal* pair,
                          FindMarginal(dim, filter_dim));
    for (const auto& [gval, cells] : *pair) {
      Cell acc;
      for (const Value& v : *values) {
        auto it = cells.find(v);
        if (it != cells.end()) acc.Merge(it->second);
      }
      if (acc.rows > 0) emit(acc);
    }
  }
  return MakeSumsTable(std::move(rows));
}

}  // namespace dvms
