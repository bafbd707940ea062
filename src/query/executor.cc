#include "query/executor.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>

#include "governor/governor.h"
#include "obs/trace.h"
#include "storage/dict.h"

namespace dvms {

namespace exec {

namespace {
std::atomic<int> g_vectorize{-1};
}  // namespace

bool VectorizeDefault() {
  int v = g_vectorize.load(std::memory_order_relaxed);
  if (v < 0) {
    const char* env = std::getenv("DVMS_VECTORIZE");
    v = (env != nullptr && env[0] == '0' && env[1] == '\0') ? 0 : 1;
    g_vectorize.store(v, std::memory_order_relaxed);
  }
  return v != 0;
}

void SetVectorizeDefault(bool on) {
  g_vectorize.store(on ? 1 : 0, std::memory_order_relaxed);
}

}  // namespace exec

namespace {

/// Rough transient-memory footprint of `rows` materialized rows of
/// `cols` values each, charged against the request's governor budget.
/// Deliberately cheap (no per-value walk): the budget bounds blow-ups by
/// orders of magnitude, not bytes.
int64_t ApproxRowsBytes(size_t rows, size_t cols) {
  return static_cast<int64_t>(rows) *
         static_cast<int64_t>(sizeof(Row) + cols * 48);
}

/// Inner-loop work between cooperative governor checks in the serial
/// (non-morselized) operator loops: join emits, dedup probes, merge steps.
constexpr size_t kSerialCheckRows = 1024;

/// Group-by / dedup key: a row of values with value-equality semantics.
using KeyMap = std::unordered_map<Row, size_t, RowHash, RowEq>;

struct AggState {
  double sum = 0.0;
  int64_t count = 0;      // non-null inputs (or all rows for COUNT(*))
  Value min_value;        // NULL until first non-null input
  Value max_value;
};

void UpdateAgg(AggState* state, const AggSpec& spec, const Value& v) {
  if (spec.count_star) {
    ++state->count;
    return;
  }
  if (v.is_null()) return;
  ++state->count;
  auto as_double = v.AsDouble();
  if (as_double.ok()) state->sum += as_double.value();
  if (state->min_value.is_null() || v.Compare(state->min_value) < 0) {
    state->min_value = v;
  }
  if (state->max_value.is_null() || v.Compare(state->max_value) > 0) {
    state->max_value = v;
  }
}

/// Folds a partial aggregation state into `into`. Addition order is
/// morsel-index order, so the merged sum is a pure function of the morsel
/// layout (fixed by ExecOptions::morsel_rows), not of thread scheduling.
void MergeAgg(AggState* into, const AggState& from) {
  into->sum += from.sum;
  into->count += from.count;
  if (!from.min_value.is_null() &&
      (into->min_value.is_null() ||
       from.min_value.Compare(into->min_value) < 0)) {
    into->min_value = from.min_value;
  }
  if (!from.max_value.is_null() &&
      (into->max_value.is_null() ||
       from.max_value.Compare(into->max_value) > 0)) {
    into->max_value = from.max_value;
  }
}

Value FinalizeAgg(const AggState& state, const AggSpec& spec) {
  switch (spec.func) {
    case AggFunc::kCount:
      return Value::Int(state.count);
    case AggFunc::kSum:
      return state.count == 0 ? Value::Null() : Value::Double(state.sum);
    case AggFunc::kAvg:
      return state.count == 0
                 ? Value::Null()
                 : Value::Double(state.sum / static_cast<double>(state.count));
    case AggFunc::kMin:
      return state.min_value;
    case AggFunc::kMax:
      return state.max_value;
  }
  return Value::Null();
}

/// Resolved parallel-execution knobs for one operator.
struct ParallelCfg {
  ThreadPool* pool;
  size_t threads;
  size_t grain;
};

ParallelCfg ResolveParallel(const ExecOptions& opts) {
  ThreadPool* pool = opts.pool != nullptr ? opts.pool : ThreadPool::Global();
  size_t threads =
      opts.num_threads != 0 ? opts.num_threads : pool->num_threads();
  size_t grain = opts.morsel_rows == 0 ? 2048 : opts.morsel_rows;
  return {pool, threads, grain};
}

/// Runs `fn(morsel) -> Status` over every morsel of [0, total). Returns the
/// error of the lowest-indexed failing morsel — which, since each morsel
/// stops at its first failing row, is the error serial row-order execution
/// would have hit first.
template <typename Fn>
Status ForEachMorsel(const ParallelCfg& cfg, size_t total, Fn&& fn) {
  size_t morsels = MorselCount(total, cfg.grain);
  if (morsels == 0) return Status::OK();
  std::vector<Status> status(morsels);
  cfg.pool->ParallelFor(total, cfg.grain, cfg.threads,
                        [&](const MorselRange& r) {
                          // One governor check per morsel bounds how far a
                          // request can overrun its deadline: at most one
                          // morsel of work per worker.
                          Status st = governor::CheckPoint();
                          status[r.index] = st.ok() ? fn(r) : std::move(st);
                        });
  for (Status& s : status) {
    if (!s.ok()) return std::move(s);
  }
  return Status::OK();
}

// ---- Vectorized kernels -------------------------------------------------
//
// The columnar fast paths below reproduce the row-at-a-time semantics
// exactly: comparison verdicts come from the same total order as
// Value::Compare/Equals, floating-point sums add in the same (morsel-major,
// row-minor) order, group discovery order equals serial row order, and
// min/max keep the first occurrence. Anything the recognizers can't prove
// vectorizable falls back to the row view per operator.

/// True iff `e` is a bound column reference into a row of `num_cols` cells.
bool IsSimpleColumn(const Expr& e, size_t num_cols) {
  return e.kind == ExprKind::kColumnRef && e.resolved_index >= 0 &&
         static_cast<size_t>(e.resolved_index) < num_cols;
}

/// One conjunct of a vectorizable predicate, prepared for column runs.
struct FilterTerm {
  enum class Kind {
    kConstFalse,  // literal-vs-literal false, or a NULL literal operand
    kConstTrue,   // literal-vs-literal true
    kColLit,      // <column> op <literal> (or mirrored)
    kColCol,      // <column> op <column>
  };
  Kind kind = Kind::kConstFalse;
  BinaryOp op = BinaryOp::kEq;
  size_t lhs_col = 0, rhs_col = 0;  // kColCol
  size_t col = 0;                   // kColLit: the column side
  bool col_is_lhs = true;           // kColLit: which side the column is on
  Value lit;                        // kColLit: the (non-NULL) literal
  uint32_t lit_dict_id = strdict::kInvalidId;  // kColLit, string literal
};

bool IsComparisonOp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

/// Comparison verdict from a three-way compare, mirroring ApplyBinary
/// (Equals coincides with Compare()==0 for non-NULL values).
inline uint8_t CmpVerdict(BinaryOp op, int cmp) {
  switch (op) {
    case BinaryOp::kEq:
      return cmp == 0;
    case BinaryOp::kNe:
      return cmp != 0;
    case BinaryOp::kLt:
      return cmp < 0;
    case BinaryOp::kLe:
      return cmp <= 0;
    case BinaryOp::kGt:
      return cmp > 0;
    default:
      return cmp >= 0;
  }
}

/// Flattens `e` into AND-ed comparison terms over columns and literals.
/// Returns false if any conjunct is not of that shape (UDFs, IN, OR,
/// arithmetic, ...) — the caller then keeps the row-at-a-time path. Safe
/// w.r.t. short-circuiting because comparison conjuncts cannot error and
/// always produce non-NULL booleans.
bool CollectFilterTerms(const Expr& e, size_t num_cols,
                        std::vector<FilterTerm>* out) {
  if (e.kind != ExprKind::kBinary) return false;
  if (e.binary_op == BinaryOp::kAnd) {
    return CollectFilterTerms(*e.children[0], num_cols, out) &&
           CollectFilterTerms(*e.children[1], num_cols, out);
  }
  if (!IsComparisonOp(e.binary_op)) return false;
  const Expr& l = *e.children[0];
  const Expr& r = *e.children[1];
  FilterTerm t;
  t.op = e.binary_op;
  bool l_col = IsSimpleColumn(l, num_cols), l_lit = l.kind == ExprKind::kLiteral;
  bool r_col = IsSimpleColumn(r, num_cols), r_lit = r.kind == ExprKind::kLiteral;
  if (l_col && r_col) {
    t.kind = FilterTerm::Kind::kColCol;
    t.lhs_col = static_cast<size_t>(l.resolved_index);
    t.rhs_col = static_cast<size_t>(r.resolved_index);
  } else if ((l_col && r_lit) || (l_lit && r_col)) {
    const Expr& lit = l_lit ? l : r;
    if (lit.literal.is_null()) {
      // Comparisons with NULL are false for every row.
      t.kind = FilterTerm::Kind::kConstFalse;
    } else {
      t.kind = FilterTerm::Kind::kColLit;
      t.col = static_cast<size_t>((l_col ? l : r).resolved_index);
      t.col_is_lhs = l_col;
      t.lit = lit.literal;
      if (t.lit.type() == ValueType::kString) {
        t.lit_dict_id = strdict::Intern(t.lit.string_value());
      }
    }
  } else if (l_lit && r_lit) {
    if (l.literal.is_null() || r.literal.is_null()) {
      t.kind = FilterTerm::Kind::kConstFalse;
    } else {
      Result<Value> v = ApplyBinary(e.binary_op, l.literal, r.literal);
      if (!v.ok()) return false;
      t.kind = v.value().IsTruthy() ? FilterTerm::Kind::kConstTrue
                                    : FilterTerm::Kind::kConstFalse;
    }
  } else {
    return false;
  }
  out->push_back(std::move(t));
  return true;
}

/// ANDs one term's verdicts over rows [begin, end) into pass[] (1 = still
/// passing). Typed inner loops per encoding; NULL cells fail comparisons.
void EvalFilterTermRange(const Table& in, const FilterTerm& t, size_t begin,
                         size_t end, std::vector<uint8_t>* pass_out) {
  std::vector<uint8_t>& pass = *pass_out;
  if (t.kind == FilterTerm::Kind::kConstTrue) return;
  if (t.kind == FilterTerm::Kind::kConstFalse) {
    std::fill(pass.begin(), pass.end(), 0);
    return;
  }
  if (t.kind == FilterTerm::Kind::kColCol) {
    const ColumnVec& a = in.col(t.lhs_col);
    const ColumnVec& b = in.col(t.rhs_col);
    for (size_t i = begin; i < end; ++i) {
      uint8_t& p = pass[i - begin];
      if (!p) continue;
      p = (a.IsNull(i) || b.IsNull(i))
              ? 0
              : CmpVerdict(t.op, a.CompareCells(i, b, i));
    }
    return;
  }
  const ColumnVec& c = in.col(t.col);
  const int sign = t.col_is_lhs ? 1 : -1;
  switch (c.enc()) {
    case ColumnVec::Enc::kInt64: {
      const std::vector<int64_t>& v = c.ints();
      if (t.lit.type() == ValueType::kInt64) {
        const int64_t lit = t.lit.int_value();
        for (size_t i = begin; i < end; ++i) {
          uint8_t& p = pass[i - begin];
          if (!p) continue;
          if (c.IsNull(i)) {
            p = 0;
            continue;
          }
          int cmp = v[i] < lit ? -1 : (v[i] > lit ? 1 : 0);
          p = CmpVerdict(t.op, sign * cmp);
        }
        return;
      }
      if (t.lit.type() == ValueType::kDouble) {
        const double lit = t.lit.double_value();
        for (size_t i = begin; i < end; ++i) {
          uint8_t& p = pass[i - begin];
          if (!p) continue;
          p = c.IsNull(i)
                  ? 0
                  : CmpVerdict(t.op, sign * CompareInt64Double(v[i], lit));
        }
        return;
      }
      break;
    }
    case ColumnVec::Enc::kDouble: {
      const std::vector<double>& v = c.doubles();
      if (t.lit.type() == ValueType::kDouble) {
        const double lit = t.lit.double_value();
        for (size_t i = begin; i < end; ++i) {
          uint8_t& p = pass[i - begin];
          if (!p) continue;
          p = c.IsNull(i)
                  ? 0
                  : CmpVerdict(t.op, sign * CompareDoublesTotal(v[i], lit));
        }
        return;
      }
      if (t.lit.type() == ValueType::kInt64) {
        const int64_t lit = t.lit.int_value();
        for (size_t i = begin; i < end; ++i) {
          uint8_t& p = pass[i - begin];
          if (!p) continue;
          p = c.IsNull(i)
                  ? 0
                  : CmpVerdict(t.op, sign * -CompareInt64Double(lit, v[i]));
        }
        return;
      }
      break;
    }
    case ColumnVec::Enc::kDict: {
      if (t.lit.type() != ValueType::kString) break;
      const std::vector<uint32_t>& ids = c.dict_ids();
      if (t.op == BinaryOp::kEq || t.op == BinaryOp::kNe) {
        // Interned: byte equality is id equality — no string compares.
        const uint32_t want = t.lit_dict_id;
        const uint8_t on_eq = t.op == BinaryOp::kEq ? 1 : 0;
        for (size_t i = begin; i < end; ++i) {
          uint8_t& p = pass[i - begin];
          if (!p) continue;
          p = c.IsNull(i) ? 0 : ((ids[i] == want) == on_eq);
        }
        return;
      }
      // Ordering against a string literal: the verdict is a function of the
      // id alone, so memoize per distinct id within this morsel.
      std::unordered_map<uint32_t, uint8_t> verdicts;
      const std::string& lit = t.lit.string_value();
      for (size_t i = begin; i < end; ++i) {
        uint8_t& p = pass[i - begin];
        if (!p) continue;
        if (c.IsNull(i)) {
          p = 0;
          continue;
        }
        auto it = verdicts.find(ids[i]);
        if (it == verdicts.end()) {
          const std::string& s = strdict::Lookup(ids[i]);
          int cmp = s < lit ? -1 : (s > lit ? 1 : 0);
          it = verdicts.emplace(ids[i], CmpVerdict(t.op, sign * cmp)).first;
        }
        p = it->second;
      }
      return;
    }
    case ColumnVec::Enc::kBool: {
      if (t.lit.type() != ValueType::kBool) break;
      const std::vector<uint8_t>& v = c.bools();
      const int lit = t.lit.bool_value() ? 1 : 0;
      for (size_t i = begin; i < end; ++i) {
        uint8_t& p = pass[i - begin];
        if (!p) continue;
        if (c.IsNull(i)) {
          p = 0;
          continue;
        }
        int b = v[i] != 0 ? 1 : 0;
        p = CmpVerdict(t.op, sign * (b - lit));
      }
      return;
    }
    default:
      break;
  }
  // Mixed-type / variant cells: per-cell Values, still no row view.
  for (size_t i = begin; i < end; ++i) {
    uint8_t& p = pass[i - begin];
    if (!p) continue;
    if (c.IsNull(i)) {
      p = 0;
      continue;
    }
    Value cell = c.Get(i);
    int cmp = t.col_is_lhs ? cell.Compare(t.lit) : t.lit.Compare(cell);
    p = CmpVerdict(t.op, cmp);
  }
}

/// Aggregate partial state over one column within one morsel: sum/count
/// accumulate directly; min/max track the winning row index so the Value
/// materializes once per morsel instead of once per row.
struct VecAggState {
  double sum = 0.0;
  int64_t count = 0;
  size_t min_idx = SIZE_MAX;
  size_t max_idx = SIZE_MAX;
};

void UpdateVecAgg(VecAggState* s, const ColumnVec& col, size_t i) {
  if (col.IsNull(i)) return;
  ++s->count;
  switch (col.enc()) {
    case ColumnVec::Enc::kInt64:
      s->sum += static_cast<double>(col.ints()[i]);
      break;
    case ColumnVec::Enc::kDouble:
      s->sum += col.doubles()[i];
      break;
    case ColumnVec::Enc::kBool:
      s->sum += col.bools()[i] != 0 ? 1.0 : 0.0;
      break;
    case ColumnVec::Enc::kVariant: {
      auto d = col.variants()[i].AsDouble();
      if (d.ok()) s->sum += d.value();
      break;
    }
    default:  // strings: AsDouble fails, only count/min/max apply
      break;
  }
  if (s->min_idx == SIZE_MAX || col.CompareCells(i, col, s->min_idx) < 0) {
    s->min_idx = i;
  }
  if (s->max_idx == SIZE_MAX || col.CompareCells(i, col, s->max_idx) > 0) {
    s->max_idx = i;
  }
}

/// Folds a morsel-local vectorized state into the row-compatible AggState
/// (min/max materialize via ColumnVec::Get, preserving exact cell types).
void SealVecAgg(const VecAggState& vs, const ColumnVec& col, AggState* out) {
  out->sum = vs.sum;
  out->count = vs.count;
  if (vs.min_idx != SIZE_MAX) out->min_value = col.Get(vs.min_idx);
  if (vs.max_idx != SIZE_MAX) out->max_value = col.Get(vs.max_idx);
}

/// Sorts the identity permutation of [0, n) by `less` using the shared
/// chunked-parallel-sort + k-way-merge structure. `less` must be a total
/// order (callers tiebreak on the index), so the result is the unique
/// sorted permutation at every thread count.
template <typename Less>
Status SortPermutation(const ParallelCfg& cfg, size_t n, const Less& less,
                       std::vector<size_t>* out) {
  std::vector<size_t> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = i;
  size_t chunks = std::min(cfg.threads, MorselCount(n, cfg.grain));
  if (chunks <= 1) {
    std::sort(perm.begin(), perm.end(), less);
  } else {
    std::vector<size_t> bounds(chunks + 1);
    for (size_t c = 0; c <= chunks; ++c) bounds[c] = n * c / chunks;
    cfg.pool->ParallelFor(chunks, 1, cfg.threads, [&](const MorselRange& r) {
      std::sort(perm.begin() + bounds[r.index],
                perm.begin() + bounds[r.index + 1], less);
    });
    std::vector<size_t> head(bounds.begin(), bounds.end() - 1);
    std::vector<size_t> merged;
    merged.reserve(n);
    while (merged.size() < n) {
      if (merged.size() % kSerialCheckRows == 0) {
        DVMS_RETURN_IF_ERROR(governor::CheckPoint());
      }
      size_t best = chunks;
      for (size_t c = 0; c < chunks; ++c) {
        if (head[c] == bounds[c + 1]) continue;
        if (best == chunks || less(perm[head[c]], perm[head[best]])) {
          best = c;
        }
      }
      merged.push_back(perm[head[best]++]);
    }
    perm = std::move(merged);
  }
  *out = std::move(perm);
  return Status::OK();
}

}  // namespace

Result<TablePtr> CatalogRelationSource::Read(const std::string& relation,
                                             const VersionRef& version) const {
  DVMS_ASSIGN_OR_RETURN(VersionedTable * table, catalog_->Get(relation));
  switch (version.kind) {
    case VersionRef::Kind::kCurrent:
      return table->CurrentImage();
    case VersionRef::Kind::kVnow:
      return table->Version(version.offset);
    case VersionRef::Kind::kTnow:
      return table->StepVersion(version.offset);
  }
  return Status::Internal("bad version ref");
}

Result<Executor::InSets> Executor::BuildInSets(const PlanNode& plan) const {
  InSets sets;
  std::vector<std::string> names;
  plan.CollectInRelations(&names);
  for (const std::string& name : names) {
    std::string key = IdentKey(name);
    if (sets.count(key) > 0) continue;
    DVMS_ASSIGN_OR_RETURN(TablePtr table, source_->Read(name, VersionRef{}));
    auto set = std::make_shared<ValueSet>();
    const Table& t = *table;
    if (t.schema().num_columns() == 0) {
      return Status::ExecutionError("IN-relation '" + name + "' has no columns");
    }
    const ColumnVec& first = t.col(0);
    for (size_t i = 0; i < t.num_rows(); ++i) {
      if (!first.IsNull(i)) set->insert(first.Get(i));
    }
    sets.emplace(std::move(key), std::move(set));
  }
  return sets;
}

Result<std::unique_ptr<NodeResult>> Executor::Execute(
    const PlanNode& plan, const ExecOptions& opts) const {
  if (!plan.bound) {
    return Status::BindError("plan must be bound before execution");
  }
  DVMS_ASSIGN_OR_RETURN(InSets in_sets, BuildInSets(plan));
  EvalContext ctx;
  ctx.udfs = udfs_;
  ctx.in_sets = &in_sets;
  return Exec(plan, opts, ctx);
}

Result<Table> Executor::ExecuteToTable(const PlanNode& plan) const {
  DVMS_ASSIGN_OR_RETURN(std::unique_ptr<NodeResult> result, Execute(plan));
  return std::move(result->table);
}

Result<std::unique_ptr<NodeResult>> Executor::ExecScan(
    const PlanNode& node, const ExecOptions& opts) const {
  auto out = std::make_unique<NodeResult>();
  out->node = &node;
  DVMS_ASSIGN_OR_RETURN(TablePtr src,
                        source_->Read(node.relation, node.version));
  ParallelCfg cfg = ResolveParallel(opts);
  out->morsels_used =
      std::max<size_t>(1, MorselCount(src->num_rows(), cfg.grain));
  if (opts.vectorize) {
    // Columnar copy: bulk-append the source's column vectors (dictionary
    // ids stay ids); the shared source's row view is never materialized.
    DVMS_RETURN_IF_ERROR(governor::CheckPoint());
    DVMS_RETURN_IF_ERROR(governor::ChargeMemory(
        ApproxRowsBytes(src->num_rows(), src->schema().num_columns())));
    out->table = Table(node.OutputSchema());
    out->table.Reserve(src->num_rows());
    out->table.AppendRange(*src, 0, src->num_rows());
  } else {
    // Morsel-parallel row copy; each morsel writes a disjoint slice.
    const std::vector<Row>& src_rows = src->rows();
    DVMS_RETURN_IF_ERROR(governor::CheckPoint());
    DVMS_RETURN_IF_ERROR(governor::ChargeMemory(
        ApproxRowsBytes(src_rows.size(), src->schema().num_columns())));
    std::vector<Row> rows(src_rows.size());
    cfg.pool->ParallelFor(src_rows.size(), cfg.grain, cfg.threads,
                          [&](const MorselRange& r) {
                            for (size_t i = r.begin; i < r.end; ++i) {
                              rows[i] = src_rows[i];
                            }
                          });
    out->table = Table(node.OutputSchema(), std::move(rows));
  }
  if (opts.capture_lineage) {
    out->has_lineage = true;
    out->lineage.resize(out->table.num_rows());
    // A scan is a leaf: lineage maps output row i to "source row i", encoded
    // as child 0 / row i so provenance can read base-row ids directly.
    for (size_t i = 0; i < out->table.num_rows(); ++i) {
      out->lineage[i] = {{0, i}};
    }
  }
  return out;
}

Result<std::unique_ptr<NodeResult>> Executor::Exec(
    const PlanNode& node, const ExecOptions& opts,
    const EvalContext& ctx) const {
  const int64_t start_us = opts.analyze ? obs::NowMicros() : 0;
  Result<std::unique_ptr<NodeResult>> result =
      node.kind == PlanKind::kScan ? ExecScan(node, opts)
                                   : ExecImpl(node, opts, ctx);
  if (result.ok()) {
    NodeResult& r = *result.value();
    // Inclusive subtree time; the EXPLAIN ANALYZE report subtracts the
    // children to get self time.
    if (opts.analyze) r.exec_us = obs::NowMicros() - start_us;
    if (obs::Enabled()) {
      std::string key = std::string("exec.rows.") + PlanKindToString(node.kind);
      obs::Count(key.c_str(), r.table.num_rows());
    }
  }
  return result;
}

Result<std::unique_ptr<NodeResult>> Executor::ExecImpl(
    const PlanNode& node, const ExecOptions& opts,
    const EvalContext& ctx) const {
  auto out = std::make_unique<NodeResult>();
  out->node = &node;
  out->has_lineage = opts.capture_lineage;
  for (const auto& child : node.children) {
    DVMS_ASSIGN_OR_RETURN(std::unique_ptr<NodeResult> r,
                          Exec(*child, opts, ctx));
    out->children.push_back(std::move(r));
  }
  out->table = Table(node.OutputSchema());

  auto add_row = [&out, &opts](Row row, std::vector<LineageEntry> lin) {
    out->table.AppendUnchecked(std::move(row));
    if (opts.capture_lineage) out->lineage.push_back(std::move(lin));
  };

  // Morsel-driven parallelism where the plan hook allows it; partial
  // results always merge in morsel-index order so the output is identical
  // at every thread count.
  ParallelCfg cfg = ResolveParallel(opts);
  if (!node.Parallelizable()) cfg.threads = 1;

  switch (node.kind) {
    case PlanKind::kScan:
      return Status::Internal("unreachable");

    case PlanKind::kFilter: {
      const Table& in = out->children[0]->table;
      size_t morsels = MorselCount(in.num_rows(), cfg.grain);
      out->morsels_used = std::max<size_t>(1, morsels);
      std::vector<FilterTerm> terms;
      const bool vec =
          opts.vectorize && !in.IsRagged() &&
          CollectFilterTerms(*node.predicate, in.num_columns(), &terms);
      std::vector<std::vector<size_t>> kept(morsels);
      DVMS_RETURN_IF_ERROR(ForEachMorsel(
          cfg, in.num_rows(), [&](const MorselRange& r) -> Status {
            std::vector<size_t>& k = kept[r.index];
            if (vec) {
              // Term-major evaluation over the morsel's column runs.
              std::vector<uint8_t> pass(r.end - r.begin, 1);
              for (const FilterTerm& t : terms) {
                EvalFilterTermRange(in, t, r.begin, r.end, &pass);
              }
              for (size_t i = r.begin; i < r.end; ++i) {
                if (pass[i - r.begin]) k.push_back(i);
              }
              return Status::OK();
            }
            for (size_t i = r.begin; i < r.end; ++i) {
              DVMS_ASSIGN_OR_RETURN(
                  bool keep, EvalPredicate(*node.predicate, in.row(i), ctx));
              if (keep) k.push_back(i);
            }
            return Status::OK();
          }));
      size_t total_kept = 0;
      for (const std::vector<size_t>& k : kept) total_kept += k.size();
      DVMS_RETURN_IF_ERROR(governor::ChargeMemory(
          ApproxRowsBytes(total_kept, in.schema().num_columns())));
      out->table.Reserve(total_kept);
      for (const std::vector<size_t>& k : kept) {
        out->table.AppendGather(in, k);
        if (opts.capture_lineage) {
          for (size_t i : k) out->lineage.push_back({{0, i}});
        }
      }
      break;
    }

    case PlanKind::kProject: {
      const Table& in = out->children[0]->table;
      size_t morsels = MorselCount(in.num_rows(), cfg.grain);
      out->morsels_used = std::max<size_t>(1, morsels);
      std::vector<size_t> proj_cols;
      bool vec = opts.vectorize && !in.IsRagged();
      for (const auto& e : node.projections) {
        if (!vec) break;
        if (IsSimpleColumn(*e, in.num_columns())) {
          proj_cols.push_back(static_cast<size_t>(e->resolved_index));
        } else {
          vec = false;
        }
      }
      if (vec) {
        // Pure column selection: copy the referenced column vectors whole.
        DVMS_RETURN_IF_ERROR(governor::CheckPoint());
        DVMS_RETURN_IF_ERROR(governor::ChargeMemory(
            ApproxRowsBytes(in.num_rows(), node.projections.size())));
        out->table.Reserve(in.num_rows());
        out->table.AppendProjected(in, proj_cols);
        if (opts.capture_lineage) {
          for (size_t i = 0; i < in.num_rows(); ++i) {
            out->lineage.push_back({{0, i}});
          }
        }
        break;
      }
      std::vector<std::vector<Row>> built(morsels);
      DVMS_RETURN_IF_ERROR(ForEachMorsel(
          cfg, in.num_rows(), [&](const MorselRange& r) -> Status {
            std::vector<Row>& rows = built[r.index];
            rows.reserve(r.end - r.begin);
            for (size_t i = r.begin; i < r.end; ++i) {
              Row row;
              row.reserve(node.projections.size());
              for (const auto& e : node.projections) {
                DVMS_ASSIGN_OR_RETURN(Value v, EvalExpr(*e, in.row(i), ctx));
                row.push_back(std::move(v));
              }
              rows.push_back(std::move(row));
            }
            return governor::ChargeMemory(
                ApproxRowsBytes(rows.size(), node.projections.size()));
          }));
      for (size_t mi = 0; mi < morsels; ++mi) {
        size_t base = MorselAt(in.num_rows(), cfg.grain, mi).begin;
        for (size_t off = 0; off < built[mi].size(); ++off) {
          add_row(std::move(built[mi][off]), {{0, base + off}});
        }
      }
      break;
    }

    case PlanKind::kJoin: {
      const Table& left = out->children[0]->table;
      const Table& right = out->children[1]->table;
      // The emit path is where a cross join blows up, so both governor
      // limits ride on it: a cooperative check every kSerialCheckRows
      // pairs examined, and a memory charge per batch of produced rows —
      // an over-budget join aborts within one batch of slack instead of
      // growing toward an OOM kill.
      const size_t out_width =
          left.schema().num_columns() + right.schema().num_columns();
      size_t pairs_seen = 0;
      size_t rows_uncharged = 0;
      auto emit = [&](size_t li, size_t ri) -> Status {
        if (++pairs_seen % kSerialCheckRows == 0) {
          DVMS_RETURN_IF_ERROR(governor::CheckPoint());
        }
        Row combined = left.row(li);
        const Row& r = right.row(ri);
        combined.insert(combined.end(), r.begin(), r.end());
        if (node.predicate != nullptr) {
          DVMS_ASSIGN_OR_RETURN(bool keep,
                                EvalPredicate(*node.predicate, combined, ctx));
          if (!keep) return Status::OK();
        }
        if (++rows_uncharged == kSerialCheckRows) {
          DVMS_RETURN_IF_ERROR(governor::ChargeMemory(
              ApproxRowsBytes(rows_uncharged, out_width)));
          rows_uncharged = 0;
        }
        add_row(std::move(combined), {{0, li}, {1, ri}});
        return Status::OK();
      };
      if (!node.equi_keys.empty()) {
        // Hash join: build on the right side.
        std::unordered_map<Row, std::vector<size_t>, RowHash, RowEq> build;
        DVMS_RETURN_IF_ERROR(governor::ChargeMemory(ApproxRowsBytes(
            right.num_rows(), node.equi_keys.size() + 1)));
        for (size_t ri = 0; ri < right.num_rows(); ++ri) {
          if (ri % (4 * kSerialCheckRows) == 0) {
            DVMS_RETURN_IF_ERROR(governor::CheckPoint());
          }
          Row key;
          key.reserve(node.equi_keys.size());
          bool has_null = false;
          for (const auto& kv : node.equi_keys) {
            DVMS_ASSIGN_OR_RETURN(Value v,
                                  EvalExpr(*kv.second, right.row(ri), ctx));
            if (v.is_null()) has_null = true;
            key.push_back(std::move(v));
          }
          if (!has_null) build[std::move(key)].push_back(ri);
        }
        for (size_t li = 0; li < left.num_rows(); ++li) {
          if (li % (4 * kSerialCheckRows) == 0) {
            DVMS_RETURN_IF_ERROR(governor::CheckPoint());
          }
          Row key;
          key.reserve(node.equi_keys.size());
          bool has_null = false;
          for (const auto& kv : node.equi_keys) {
            DVMS_ASSIGN_OR_RETURN(Value v,
                                  EvalExpr(*kv.first, left.row(li), ctx));
            if (v.is_null()) has_null = true;
            key.push_back(std::move(v));
          }
          if (has_null) continue;
          auto it = build.find(key);
          if (it == build.end()) continue;
          for (size_t ri : it->second) {
            DVMS_RETURN_IF_ERROR(emit(li, ri));
          }
        }
      } else {
        for (size_t li = 0; li < left.num_rows(); ++li) {
          for (size_t ri = 0; ri < right.num_rows(); ++ri) {
            DVMS_RETURN_IF_ERROR(emit(li, ri));
          }
        }
      }
      break;
    }

    case PlanKind::kAggregate: {
      const Table& in = out->children[0]->table;
      struct Group {
        Row key;
        std::vector<AggState> states;
        std::vector<LineageEntry> contributors;
      };
      struct MorselGroups {
        KeyMap index;
        std::vector<Group> groups;
      };
      const bool global = node.group_by.empty();
      const size_t num_aggs = node.aggregates.size();
      // Vectorizable when every group key and aggregate input is a plain
      // column: keys probe on cells (dictionary ids for a single string
      // key), updates run typed per-column loops, and min/max materialize
      // one Value per morsel-group instead of one per row. Sum order and
      // group discovery order match the row path exactly.
      std::vector<size_t> group_cols;
      std::vector<int> agg_cols;  // -1 = COUNT(*)
      bool vec = opts.vectorize && !in.IsRagged();
      for (const auto& e : node.group_by) {
        if (!vec) break;
        if (IsSimpleColumn(*e, in.num_columns())) {
          group_cols.push_back(static_cast<size_t>(e->resolved_index));
        } else {
          vec = false;
        }
      }
      for (const AggSpec& spec : node.aggregates) {
        if (!vec) break;
        if (spec.count_star) {
          agg_cols.push_back(-1);
        } else if (IsSimpleColumn(*spec.arg, in.num_columns())) {
          agg_cols.push_back(spec.arg->resolved_index);
        } else {
          vec = false;
        }
      }
      // Phase 1: per-morsel partial aggregation into thread-local hash
      // tables (no shared state).
      size_t morsels = MorselCount(in.num_rows(), cfg.grain);
      out->morsels_used = std::max<size_t>(1, morsels);
      std::vector<MorselGroups> partials(morsels);
      if (vec) {
        const bool dict_key =
            !global && group_cols.size() == 1 &&
            in.col(group_cols[0]).enc() == ColumnVec::Enc::kDict;
        DVMS_RETURN_IF_ERROR(ForEachMorsel(
            cfg, in.num_rows(), [&](const MorselRange& r) -> Status {
              MorselGroups& local = partials[r.index];
              std::vector<std::vector<VecAggState>> vstates;
              std::unordered_map<uint32_t, size_t> id_index;
              if (global) {
                local.groups.push_back(
                    {{}, std::vector<AggState>(num_aggs), {}});
                vstates.emplace_back(num_aggs);
              }
              for (size_t i = r.begin; i < r.end; ++i) {
                size_t gi;
                if (global) {
                  gi = 0;
                } else if (dict_key) {
                  // Interned string key: group on the id, no Value probe.
                  const ColumnVec& gcol = in.col(group_cols[0]);
                  uint32_t id = gcol.IsNull(i) ? strdict::kInvalidId
                                               : gcol.dict_ids()[i];
                  auto it = id_index.find(id);
                  if (it == id_index.end()) {
                    gi = local.groups.size();
                    id_index.emplace(id, gi);
                    local.groups.push_back({{gcol.Get(i)},
                                            std::vector<AggState>(num_aggs),
                                            {}});
                    vstates.emplace_back(num_aggs);
                  } else {
                    gi = it->second;
                  }
                } else {
                  Row key;
                  key.reserve(group_cols.size());
                  for (size_t gc : group_cols) key.push_back(in.ValueAt(i, gc));
                  auto it = local.index.find(key);
                  if (it == local.index.end()) {
                    gi = local.groups.size();
                    local.index.emplace(key, gi);
                    local.groups.push_back(
                        {std::move(key), std::vector<AggState>(num_aggs), {}});
                    vstates.emplace_back(num_aggs);
                  } else {
                    gi = it->second;
                  }
                }
                std::vector<VecAggState>& vs = vstates[gi];
                for (size_t a = 0; a < num_aggs; ++a) {
                  if (agg_cols[a] < 0) {
                    ++vs[a].count;  // COUNT(*): every row, NULLs included
                  } else {
                    UpdateVecAgg(&vs[a], in.col(agg_cols[a]), i);
                  }
                }
                if (opts.capture_lineage) {
                  local.groups[gi].contributors.push_back({0, i});
                }
              }
              for (size_t g = 0; g < local.groups.size(); ++g) {
                for (size_t a = 0; a < num_aggs; ++a) {
                  const ColumnVec* col =
                      agg_cols[a] < 0 ? nullptr : &in.col(agg_cols[a]);
                  if (col != nullptr) {
                    SealVecAgg(vstates[g][a], *col, &local.groups[g].states[a]);
                  } else {
                    local.groups[g].states[a].count = vstates[g][a].count;
                  }
                }
              }
              return governor::ChargeMemory(ApproxRowsBytes(
                  local.groups.size(), node.group_by.size() + num_aggs));
            }));
      } else {
      DVMS_RETURN_IF_ERROR(ForEachMorsel(
          cfg, in.num_rows(), [&](const MorselRange& r) -> Status {
            MorselGroups& local = partials[r.index];
            if (global) {
              local.groups.push_back({{}, std::vector<AggState>(num_aggs), {}});
            }
            for (size_t i = r.begin; i < r.end; ++i) {
              size_t gi;
              if (global) {
                gi = 0;
              } else {
                Row key;
                key.reserve(node.group_by.size());
                for (const auto& e : node.group_by) {
                  DVMS_ASSIGN_OR_RETURN(Value v, EvalExpr(*e, in.row(i), ctx));
                  key.push_back(std::move(v));
                }
                auto it = local.index.find(key);
                if (it == local.index.end()) {
                  gi = local.groups.size();
                  local.index.emplace(key, gi);
                  local.groups.push_back(
                      {std::move(key), std::vector<AggState>(num_aggs), {}});
                } else {
                  gi = it->second;
                }
              }
              Group& g = local.groups[gi];
              for (size_t a = 0; a < num_aggs; ++a) {
                const AggSpec& spec = node.aggregates[a];
                if (spec.count_star) {
                  UpdateAgg(&g.states[a], spec, Value::Null());
                } else {
                  DVMS_ASSIGN_OR_RETURN(Value v,
                                        EvalExpr(*spec.arg, in.row(i), ctx));
                  UpdateAgg(&g.states[a], spec, v);
                }
              }
              if (opts.capture_lineage) g.contributors.push_back({0, i});
            }
            // Group hash tables are the aggregate's scratch: charge what
            // this morsel discovered.
            return governor::ChargeMemory(ApproxRowsBytes(
                local.groups.size(), node.group_by.size() + num_aggs));
          }));
      }
      // Phase 2: deterministic merge. Walking morsels in index order (and
      // each morsel's groups in first-seen order) makes global group
      // discovery order equal serial row order, and fixes the partial-sum
      // addition tree independent of thread scheduling.
      KeyMap index;
      std::vector<Group> groups;
      if (global) {
        groups.push_back({{}, std::vector<AggState>(num_aggs), {}});
      }
      for (MorselGroups& local : partials) {
        for (Group& lg : local.groups) {
          size_t gi;
          if (global) {
            gi = 0;
          } else {
            auto it = index.find(lg.key);
            if (it == index.end()) {
              gi = groups.size();
              index.emplace(lg.key, gi);
              groups.push_back(
                  {std::move(lg.key), std::vector<AggState>(num_aggs), {}});
            } else {
              gi = it->second;
            }
          }
          Group& g = groups[gi];
          for (size_t a = 0; a < num_aggs; ++a) {
            MergeAgg(&g.states[a], lg.states[a]);
          }
          if (opts.capture_lineage) {
            g.contributors.insert(g.contributors.end(),
                                  lg.contributors.begin(),
                                  lg.contributors.end());
          }
        }
      }
      // Deterministic output order: sort groups by key (stable, so any
      // keys comparing equal keep first-seen order).
      std::vector<size_t> order(groups.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::stable_sort(order.begin(), order.end(),
                       [&groups](size_t a, size_t b) {
                         return CompareRows(groups[a].key, groups[b].key) < 0;
                       });
      for (size_t gi : order) {
        Group& g = groups[gi];
        Row row = g.key;
        for (size_t a = 0; a < num_aggs; ++a) {
          row.push_back(FinalizeAgg(g.states[a], node.aggregates[a]));
        }
        add_row(std::move(row), std::move(g.contributors));
      }
      break;
    }

    case PlanKind::kUnion: {
      if (!node.union_distinct) {
        for (size_t c = 0; c < out->children.size(); ++c) {
          const Table& in = out->children[c]->table;
          out->table.AppendRange(in, 0, in.num_rows());
          if (opts.capture_lineage) {
            for (size_t i = 0; i < in.num_rows(); ++i) {
              out->lineage.push_back({{static_cast<uint32_t>(c), i}});
            }
          }
        }
        break;
      }
      KeyMap seen;
      for (size_t c = 0; c < out->children.size(); ++c) {
        const Table& in = out->children[c]->table;
        for (size_t i = 0; i < in.num_rows(); ++i) {
          if (i % kSerialCheckRows == 0) {
            DVMS_RETURN_IF_ERROR(governor::CheckPoint());
          }
          auto it = seen.find(in.row(i));
          if (it == seen.end()) {
            seen.emplace(in.row(i), out->table.num_rows());
            add_row(in.row(i), {{static_cast<uint32_t>(c), i}});
          } else if (opts.capture_lineage) {
            // Duplicates contribute lineage to the surviving row.
            out->lineage[it->second].push_back({static_cast<uint32_t>(c), i});
          }
        }
        DVMS_RETURN_IF_ERROR(governor::ChargeMemory(
            ApproxRowsBytes(in.num_rows(), in.schema().num_columns())));
      }
      break;
    }

    case PlanKind::kMinus: {
      const Table& left = out->children[0]->table;
      const Table& right = out->children[1]->table;
      std::unordered_map<Row, bool, RowHash, RowEq> right_rows;
      DVMS_RETURN_IF_ERROR(governor::ChargeMemory(
          ApproxRowsBytes(right.num_rows(), right.schema().num_columns())));
      for (const Row& r : right.rows()) right_rows.emplace(r, true);
      KeyMap seen;
      for (size_t i = 0; i < left.num_rows(); ++i) {
        if (i % kSerialCheckRows == 0) {
          DVMS_RETURN_IF_ERROR(governor::CheckPoint());
        }
        if (right_rows.count(left.row(i)) > 0) continue;
        auto it = seen.find(left.row(i));
        if (it == seen.end()) {
          seen.emplace(left.row(i), out->table.num_rows());
          add_row(left.row(i), {{0, i}});
        } else if (opts.capture_lineage) {
          out->lineage[it->second].push_back({0, i});
        }
      }
      break;
    }

    case PlanKind::kDistinct: {
      const Table& in = out->children[0]->table;
      KeyMap seen;
      DVMS_RETURN_IF_ERROR(governor::ChargeMemory(
          ApproxRowsBytes(in.num_rows(), in.schema().num_columns())));
      for (size_t i = 0; i < in.num_rows(); ++i) {
        if (i % kSerialCheckRows == 0) {
          DVMS_RETURN_IF_ERROR(governor::CheckPoint());
        }
        auto it = seen.find(in.row(i));
        if (it == seen.end()) {
          seen.emplace(in.row(i), out->table.num_rows());
          add_row(in.row(i), {{0, i}});
        } else if (opts.capture_lineage) {
          out->lineage[it->second].push_back({0, i});
        }
      }
      break;
    }

    case PlanKind::kOrderBy: {
      const Table& in = out->children[0]->table;
      const size_t n = in.num_rows();
      out->morsels_used = std::max<size_t>(1, MorselCount(n, cfg.grain));
      // Key vector + permutation are the sort's scratch footprint.
      DVMS_RETURN_IF_ERROR(governor::ChargeMemory(
          ApproxRowsBytes(n, node.order_exprs.size()) +
          static_cast<int64_t>(n * sizeof(size_t))));
      std::vector<size_t> order_cols;
      bool vec = opts.vectorize && !in.IsRagged();
      for (const auto& e : node.order_exprs) {
        if (!vec) break;
        if (IsSimpleColumn(*e, in.num_columns())) {
          order_cols.push_back(static_cast<size_t>(e->resolved_index));
        } else {
          vec = false;
        }
      }
      // The input-index tiebreak makes the comparator a total order, so
      // the sorted permutation is unique: chunked parallel sort + k-way
      // merge yields exactly what one serial stable sort would.
      std::vector<size_t> perm;
      if (vec) {
        // Sort keys are plain columns: compare cells in place (dictionary
        // ids short-circuit equal strings) — no key materialization.
        DVMS_RETURN_IF_ERROR(governor::CheckPoint());
        auto less = [&node, &in, &order_cols](size_t a, size_t b) {
          for (size_t k = 0; k < order_cols.size(); ++k) {
            const ColumnVec& c = in.col(order_cols[k]);
            int cmp = c.CompareCells(a, c, b);
            if (cmp != 0) return node.order_descending[k] ? cmp > 0 : cmp < 0;
          }
          return a < b;
        };
        DVMS_RETURN_IF_ERROR(SortPermutation(cfg, n, less, &perm));
      } else {
        // Phase 1: morsel-parallel sort-key evaluation into disjoint slots.
        std::vector<Row> keys(n);
        DVMS_RETURN_IF_ERROR(
            ForEachMorsel(cfg, n, [&](const MorselRange& r) -> Status {
              for (size_t i = r.begin; i < r.end; ++i) {
                Row key;
                key.reserve(node.order_exprs.size());
                for (const auto& e : node.order_exprs) {
                  DVMS_ASSIGN_OR_RETURN(Value v, EvalExpr(*e, in.row(i), ctx));
                  key.push_back(std::move(v));
                }
                keys[i] = std::move(key);
              }
              return Status::OK();
            }));
        auto less = [&node, &keys](size_t a, size_t b) {
          const Row& ka = keys[a];
          const Row& kb = keys[b];
          for (size_t k = 0; k < ka.size(); ++k) {
            int c = ka[k].Compare(kb[k]);
            if (c != 0) return node.order_descending[k] ? c > 0 : c < 0;
          }
          return a < b;
        };
        DVMS_RETURN_IF_ERROR(SortPermutation(cfg, n, less, &perm));
      }
      out->table.Reserve(n);
      out->table.AppendGather(in, perm);
      if (opts.capture_lineage) {
        for (size_t i : perm) out->lineage.push_back({{0, i}});
      }
      break;
    }

    case PlanKind::kLimit: {
      const Table& in = out->children[0]->table;
      size_t n = std::min(node.limit, in.num_rows());
      out->table.Reserve(n);
      out->table.AppendRange(in, 0, n);
      if (opts.capture_lineage) {
        for (size_t i = 0; i < n; ++i) out->lineage.push_back({{0, i}});
      }
      break;
    }

    case PlanKind::kAlias: {
      const Table& in = out->children[0]->table;
      out->table.Reserve(in.num_rows());
      out->table.AppendRange(in, 0, in.num_rows());
      if (opts.capture_lineage) {
        for (size_t i = 0; i < in.num_rows(); ++i) {
          out->lineage.push_back({{0, i}});
        }
      }
      break;
    }
  }
  return out;
}

}  // namespace dvms
