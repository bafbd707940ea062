// Columnar storage coverage: ColumnVec encoding decisions, the
// row->columnar->row property round-trip, ragged-table preservation,
// multiset SameContents, the columnar snapshot codec (both directions plus
// recovery of checked-in v1 data directories, columnar and row-store era),
// and the vectorized-vs-row executor
// differential — bit-identical tables, pixels, and lineage at 1 and 4
// threads, including a full corpus replay through both paths.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/dvms.h"
#include "durability/codec.h"
#include "durability/manager.h"
#include "parser/parser.h"
#include "parser/planner.h"
#include "query/binder.h"
#include "query/executor.h"
#include "storage/catalog.h"
#include "storage/column.h"
#include "storage/dict.h"
#include "storage/table.h"
#include "gtest/gtest.h"

namespace dvms {
namespace {

namespace fs = std::filesystem;

// ---- Bit-identical comparison (stronger than Value::Equals) --------------

bool BitIdentical(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case ValueType::kNull:
      return true;
    case ValueType::kBool:
      return a.bool_value() == b.bool_value();
    case ValueType::kInt64:
      return a.int_value() == b.int_value();
    case ValueType::kDouble: {
      uint64_t ba, bb;
      double da = a.double_value(), db = b.double_value();
      std::memcpy(&ba, &da, sizeof(ba));
      std::memcpy(&bb, &db, sizeof(bb));
      return ba == bb;
    }
    case ValueType::kString:
      return a.string_value() == b.string_value();
  }
  return false;
}

::testing::AssertionResult RowsBitIdentical(const std::vector<Row>& a,
                                            const std::vector<Row>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "row counts differ: " << a.size() << " vs " << b.size();
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) {
      return ::testing::AssertionFailure() << "row " << i << " arity differs: "
                                           << a[i].size() << " vs "
                                           << b[i].size();
    }
    for (size_t c = 0; c < a[i].size(); ++c) {
      if (!BitIdentical(a[i][c], b[i][c])) {
        return ::testing::AssertionFailure()
               << "row " << i << " col " << c << " differs: "
               << a[i][c].ToString() << " vs " << b[i][c].ToString();
      }
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult TablesBitIdentical(const Table& a, const Table& b) {
  return RowsBitIdentical(a.rows(), b.rows());
}

::testing::AssertionResult PixelsBitIdentical(const PixelBuffer& a,
                                              const PixelBuffer& b) {
  if (a.width() != b.width() || a.height() != b.height()) {
    return ::testing::AssertionFailure() << "dimensions differ";
  }
  if (!a.Equals(b)) return ::testing::AssertionFailure() << "pixels differ";
  return ::testing::AssertionSuccess();
}

// Flips the process-wide vectorize default and restores it on scope exit,
// so a failing assertion can't leak the row-path default into later tests.
class ScopedVectorizeDefault {
 public:
  explicit ScopedVectorizeDefault(bool on) { exec::SetVectorizeDefault(on); }
  ~ScopedVectorizeDefault() { exec::SetVectorizeDefault(true); }
};

// ---- ColumnVec unit coverage ---------------------------------------------

TEST(ColumnVecTest, EncodingDecidedByFirstNonNullValue) {
  ColumnVec c;
  EXPECT_EQ(c.enc(), ColumnVec::Enc::kEmpty);
  c.AppendNull();
  EXPECT_EQ(c.enc(), ColumnVec::Enc::kEmpty);  // still undecided
  c.Append(Value::Int(7));
  EXPECT_EQ(c.enc(), ColumnVec::Enc::kInt64);
  c.Append(Value::Int(-3));
  c.AppendNull();
  ASSERT_EQ(c.size(), 4u);
  EXPECT_TRUE(c.IsNull(0));
  EXPECT_TRUE(BitIdentical(c.Get(1), Value::Int(7)));
  EXPECT_TRUE(BitIdentical(c.Get(2), Value::Int(-3)));
  EXPECT_TRUE(c.IsNull(3));
  EXPECT_EQ(c.null_count(), 2u);
}

TEST(ColumnVecTest, MixedTypesDemoteToVariantWithoutLosingBits) {
  ColumnVec c;
  c.Append(Value::Int(1));
  c.Append(Value::Double(2.5));  // second type demotes
  EXPECT_EQ(c.enc(), ColumnVec::Enc::kVariant);
  c.Append(Value::String("x"));
  c.AppendNull();
  EXPECT_TRUE(BitIdentical(c.Get(0), Value::Int(1)));
  EXPECT_TRUE(BitIdentical(c.Get(1), Value::Double(2.5)));
  EXPECT_TRUE(BitIdentical(c.Get(2), Value::String("x")));
  EXPECT_TRUE(c.IsNull(3));
}

TEST(ColumnVecTest, StringsInternToSharedDictionaryIds) {
  ColumnVec c;
  c.Append(Value::String("east"));
  c.Append(Value::String("west"));
  c.Append(Value::String("east"));
  ASSERT_EQ(c.enc(), ColumnVec::Enc::kDict);
  EXPECT_EQ(c.dict_ids()[0], c.dict_ids()[2]);  // dedup by id
  EXPECT_NE(c.dict_ids()[0], c.dict_ids()[1]);
  EXPECT_TRUE(c.CellEquals(0, c, 2));
  EXPECT_EQ(c.HashCell(0), c.HashCell(2));
  EXPECT_LT(c.CompareCells(0, c, 1), 0);  // "east" < "west" by bytes
}

TEST(ColumnVecTest, CompareCellsMirrorsValueCompareOnNaNAndBigInts) {
  ColumnVec ints, doubles;
  ints.Append(Value::Int((int64_t{1} << 53) + 1));
  doubles.Append(Value::Double(9007199254740992.0));  // 2^53
  doubles.Append(Value::Double(std::numeric_limits<double>::quiet_NaN()));
  EXPECT_GT(ints.CompareCells(0, doubles, 0), 0);  // exact beyond 2^53
  EXPECT_LT(ints.CompareCells(0, doubles, 1), 0);  // NaN sorts last
  EXPECT_EQ(doubles.CompareCells(1, doubles, 1), 0);
}

// ---- Property test: random tables round-trip row->columnar->row ----------

Value RandomValue(Rng& rng, int type_roll) {
  if (rng.Bernoulli(0.12)) return Value::Null();
  switch (type_roll) {
    case 0: {  // int64, with boundary magnitudes
      int roll = rng.UniformInt(0, 9);
      if (roll == 0)
        return Value::Int(std::numeric_limits<int64_t>::max() -
                          rng.UniformInt(0, 2));
      if (roll == 1)
        return Value::Int(std::numeric_limits<int64_t>::min() +
                          rng.UniformInt(0, 2));
      if (roll == 2) return Value::Int((int64_t{1} << 53) + rng.UniformInt(-2, 2));
      return Value::Int(rng.UniformInt(-1000, 1000));
    }
    case 1: {  // double, with NaN / -0.0 / huge magnitudes
      int roll = rng.UniformInt(0, 9);
      if (roll == 0)
        return Value::Double(std::numeric_limits<double>::quiet_NaN());
      if (roll == 1) return Value::Double(-0.0);
      if (roll == 2) return Value::Double(rng.Uniform(-1, 1) * 1e300);
      return Value::Double(rng.Uniform(-1000, 1000));
    }
    case 2:
      return Value::Bool(rng.Bernoulli(0.5));
    default: {  // string, low cardinality plus empties
      static const char* kPool[] = {"", "east", "west", "north", "south",
                                    "a much longer string payload"};
      return Value::String(kPool[rng.UniformInt(0, 5)]);
    }
  }
}

TEST(TableColumnarTest, RandomTablesRoundTripThroughColumns) {
  Rng rng(42);
  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const int ncols = rng.UniformInt(1, 5);
    std::vector<Column> defs;
    std::vector<int> type_rolls;
    for (int c = 0; c < ncols; ++c) {
      // type_roll 4 = per-cell random type: exercises variant demotion.
      int roll = rng.UniformInt(0, 4);
      type_rolls.push_back(roll);
      ValueType declared =
          roll == 0 ? ValueType::kInt64
                    : (roll == 1 ? ValueType::kDouble
                                 : (roll == 2 ? ValueType::kBool
                                              : ValueType::kString));
      defs.push_back({"c" + std::to_string(c), declared});
    }
    const int nrows = rng.UniformInt(0, 200);
    std::vector<Row> source;
    for (int r = 0; r < nrows; ++r) {
      Row row;
      for (int c = 0; c < ncols; ++c) {
        int roll = type_rolls[c] == 4 ? rng.UniformInt(0, 3) : type_rolls[c];
        row.push_back(RandomValue(rng, roll));
      }
      source.push_back(row);
    }

    // Row-by-row append.
    Table t{Schema(defs)};
    for (const Row& r : source) t.AppendUnchecked(r);
    ASSERT_EQ(t.num_rows(), source.size());
    EXPECT_TRUE(RowsBitIdentical(t.rows(), source));
    for (size_t r = 0; r < source.size(); ++r) {
      for (int c = 0; c < ncols; ++c) {
        ASSERT_TRUE(BitIdentical(t.ValueAt(r, c), source[r][c]))
            << "ValueAt(" << r << ", " << c << ")";
      }
    }

    // Bulk-constructed copy matches too.
    Table t2(Schema(defs), source);
    EXPECT_TRUE(RowsBitIdentical(t2.rows(), source));

    // Typed gather of a random subset preserves bits in subset order.
    std::vector<size_t> pick;
    for (size_t r = 0; r < source.size(); ++r) {
      if (rng.Bernoulli(0.4)) pick.push_back(r);
    }
    Table gathered{Schema(defs)};
    gathered.AppendGather(t, pick);
    std::vector<Row> expected;
    for (size_t r : pick) expected.push_back(source[r]);
    EXPECT_TRUE(RowsBitIdentical(gathered.rows(), expected));

    // Codec round-trip: encode (columnar or legacy-forced) and decode.
    BinaryWriter w;
    EncodeTable(t, &w);
    BinaryReader r(w.data());
    auto decoded = DecodeTable(&r);
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    EXPECT_TRUE(RowsBitIdentical(decoded.value().rows(), source));
    EXPECT_TRUE(t.SameContents(decoded.value()));
  }
}

TEST(TableColumnarTest, RaggedRowsPreserveOriginalArity) {
  Table t(Schema({{"a", ValueType::kInt64}, {"b", ValueType::kString}}));
  t.AppendUnchecked({Value::Int(1)});                                // short
  t.AppendUnchecked({Value::Int(2), Value::String("x")});            // exact
  t.AppendUnchecked({Value::Int(3), Value::String("y"), Value::Bool(true)});
  EXPECT_TRUE(t.IsRagged());
  ASSERT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.row(0).size(), 1u);
  EXPECT_EQ(t.row(1).size(), 2u);
  EXPECT_EQ(t.row(2).size(), 3u);
  EXPECT_TRUE(BitIdentical(t.row(2)[2], Value::Bool(true)));
  // Ragged tables take the legacy snapshot format; the round-trip still
  // reproduces every row at its original arity.
  BinaryWriter w;
  EncodeTable(t, &w);
  BinaryReader r(w.data());
  auto decoded = DecodeTable(&r);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_TRUE(RowsBitIdentical(decoded.value().rows(), t.rows()));
}

TEST(TableColumnarTest, SameContentsIsMultisetEquality) {
  Schema schema({{"k", ValueType::kInt64}, {"s", ValueType::kString}});
  std::vector<Row> rows = {{Value::Int(1), Value::String("a")},
                           {Value::Int(2), Value::String("b")},
                           {Value::Int(2), Value::String("b")},
                           {Value::Int(3), Value::String("c")}};
  Table a(schema, rows);
  std::reverse(rows.begin(), rows.end());
  Table b(schema, rows);
  EXPECT_TRUE(a.SameContents(b));  // order-insensitive
  EXPECT_TRUE(b.SameContents(a));

  // Multiplicity matters: swap one duplicate for an extra distinct row.
  Table c(schema, {{Value::Int(1), Value::String("a")},
                   {Value::Int(2), Value::String("b")},
                   {Value::Int(3), Value::String("c")},
                   {Value::Int(3), Value::String("c")}});
  EXPECT_FALSE(a.SameContents(c));
  EXPECT_FALSE(c.SameContents(a));

  // Cross-type numeric cells compare equal, as with row-based compare.
  Table d(Schema({{"v", ValueType::kDouble}}), {{Value::Int(3)}});
  Table e(Schema({{"v", ValueType::kDouble}}), {{Value::Double(3.0)}});
  EXPECT_TRUE(d.SameContents(e));

  // ...but not beyond 2^53, where the comparison is exact.
  Table f(Schema({{"v", ValueType::kDouble}}),
          {{Value::Int((int64_t{1} << 53) + 1)}});
  Table g(Schema({{"v", ValueType::kDouble}}),
          {{Value::Double(9007199254740992.0)}});
  EXPECT_FALSE(f.SameContents(g));
}

// ---- Snapshot codec ------------------------------------------------------

Table MakeTypedTable(size_t n) {
  Table t(Schema({{"id", ValueType::kInt64},
                  {"price", ValueType::kDouble},
                  {"region", ValueType::kString},
                  {"flag", ValueType::kBool}}));
  const char* regions[] = {"east", "west", "north", "south"};
  Rng rng(5);
  for (size_t i = 0; i < n; ++i) {
    Row row;
    row.push_back(Value::Int(static_cast<int64_t>(i)));
    row.push_back(rng.Bernoulli(0.05) ? Value::Null()
                                      : Value::Double(rng.Uniform(0, 100)));
    row.push_back(Value::String(regions[rng.UniformInt(0, 3)]));
    row.push_back(Value::Bool(rng.Bernoulli(0.5)));
    t.AppendUnchecked(row);
  }
  return t;
}

TEST(ColumnarCodecTest, ColumnarAndLegacyFormatsBothDecode) {
  Table t = MakeTypedTable(500);
  BinaryWriter cw;
  EncodeTable(t, &cw);
  BinaryWriter lw;
  EncodeTableLegacy(t, &lw);
  EXPECT_NE(cw.data(), lw.data());
  for (const std::string& bytes : {cw.data(), lw.data()}) {
    BinaryReader r(bytes);
    auto decoded = DecodeTable(&r);
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    EXPECT_TRUE(r.AtEnd());
    EXPECT_TRUE(TablesBitIdentical(decoded.value(), t));
  }
}

TEST(ColumnarCodecTest, ColumnarSnapshotIsSmallerThanRowStore) {
  Table t = MakeTypedTable(10000);
  BinaryWriter cw;
  EncodeTable(t, &cw);
  BinaryWriter lw;
  EncodeTableLegacy(t, &lw);
  // The legacy format tags every cell and re-spells every string; the
  // columnar format writes typed payloads and a local dictionary. Require
  // a real reduction, not a rounding artifact.
  EXPECT_LT(cw.size(), lw.size() * 3 / 4)
      << "columnar " << cw.size() << " bytes vs legacy " << lw.size();
}

TEST(ColumnarCodecTest, BytesIndependentOfProcessDictionaryHistory) {
  Table t1 = MakeTypedTable(200);
  BinaryWriter w1;
  EncodeTable(t1, &w1);
  // Pollute the global dictionary so a rebuilt table interns to different
  // global ids; the local-remap encoding must produce identical bytes.
  for (int i = 0; i < 100; ++i) {
    strdict::Intern("codec_noise_" + std::to_string(i));
  }
  Table t2 = MakeTypedTable(200);
  BinaryWriter w2;
  EncodeTable(t2, &w2);
  EXPECT_EQ(w1.data(), w2.data());
}

TEST(ColumnarCodecTest, TruncatedColumnarPayloadFailsCleanly) {
  Table t = MakeTypedTable(64);
  BinaryWriter w;
  EncodeTable(t, &w);
  const std::string& bytes = w.data();
  for (size_t cut : {size_t{4}, size_t{9}, bytes.size() / 2, bytes.size() - 1}) {
    BinaryReader r(bytes.data(), cut);
    auto decoded = DecodeTable(&r);
    EXPECT_FALSE(decoded.ok()) << "decode of " << cut << " bytes succeeded";
  }
}

// ---- Vectorized-vs-row executor differential -----------------------------

class VectorizedExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    udfs_ = UdfRegistry::WithBuiltins();
    auto sales = catalog_
                     .CreateTable("Sales",
                                  Schema({{"productId", ValueType::kInt64},
                                          {"region", ValueType::kString},
                                          {"year", ValueType::kInt64},
                                          {"price", ValueType::kDouble},
                                          {"revenue", ValueType::kDouble}}),
                                  RelationKind::kBase)
                     .value();
    const char* regions[] = {"east", "west", "north", "south"};
    Rng rng(19);
    for (int i = 0; i < 3000; ++i) {
      // NULLs and NaNs probe the aggregate-skip and sort-order paths where
      // the vectorized kernels could plausibly diverge from the row loop.
      Value revenue =
          rng.Bernoulli(0.05)
              ? Value::Null()
              : (rng.Bernoulli(0.03)
                     ? Value::Double(std::numeric_limits<double>::quiet_NaN())
                     : Value::Double(rng.Uniform(-100, 100)));
      ASSERT_TRUE(sales
                      ->Append({Value::Int(i),
                                Value::String(regions[rng.UniformInt(0, 3)]),
                                Value::Int(1992 + rng.UniformInt(0, 6)),
                                Value::Double(rng.Uniform(0, 50)), revenue})
                      .ok());
    }
  }

  Result<std::unique_ptr<NodeResult>> RunSql(const std::string& sql,
                                             bool vectorize, size_t threads,
                                             ThreadPool* pool,
                                             bool capture_lineage = false) {
    DVMS_ASSIGN_OR_RETURN(SelectStmt stmt, ParseSelect(sql));
    CatalogSchemaResolver resolver(&catalog_);
    Planner planner(&resolver);
    DVMS_ASSIGN_OR_RETURN(PlanPtr plan, planner.PlanSelect(stmt));
    Binder binder(&resolver, &udfs_);
    DVMS_RETURN_IF_ERROR(binder.Bind(plan.get()));
    Executor exec(&catalog_, &udfs_);
    ExecOptions opts;
    opts.vectorize = vectorize;
    opts.capture_lineage = capture_lineage;
    opts.num_threads = threads;
    opts.pool = pool;
    opts.morsel_rows = 256;
    return exec.Execute(*plan, opts);
  }

  void ExpectDifferentialMatch(const std::string& sql) {
    SCOPED_TRACE(sql);
    auto reference = RunSql(sql, /*vectorize=*/false, 1, nullptr);
    ASSERT_TRUE(reference.ok()) << reference.status().message();
    for (size_t threads : {size_t{1}, size_t{4}}) {
      std::unique_ptr<ThreadPool> pool;
      if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
      for (bool vec : {false, true}) {
        if (threads == 1 && !vec) continue;  // that is the reference itself
        auto got = RunSql(sql, vec, threads, pool.get());
        ASSERT_TRUE(got.ok()) << got.status().message();
        EXPECT_TRUE(TablesBitIdentical(reference.value()->table,
                                       got.value()->table))
            << "vectorize=" << vec << " threads=" << threads;
      }
    }
  }

  Catalog catalog_;
  UdfRegistry udfs_;
};

TEST_F(VectorizedExecutorTest, FilterConjunctionsOverTypedColumns) {
  ExpectDifferentialMatch(
      "SELECT productId FROM Sales WHERE price < 25 AND year >= 1994");
  ExpectDifferentialMatch(
      "SELECT productId FROM Sales WHERE region = 'east' AND revenue > 0");
  ExpectDifferentialMatch(
      "SELECT productId FROM Sales WHERE region <> 'west'");
  ExpectDifferentialMatch(
      "SELECT productId FROM Sales WHERE region >= 'north' AND price <= 40");
  // Literal-on-the-left and column-to-column comparisons.
  ExpectDifferentialMatch("SELECT productId FROM Sales WHERE 30 > price");
  ExpectDifferentialMatch("SELECT productId FROM Sales WHERE revenue < price");
}

TEST_F(VectorizedExecutorTest, ProjectionAndScanPassThrough) {
  ExpectDifferentialMatch("SELECT * FROM Sales");
  ExpectDifferentialMatch("SELECT region, price FROM Sales");
  ExpectDifferentialMatch(
      "SELECT productId, price * 2 + revenue AS v FROM Sales");
}

TEST_F(VectorizedExecutorTest, AggregatesMatchRowPathBitForBit) {
  ExpectDifferentialMatch(
      "SELECT region, SUM(revenue) AS s, COUNT(*) AS n, AVG(price) AS a, "
      "MIN(revenue) AS lo, MAX(revenue) AS hi FROM Sales GROUP BY region");
  ExpectDifferentialMatch(
      "SELECT SUM(revenue) AS s, COUNT(revenue) AS n, MIN(price) AS lo "
      "FROM Sales");
  ExpectDifferentialMatch(
      "SELECT year, region, SUM(price) AS s FROM Sales "
      "GROUP BY year, region ORDER BY year, region");
  ExpectDifferentialMatch(
      "SELECT year, SUM(revenue) AS s FROM Sales WHERE region = 'east' "
      "GROUP BY year");
}

TEST_F(VectorizedExecutorTest, OrderByWithNaNsNullsAndTies) {
  ExpectDifferentialMatch(
      "SELECT productId, revenue FROM Sales ORDER BY revenue DESC, productId");
  ExpectDifferentialMatch("SELECT productId, region FROM Sales ORDER BY region");
  ExpectDifferentialMatch(
      "SELECT productId FROM Sales ORDER BY price LIMIT 17");
}

TEST_F(VectorizedExecutorTest, SetOperationsAndDistinct) {
  ExpectDifferentialMatch("SELECT DISTINCT region, year FROM Sales");
  ExpectDifferentialMatch(
      "SELECT region FROM Sales WHERE year = 1993 "
      "UNION SELECT region FROM Sales WHERE year = 1994");
  ExpectDifferentialMatch(
      "SELECT region FROM Sales MINUS SELECT region FROM Sales "
      "WHERE region = 'east'");
}

TEST_F(VectorizedExecutorTest, LineageIdenticalAcrossPaths) {
  const std::string sql =
      "SELECT region, SUM(revenue) AS s FROM Sales WHERE price < 25 "
      "GROUP BY region";
  auto reference = RunSql(sql, /*vectorize=*/false, 1, nullptr,
                          /*capture_lineage=*/true);
  ASSERT_TRUE(reference.ok()) << reference.status().message();
  std::function<void(const NodeResult&, const NodeResult&)> compare =
      [&](const NodeResult& a, const NodeResult& b) {
        EXPECT_TRUE(TablesBitIdentical(a.table, b.table));
        ASSERT_EQ(a.lineage.size(), b.lineage.size());
        for (size_t i = 0; i < a.lineage.size(); ++i) {
          ASSERT_EQ(a.lineage[i].size(), b.lineage[i].size()) << "row " << i;
          for (size_t j = 0; j < a.lineage[i].size(); ++j) {
            EXPECT_EQ(a.lineage[i][j].child, b.lineage[i][j].child);
            EXPECT_EQ(a.lineage[i][j].row, b.lineage[i][j].row);
          }
        }
        ASSERT_EQ(a.children.size(), b.children.size());
        for (size_t i = 0; i < a.children.size(); ++i) {
          compare(*a.children[i], *b.children[i]);
        }
      };
  for (size_t threads : {size_t{1}, size_t{4}}) {
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
    auto vec = RunSql(sql, /*vectorize=*/true, threads, pool.get(),
                      /*capture_lineage=*/true);
    ASSERT_TRUE(vec.ok()) << vec.status().message();
    SCOPED_TRACE("threads=" + std::to_string(threads));
    compare(*reference.value(), *vec.value());
  }
}

// ---- Engine-level differential: corpus replay through both paths ---------

std::string Fingerprint(const Dvms& engine) {
  std::ostringstream out;
  for (const std::string& name : engine.catalog().Names()) {
    auto table = engine.GetTable(name);
    if (!table.ok()) continue;
    out << "== " << name << " ==\n";
    const Table* t = table.value();
    for (size_t c = 0; c < t->schema().num_columns(); ++c) {
      out << t->schema().column(c).name << "|";
    }
    out << "\n";
    for (size_t r = 0; r < t->num_rows(); ++r) {
      for (const Value& v : t->row(r)) out << v.ToString() << "|";
      out << "\n";
    }
  }
  return out.str();
}

struct ReplayResult {
  bool loaded = false;
  std::string fingerprint;
  PixelBuffer pixels{1, 1};
};

ReplayResult ReplayCorpusProgram(const std::string& source, size_t threads,
                                 bool vectorize) {
  ScopedVectorizeDefault guard(vectorize);
  Dvms::Options options;
  options.canvas_width = 200;
  options.canvas_height = 150;
  options.num_threads = threads;
  Dvms engine(options);
  ReplayResult out;
  Schema schema({{"id", ValueType::kInt64}, {"v", ValueType::kDouble}});
  EXPECT_TRUE(engine.CreateBaseTable("Pts", schema).ok());
  EXPECT_TRUE(engine
                  .Insert("Pts", {{Value::Int(1), Value::Double(25)},
                                  {Value::Int(2), Value::Double(55)},
                                  {Value::Int(3), Value::Double(85)}})
                  .ok());
  if (!engine.LoadProgram(source).ok()) return out;
  out.loaded = true;
  std::vector<InputEvent> stream = {
      InputEvent::MouseDown(1, 30, 30), InputEvent::MouseMove(2, 60, 60),
      InputEvent::MouseUp(3, 60, 60),   InputEvent::KeyPress(4, "p"),
      InputEvent::KeyPress(5, "f"),     InputEvent::Wheel(6, 50, 50, 3),
      InputEvent::MouseDown(7, 40, 40), InputEvent::MouseUp(8, 42, 40),
      InputEvent::MouseDown(9, 44, 40), InputEvent::MouseMove(10, 50, 50),
  };
  for (const InputEvent& e : stream) {
    EXPECT_TRUE(engine.PushEvent(e).ok());
  }
  out.fingerprint = Fingerprint(engine);
  out.pixels = engine.pixels();
  return out;
}

TEST(ColumnarEngineDifferentialTest, CorpusReplayMatchesRowPath) {
  // Every loadable corpus program replays through the vectorized and the
  // row executor at 1 and 4 threads; fingerprints (every catalog relation,
  // matcher state included) and pixels must be bit-identical.
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(DVMS_TEST_CORPUS_DIR)) {
    if (entry.path().extension() == ".devil") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty());
  size_t loaded = 0;
  for (const fs::path& file : files) {
    SCOPED_TRACE(file.filename().string());
    std::ifstream in(file);
    std::ostringstream source;
    source << in.rdbuf();
    for (size_t threads : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      ReplayResult row_path =
          ReplayCorpusProgram(source.str(), threads, /*vectorize=*/false);
      ReplayResult vec_path =
          ReplayCorpusProgram(source.str(), threads, /*vectorize=*/true);
      ASSERT_EQ(row_path.loaded, vec_path.loaded);
      if (!row_path.loaded) continue;
      if (threads == 1) ++loaded;
      EXPECT_EQ(vec_path.fingerprint, row_path.fingerprint);
      EXPECT_TRUE(PixelsBitIdentical(vec_path.pixels, row_path.pixels));
    }
  }
  EXPECT_GE(loaded, 5u);
}

// ---- Recovery from checked-in v1 data directories --------------------------

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    static int counter = 0;
    path_ = fs::path(::testing::TempDir()) /
            ("dvms_" + tag + "_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++));
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

std::unique_ptr<Dvms> MakeRecoveryEngine(const std::string& data_dir) {
  Dvms::Options options;
  options.canvas_width = 200;
  options.canvas_height = 150;
  options.num_threads = 1;
  options.data_dir = data_dir;
  options.wal_fsync = "always";
  options.snapshot_interval = 0;  // explicit Checkpoint() only
  return std::make_unique<Dvms>(options);
}

uint64_t Fnv1a(const std::string& bytes,
               uint64_t h = 1469598103934665603ull) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

void DumpTable(const Table& t, std::ostringstream& out) {
  for (size_t c = 0; c < t.schema().num_columns(); ++c) {
    out << t.schema().column(c).name << "|";
  }
  out << "\n";
  for (size_t r = 0; r < t.num_rows(); ++r) {
    for (const Value& v : t.row(r)) out << v.ToString() << "|";
    out << "\n";
  }
}

/// Every relation's working state, committed versions, steps, transaction
/// base and epoch, plus the engine counters: the whole durable image an
/// old data directory must reproduce.
std::string DeepFingerprint(const Dvms& engine) {
  std::ostringstream out;
  for (const std::string& name : engine.catalog().Names()) {
    auto table = engine.catalog().Get(name);
    if (!table.ok()) continue;
    const VersionedTable& vt = *table.value();
    out << "== " << name << " epoch " << vt.epoch() << " txn "
        << vt.in_transaction() << " ==\n";
    DumpTable(vt.current(), out);
    for (const TablePtr& v : vt.committed_versions()) {
      out << "-- committed\n";
      DumpTable(*v, out);
    }
    for (const TablePtr& v : vt.step_versions()) {
      out << "-- step\n";
      DumpTable(*v, out);
    }
    if (vt.transaction_base() != nullptr) {
      out << "-- base\n";
      DumpTable(*vt.transaction_base(), out);
    }
  }
  out << engine.DumpState();
  return out.str();
}

uint64_t PixelHash(const PixelBuffer& p) {
  std::string bytes = std::to_string(p.width()) + "x" +
                      std::to_string(p.height());
  for (size_t y = 0; y < p.height(); ++y) {
    for (size_t x = 0; x < p.width(); ++x) {
      RGBA c = p.At(static_cast<int64_t>(x), static_cast<int64_t>(y));
      bytes.push_back(static_cast<char>(c.r));
      bytes.push_back(static_cast<char>(c.g));
      bytes.push_back(static_cast<char>(c.b));
      bytes.push_back(static_cast<char>(c.a));
    }
  }
  return Fnv1a(bytes);
}

/// Undoes to the start of the interaction history, hashing the full state
/// and pixels after every step: the undo history's images, in order.
uint64_t UndoWalkHash(Dvms& engine) {
  uint64_t h = Fnv1a("undo-walk");
  while (engine.CanUndo()) {
    Status st = engine.Undo();
    EXPECT_TRUE(st.ok()) << st.message();
    if (!st.ok()) return 0;
    h = Fnv1a(DeepFingerprint(engine), h);
    h ^= PixelHash(engine.pixels());
  }
  return h;
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// fixtures/v1_recorded.txt: "<name> <hex>" lines recorded when the
/// fixtures were written (fingerprint, pixels, undo_walk).
std::map<std::string, std::string> ReadRecordedHashes() {
  std::map<std::string, std::string> out;
  std::ifstream in(fs::path(DVMS_TEST_FIXTURE_DIR) / "v1_recorded.txt");
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name, hex;
    fields >> name >> hex;
    out[name] = hex;
  }
  return out;
}

/// Opens a copy of a checked-in data directory written with v1 snapshots
/// (a snapshot with a full undo history, an open interaction, and a WAL
/// suffix), checks the recorded state, checkpoints (writing v2), reopens,
/// and checks again — including a walk through the whole undo history.
void CheckV1DataDirectory(const std::string& fixture) {
  SCOPED_TRACE(fixture);
  std::map<std::string, std::string> want = ReadRecordedHashes();
  ASSERT_EQ(want.size(), 3u);
  TempDir dir(fixture);
  fs::copy(fs::path(DVMS_TEST_FIXTURE_DIR) / fixture, dir.str(),
           fs::copy_options::recursive);
  {
    auto engine = MakeRecoveryEngine(dir.str());
    ASSERT_TRUE(engine->recovery_status().ok())
        << engine->recovery_status().message();
    EXPECT_TRUE(engine->durability_stats().recovered_from_snapshot);
    EXPECT_GT(engine->durability_stats().frames_replayed, 0u);
    EXPECT_EQ(Hex(Fnv1a(DeepFingerprint(*engine))), want["fingerprint"]);
    EXPECT_EQ(Hex(PixelHash(engine->pixels())), want["pixels"]);
    ASSERT_TRUE(engine->Checkpoint().ok());
  }
  Result<std::vector<uint64_t>> snaps = ListWalSnapshots(dir.str());
  ASSERT_TRUE(snaps.ok());
  ASSERT_FALSE(snaps.value().empty());
  auto file =
      ReadSnapshotFile(WalSnapshotPath(dir.str(), snaps.value().back()));
  ASSERT_TRUE(file.ok()) << file.status().message();
  ASSERT_FALSE(file.value().second.empty());
  EXPECT_EQ(static_cast<uint8_t>(file.value().second[0]), 2u);  // v2 payload

  auto again = MakeRecoveryEngine(dir.str());
  ASSERT_TRUE(again->recovery_status().ok())
      << again->recovery_status().message();
  EXPECT_TRUE(again->durability_stats().recovered_from_snapshot);
  EXPECT_EQ(Hex(Fnv1a(DeepFingerprint(*again))), want["fingerprint"]);
  EXPECT_EQ(Hex(PixelHash(again->pixels())), want["pixels"]);
  EXPECT_EQ(Hex(UndoWalkHash(*again)), want["undo_walk"]);
}

TEST(ColumnarRecoveryTest, RowStoreEraSnapshotAndWalRecover) {
  // Row-wise tables throughout the snapshot (the pre-columnar format).
  CheckV1DataDirectory("v1_rowstore");
}

TEST(ColumnarRecoveryTest, ColumnarV1SnapshotAndWalRecover) {
  // Columnar tables, each copy inline (the format before the table pool).
  CheckV1DataDirectory("v1_columnar");
}

}  // namespace
}  // namespace dvms
