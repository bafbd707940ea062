// Property-based tests: invariants checked across randomized inputs, one
// gtest parameter per RNG seed.

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/rng.h"
#include "concurrency/policy.h"
#include "core/dvms.h"
#include "events/recognizer.h"
#include "parser/parser.h"
#include "query/binder.h"
#include "query/executor.h"
#include "query/ivm.h"
#include "storage/catalog.h"
#include "streaming/wavelet.h"
#include "gtest/gtest.h"

namespace dvms {
namespace {

class SeededTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  uint64_t seed() const { return GetParam(); }
};

// ---------------------------------------------------------------- values

using ValueProperties = SeededTest;

Value RandomValue(Rng* rng) {
  switch (rng->UniformInt(0, 4)) {
    case 0:
      return Value::Null();
    case 1:
      return Value::Bool(rng->Bernoulli(0.5));
    case 2:
      return Value::Int(rng->UniformInt(-100, 100));
    case 3:
      return Value::Double(rng->Uniform(-100, 100));
    default:
      return Value::String(std::string(1, static_cast<char>(
                                              'a' + rng->UniformInt(0, 25))));
  }
}

TEST_P(ValueProperties, CompareIsTotalOrder) {
  Rng rng(seed());
  std::vector<Value> values;
  for (int i = 0; i < 30; ++i) values.push_back(RandomValue(&rng));
  for (const Value& a : values) {
    EXPECT_EQ(a.Compare(a), 0);
    for (const Value& b : values) {
      // Antisymmetry.
      EXPECT_EQ(a.Compare(b) < 0, b.Compare(a) > 0);
      // Consistency with Equals for same-kind comparisons.
      if (a.Compare(b) == 0 && b.Compare(a) == 0 && !a.is_null() &&
          !b.is_null()) {
        EXPECT_TRUE(a.Equals(b) || a.type() == ValueType::kBool ||
                    b.type() == ValueType::kBool);
      }
      for (const Value& c : values) {
        // Transitivity (sampled).
        if (a.Compare(b) <= 0 && b.Compare(c) <= 0) {
          EXPECT_LE(a.Compare(c), 0);
        }
      }
    }
  }
}

TEST_P(ValueProperties, EqualsImpliesEqualHash) {
  Rng rng(seed());
  for (int i = 0; i < 200; ++i) {
    Value a = RandomValue(&rng);
    Value b = RandomValue(&rng);
    if (a.Equals(b)) {
      EXPECT_EQ(a.Hash(), b.Hash())
          << a.ToString() << " vs " << b.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValueProperties,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

// -------------------------------------------------------------- executor

class ExecutorProperties : public SeededTest {
 protected:
  void SetUp() override {
    udfs_ = UdfRegistry::WithBuiltins();
    Rng rng(seed());
    auto t = catalog_
                 .CreateTable("T",
                              Schema({{"k", ValueType::kInt64},
                                      {"v", ValueType::kDouble},
                                      {"s", ValueType::kString}}),
                              RelationKind::kBase)
                 .value();
    size_t rows = static_cast<size_t>(rng.UniformInt(20, 200));
    const char* cats[] = {"a", "b", "c", "d"};
    for (size_t i = 0; i < rows; ++i) {
      ASSERT_TRUE(t->Append({Value::Int(rng.UniformInt(0, 9)),
                             Value::Double(rng.Uniform(-50, 50)),
                             Value::String(cats[rng.UniformInt(0, 3)])})
                      .ok());
    }
    auto u = catalog_
                 .CreateTable("U", Schema({{"k", ValueType::kInt64},
                                           {"w", ValueType::kDouble}}),
                              RelationKind::kBase)
                 .value();
    size_t urows = static_cast<size_t>(rng.UniformInt(5, 60));
    for (size_t i = 0; i < urows; ++i) {
      ASSERT_TRUE(u->Append({Value::Int(rng.UniformInt(0, 9)),
                             Value::Double(rng.Uniform(0, 10))})
                      .ok());
    }
  }

  Table Run(PlanPtr plan) {
    CatalogSchemaResolver resolver(&catalog_);
    Binder binder(&resolver, &udfs_);
    EXPECT_TRUE(binder.Bind(plan.get()).ok());
    Executor exec(&catalog_, &udfs_);
    auto result = exec.ExecuteToTable(*plan);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).value();
  }

  const Table& T() { return catalog_.Get("T").value()->current(); }
  const Table& U() { return catalog_.Get("U").value()->current(); }

  Catalog catalog_;
  UdfRegistry udfs_;
};

TEST_P(ExecutorProperties, FilterPartitionsInput) {
  auto pred = MakeBinary(BinaryOp::kGt, MakeColumnRef("v"),
                         MakeLiteral(Value::Double(0)));
  Table pos = Run(MakeFilter(MakeScan("T"), pred));
  Table neg = Run(MakeFilter(MakeScan("T"),
                             MakeUnary(UnaryOp::kNot, CloneExpr(pred))));
  EXPECT_EQ(pos.num_rows() + neg.num_rows(), T().num_rows());
}

TEST_P(ExecutorProperties, UnionWithSelfEqualsDistinct) {
  auto proj = [](PlanPtr in) {
    return MakeProject(in, {MakeColumnRef("k"), MakeColumnRef("s")},
                       {"k", "s"});
  };
  Table unioned = Run(MakeUnion({proj(MakeScan("T")), proj(MakeScan("T"))},
                                /*distinct=*/true));
  Table distinct = Run(MakeDistinct(proj(MakeScan("T"))));
  EXPECT_TRUE(unioned.SameContents(distinct));
}

TEST_P(ExecutorProperties, MinusSelfIsEmpty) {
  Table empty = Run(MakeMinus(MakeScan("T"), MakeScan("T")));
  EXPECT_EQ(empty.num_rows(), 0u);
}

TEST_P(ExecutorProperties, HashJoinCountMatchesHistogramProduct) {
  Table joined = Run(MakeJoin(
      MakeScan("T", VersionRef::Current(), "t"),
      MakeScan("U", VersionRef::Current(), "u"),
      {{MakeColumnRef("t", "k"), MakeColumnRef("u", "k")}}));
  std::map<int64_t, size_t> ht, hu;
  for (const Row& row : T().rows()) ++ht[row[0].int_value()];
  for (const Row& row : U().rows()) ++hu[row[0].int_value()];
  size_t expected = 0;
  for (const auto& [k, n] : ht) {
    auto it = hu.find(k);
    if (it != hu.end()) expected += n * it->second;
  }
  EXPECT_EQ(joined.num_rows(), expected);
}

TEST_P(ExecutorProperties, HashJoinEqualsNestedLoopJoin) {
  Table hash = Run(MakeJoin(
      MakeScan("T", VersionRef::Current(), "t"),
      MakeScan("U", VersionRef::Current(), "u"),
      {{MakeColumnRef("t", "k"), MakeColumnRef("u", "k")}}));
  Table nested = Run(MakeJoin(
      MakeScan("T", VersionRef::Current(), "t"),
      MakeScan("U", VersionRef::Current(), "u"), {},
      MakeBinary(BinaryOp::kEq, MakeColumnRef("t", "k"),
                 MakeColumnRef("u", "k"))));
  EXPECT_TRUE(hash.SameContents(nested));
}

TEST_P(ExecutorProperties, GroupSumsAddUpToGlobalSum) {
  std::vector<AggSpec> per_group;
  per_group.push_back({AggFunc::kSum, MakeColumnRef("v"), false, "sum"});
  Table groups = Run(MakeAggregate(MakeScan("T"), {MakeColumnRef("s")},
                                   {"s"}, per_group));
  std::vector<AggSpec> global;
  global.push_back({AggFunc::kSum, MakeColumnRef("v"), false, "sum"});
  Table total = Run(MakeAggregate(MakeScan("T"), {}, {}, global));
  double group_total = 0;
  for (const Row& row : groups.rows()) group_total += row[1].double_value();
  EXPECT_NEAR(group_total, total.row(0)[0].double_value(), 1e-6);
}

TEST_P(ExecutorProperties, OrderByIsSortedPermutation) {
  Table sorted = Run(MakeOrderBy(MakeScan("T"), {MakeColumnRef("v")}, {false}));
  EXPECT_EQ(sorted.num_rows(), T().num_rows());
  EXPECT_TRUE(sorted.SameContents(T()));
  size_t v = sorted.schema().IndexOf("v").value();
  for (size_t i = 1; i < sorted.num_rows(); ++i) {
    EXPECT_LE(sorted.row(i - 1)[v].double_value(),
              sorted.row(i)[v].double_value());
  }
}

TEST_P(ExecutorProperties, LimitIsPrefix) {
  Table limited = Run(MakeLimit(MakeScan("T"), 7));
  EXPECT_EQ(limited.num_rows(), std::min<size_t>(7, T().num_rows()));
  for (size_t i = 0; i < limited.num_rows(); ++i) {
    EXPECT_TRUE(RowsEqual(limited.row(i), T().row(i)));
  }
}

TEST_P(ExecutorProperties, LineageCoversEveryOutputRow) {
  auto plan = MakeProject(
      MakeFilter(MakeScan("T"), MakeBinary(BinaryOp::kGt, MakeColumnRef("v"),
                                           MakeLiteral(Value::Double(0)))),
      {MakeColumnRef("k")}, {"k"});
  CatalogSchemaResolver resolver(&catalog_);
  Binder binder(&resolver, &udfs_);
  ASSERT_TRUE(binder.Bind(plan.get()).ok());
  Executor exec(&catalog_, &udfs_);
  ExecOptions opts;
  opts.capture_lineage = true;
  auto result = exec.Execute(*plan, opts).value();
  ASSERT_EQ(result->lineage.size(), result->table.num_rows());
  for (const auto& entries : result->lineage) {
    EXPECT_FALSE(entries.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutorProperties,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

// ------------------------------------------------------------------- nfa

using NfaProperties = SeededTest;

TEST_P(NfaProperties, RandomStreamsKeepTableConsistent) {
  // Reference model of the drag pattern: C holds one row per DOWN plus one
  // per MOVE since the last DOWN; an alphabet event that cannot extend the
  // match clears it; UP commits.
  Rng rng(seed());
  Catalog catalog;
  UdfRegistry udfs = UdfRegistry::WithBuiltins();
  EventRecognizer recognizer(&catalog, &udfs);
  auto program = ParseProgram(
      "C = EVENT MOUSE_DOWN AS D, MOUSE_MOVE* AS M, MOUSE_UP AS U "
      "RETURN (D.t, D.x, D.y, 0 AS dx, 0 AS dy), "
      "(M.t, D.x, D.y, (M.x - D.x) AS dx, (M.y - D.y) AS dy);");
  ASSERT_TRUE(program.ok());
  ASSERT_TRUE(
      recognizer.DefinePattern("C", program.value().statements[0].event).ok());
  auto table = catalog.Get("C").value();

  bool active = false;
  size_t expected_rows = 0;
  size_t commits = 0;

  for (int step = 0; step < 400; ++step) {
    int which = static_cast<int>(rng.UniformInt(0, 3));
    InputEvent event;
    switch (which) {
      case 0:
        event = InputEvent::MouseDown(step, rng.Uniform(0, 100),
                                      rng.Uniform(0, 100));
        break;
      case 1:
        event = InputEvent::MouseMove(step, rng.Uniform(0, 100),
                                      rng.Uniform(0, 100));
        break;
      case 2:
        event = InputEvent::MouseUp(step, rng.Uniform(0, 100),
                                    rng.Uniform(0, 100));
        break;
      default:
        event = InputEvent::KeyPress(step, "x");
        break;
    }
    auto outcomes = recognizer.Feed(event).value();
    // Reference transition.
    switch (which) {
      case 0:
        if (!active) {
          active = true;
          expected_rows = 1;  // the D tuple
        } else {
          active = false;  // reject: DOWN cannot extend DOWN...MOVE*
          expected_rows = 0;
        }
        break;
      case 1:
        if (active) ++expected_rows;
        break;
      case 2:
        if (active) {
          ++commits;
          active = false;
          // Committed rows stay until the next interaction starts.
        }
        // UP with no match is filtered; the table keeps its committed
        // contents.
        break;
      default:
        break;  // key press: filtered
    }
    if (active) {
      EXPECT_EQ(table->current().num_rows(), expected_rows)
          << "step " << step << " event " << which;
    } else if (which == 0) {
      // A DOWN that rejected an in-flight match leaves the table cleared.
      EXPECT_EQ(table->current().num_rows(), expected_rows)
          << "step " << step;
    }
    (void)outcomes;
  }
  EXPECT_GT(commits, 0u);  // random streams should commit at least once
}

INSTANTIATE_TEST_SUITE_P(Seeds, NfaProperties,
                         ::testing::Values(3, 7, 31, 127, 8191));

// --------------------------------------------------------------- wavelet

using WaveletProperties = SeededTest;

TEST_P(WaveletProperties, RoundTripEnergyAndMonotoneQuality) {
  Rng rng(seed());
  size_t n = static_cast<size_t>(rng.UniformInt(1, 300));
  std::vector<double> data;
  for (size_t i = 0; i < n; ++i) data.push_back(rng.Uniform(-100, 100));

  // Round trip.
  std::vector<double> coeffs = HaarForward(data);
  std::vector<double> back = HaarInverse(coeffs);
  for (size_t i = 0; i < n; ++i) EXPECT_NEAR(back[i], data[i], 1e-8);

  // Energy preservation (orthonormality); data is zero-padded so the
  // padded energy equals the original energy.
  double e1 = 0, e2 = 0;
  for (double v : data) e1 += v * v;
  for (double v : coeffs) e2 += v * v;
  EXPECT_NEAR(e1, e2, 1e-6 * std::max(1.0, e1));

  // Quality curve: monotone, ends at exactly 1.
  ProgressiveEncoding enc(data);
  std::vector<double> curve = enc.UtilityCurve();
  for (size_t k = 1; k < curve.size(); ++k) {
    EXPECT_GE(curve[k], curve[k - 1] - 1e-9);
  }
  EXPECT_NEAR(curve.back(), 1.0, 1e-9);

  // Full prefix decodes to the exact data.
  std::vector<double> full = enc.DecodePrefix(enc.num_coefficients());
  for (size_t i = 0; i < n; ++i) EXPECT_NEAR(full[i], data[i], 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WaveletProperties,
                         ::testing::Values(1, 9, 42, 1000, 31337));

// ------------------------------------------------------------------ cube

using CubeProperties = SeededTest;

TEST_P(CubeProperties, MatchesDirectScanForRandomSelections) {
  Rng rng(seed());
  Table fact(Schema({{"a", ValueType::kInt64},
                     {"b", ValueType::kInt64},
                     {"c", ValueType::kString},
                     {"m", ValueType::kDouble}}));
  size_t rows = static_cast<size_t>(rng.UniformInt(50, 400));
  const char* cats[] = {"x", "y", "z"};
  for (size_t i = 0; i < rows; ++i) {
    fact.AppendUnchecked({Value::Int(rng.UniformInt(0, 5)),
                          Value::Int(rng.UniformInt(0, 8)),
                          Value::String(cats[rng.UniformInt(0, 2)]),
                          Value::Double(rng.Uniform(0, 10))});
  }
  CrossfilterCube cube =
      CrossfilterCube::Build(fact, {"a", "b", "c"}, "m").value();

  for (int trial = 0; trial < 5; ++trial) {
    // Random selection on 'b'.
    ValueSet sel;
    for (int64_t v = 0; v <= 8; ++v) {
      if (rng.Bernoulli(0.4)) sel.insert(Value::Int(v));
    }
    Table filtered = cube.FilteredGroupSums("a", "b", sel).value();
    std::map<int64_t, double> direct;
    for (const Row& row : fact.rows()) {
      if (sel.count(row[1]) == 0) continue;
      direct[row[0].int_value()] += row[3].double_value();
    }
    for (const Row& row : filtered.rows()) {
      double expected = 0;
      auto it = direct.find(row[0].int_value());
      if (it != direct.end()) expected = it->second;
      EXPECT_NEAR(row[1].double_value(), expected,
                  1e-6 * std::max(1.0, std::abs(expected)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CubeProperties,
                         ::testing::Values(4, 16, 64, 256));

// --------------------------------------------------------- adopted views

using AdoptedViewProperties = SeededTest;

/// Random F(s, y, k, m) rows: NULL keys and measures, zero and negative
/// measures in quarter steps (every sum is exact in any addition order),
/// rare groups that often have all-NULL measures, and a key `k` mixing
/// the int and double images of one year.
std::vector<Row> RandomFacts(Rng* rng, size_t n) {
  const char* regions[] = {"a", "b", "c", "z"};
  std::vector<Row> rows;
  for (size_t i = 0; i < n; ++i) {
    Value s = Value::Null();
    if (!rng->Bernoulli(0.1)) {
      s = Value::String(
          regions[rng->Bernoulli(0.05) ? 3 : rng->UniformInt(0, 2)]);
    }
    Value y = rng->Bernoulli(0.1) ? Value::Null()
                                  : Value::Int(rng->UniformInt(1995, 1998));
    Value k = Value::Null();
    if (!rng->Bernoulli(0.1)) {
      int64_t year = rng->Bernoulli(0.05) ? 1994 : rng->UniformInt(1995, 1998);
      k = rng->Bernoulli(0.5) ? Value::Int(year)
                              : Value::Double(static_cast<double>(year));
    }
    Value m = Value::Null();
    switch (rng->UniformInt(0, 3)) {
      case 0:
        break;
      case 1:
        m = Value::Double(0.0);
        break;
      default:
        m = Value::Double(static_cast<double>(rng->UniformInt(-40, 40)) * 0.25);
        break;
    }
    rows.push_back({s, y, k, m});
  }
  return rows;
}

/// A year selection: sometimes empty, sometimes holding NULL, with int and
/// double images of one year side by side.
std::vector<Row> RandomYears(Rng* rng) {
  std::vector<Row> rows;
  if (rng->Bernoulli(0.15)) return rows;
  for (int64_t y = 1993; y <= 1999; ++y) {
    if (!rng->Bernoulli(0.4)) continue;
    rows.push_back({rng->Bernoulli(0.5)
                        ? Value::Int(y)
                        : Value::Double(static_cast<double>(y))});
    if (rng->Bernoulli(0.2)) {
      rows.push_back({Value::Double(static_cast<double>(y))});
    }
  }
  if (rng->Bernoulli(0.3)) rows.push_back({Value::Null()});
  return rows;
}

std::vector<Row> RandomRegions(Rng* rng) {
  std::vector<Row> rows;
  if (rng->Bernoulli(0.15)) return rows;
  for (const char* r : {"a", "b", "c", "z", "q"}) {
    if (rng->Bernoulli(0.4)) rows.push_back({Value::String(r)});
  }
  if (rng->Bernoulli(0.3)) rows.push_back({Value::Null()});
  return rows;
}

/// Same rows in the same order: keys and NULLs exactly (value and type),
/// doubles within 1e-9 relative.
void ExpectSameView(const Table& cube, const Table& scan,
                    const std::string& view) {
  ASSERT_EQ(cube.num_rows(), scan.num_rows())
      << view << "\ncube:\n" << cube.ToString() << "scan:\n" << scan.ToString();
  for (size_t i = 0; i < scan.num_rows(); ++i) {
    for (size_t c = 0; c < 2; ++c) {
      const Value& a = cube.row(i)[c];
      const Value& b = scan.row(i)[c];
      ASSERT_EQ(a.type(), b.type())
          << view << " row " << i << " col " << c << ": " << a.ToString()
          << " vs " << b.ToString();
      if (b.type() == ValueType::kDouble) {
        double x = a.double_value();
        double y = b.double_value();
        EXPECT_LE(std::abs(x - y),
                  1e-9 * std::max({1.0, std::abs(x), std::abs(y)}))
            << view << " row " << i << " col " << c;
      } else {
        EXPECT_TRUE(a.Equals(b)) << view << " row " << i << " col " << c
                                 << ": " << a.ToString() << " vs "
                                 << b.ToString();
      }
    }
  }
}

TEST_P(AdoptedViewProperties, AdoptedViewEqualsRecompute) {
  // Every adoptable shape, in both output column orders: 2-D filtered,
  // totals, and self-filtered (WHERE g IN sel GROUP BY g).
  const std::vector<std::pair<std::string, std::string>> views = {
      {"f_s_y", "SELECT s, SUM(m) AS t FROM F WHERE y IN seln GROUP BY s"},
      {"f_k_s", "SELECT SUM(m) AS t, k FROM F WHERE s IN sels GROUP BY k"},
      {"f_s_k", "SELECT SUM(m) AS t, s FROM F WHERE k IN seln GROUP BY s"},
      {"f_y_k", "SELECT y, SUM(m) AS t FROM F WHERE k IN seln GROUP BY y"},
      {"t_s", "SELECT s, SUM(m) AS t FROM F GROUP BY s"},
      {"t_k", "SELECT SUM(m) AS t, k FROM F GROUP BY k"},
      {"g_y", "SELECT y, SUM(m) AS t FROM F WHERE y IN seln GROUP BY y"},
      {"g_k", "SELECT SUM(m) AS t, k FROM F WHERE k IN seln GROUP BY k"},
      {"g_s", "SELECT s, SUM(m) AS t FROM F WHERE s IN sels GROUP BY s"},
  };
  std::string program;
  for (const auto& [name, sql] : views) program += name + " = " + sql + ";\n";

  Rng rng(seed());
  std::vector<Row> facts =
      RandomFacts(&rng, static_cast<size_t>(rng.UniformInt(20, 150)));
  std::vector<std::unique_ptr<Dvms>> engines;  // [0] cube, [1] recompute
  for (bool optimize : {true, false}) {
    Dvms::Options options;
    options.auto_render = false;
    options.enable_online_optimizer = optimize;
    auto engine = std::make_unique<Dvms>(options);
    ASSERT_TRUE(engine
                    ->CreateBaseTable("F", Schema({{"s", ValueType::kString},
                                                   {"y", ValueType::kInt64},
                                                   {"k", ValueType::kDouble},
                                                   {"m", ValueType::kDouble}}))
                    .ok());
    ASSERT_TRUE(engine->Insert("F", facts).ok());
    ASSERT_TRUE(engine
                    ->CreateBaseTable("seln",
                                      Schema({{"v", ValueType::kDouble}}))
                    .ok());
    ASSERT_TRUE(engine
                    ->CreateBaseTable("sels",
                                      Schema({{"v", ValueType::kString}}))
                    .ok());
    ASSERT_TRUE(engine->LoadProgram(program).ok());
    engines.push_back(std::move(engine));
  }
  for (const auto& [name, sql] : views) {
    EXPECT_TRUE(engines[0]->optimizer().IsAdopted(name)) << name;
  }

  for (int round = 0; round < 8; ++round) {
    // Mostly new selections; now and then more facts (the cubes rebuild).
    std::vector<Row> years = RandomYears(&rng);
    std::vector<Row> regions = RandomRegions(&rng);
    std::vector<Row> more;
    if (rng.Bernoulli(0.25)) {
      more = RandomFacts(&rng, static_cast<size_t>(rng.UniformInt(1, 10)));
    }
    for (auto& engine : engines) {
      ASSERT_TRUE(engine->Delete("seln", nullptr).ok());
      ASSERT_TRUE(engine->Insert("seln", years).ok());
      ASSERT_TRUE(engine->Delete("sels", nullptr).ok());
      ASSERT_TRUE(engine->Insert("sels", regions).ok());
      if (!more.empty()) {
        ASSERT_TRUE(engine->Insert("F", more).ok());
      }
    }
    for (const auto& [name, sql] : views) {
      ExpectSameView(*engines[0]->GetTable(name).value(),
                     *engines[1]->GetTable(name).value(),
                     name + " round " + std::to_string(round));
    }
  }
  EXPECT_GT(engines[0]->optimizer().hits(), 0u);
  EXPECT_EQ(engines[1]->optimizer().hits(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdoptedViewProperties,
                         ::testing::Values(3, 17, 101, 2024, 65537));

// ------------------------------------------------------------- cc policy

using PolicyProperties = SeededTest;

TEST_P(PolicyProperties, RenderedPlusDroppedAccountsForAllResponses) {
  Rng rng(seed());
  for (CcPolicy policy : AllCcPolicies()) {
    ResponseCoordinator coordinator(policy);
    const size_t n = 30;
    for (size_t i = 0; i < n; ++i) coordinator.OnRequest(i);
    // Random arrival order.
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i) order[i] = i;
    for (size_t i = n - 1; i > 0; --i) {
      std::swap(order[i],
                order[static_cast<size_t>(rng.UniformInt(0, (int64_t)i))]);
    }
    std::vector<size_t> rendered;
    for (size_t id : order) {
      for (size_t r : coordinator.OnResponse(id)) rendered.push_back(r);
    }
    EXPECT_EQ(coordinator.rendered_count() + coordinator.dropped_count(), n)
        << CcPolicyToString(policy);
    EXPECT_EQ(rendered.size(), coordinator.rendered_count());
    switch (policy) {
      case CcPolicy::kNoCC:
      case CcPolicy::kMvcc:
        EXPECT_EQ(rendered.size(), n);
        break;
      case CcPolicy::kSerial: {
        // Everything renders, in exact request order.
        ASSERT_EQ(rendered.size(), n);
        for (size_t i = 0; i < n; ++i) EXPECT_EQ(rendered[i], i);
        break;
      }
      case CcPolicy::kDiscard: {
        // Rendered ids strictly increase.
        for (size_t i = 1; i < rendered.size(); ++i) {
          EXPECT_LT(rendered[i - 1], rendered[i]);
        }
        break;
      }
      case CcPolicy::kMostRecent:
        ASSERT_EQ(rendered.size(), 1u);
        EXPECT_EQ(rendered[0], n - 1);
        break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PolicyProperties,
                         ::testing::Values(2, 12, 92, 365));

}  // namespace
}  // namespace dvms
