#include "core/dvms.h"
#include "query/optimizer.h"
#include "workload/tpch.h"
#include "gtest/gtest.h"

namespace dvms {
namespace {

class OptimizerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Dvms::Options options;
    options.auto_render = false;
    engine_ = std::make_unique<Dvms>(options);
    TpchConfig config;
    config.num_rows = 3000;
    Table fact = GenerateTpchSales(config);
    ASSERT_TRUE(engine_->CreateBaseTable("Sales", fact.schema()).ok());
    ASSERT_TRUE(engine_->Insert("Sales", fact.rows()).ok());
    ASSERT_TRUE(engine_
                    ->CreateBaseTable("selected_years",
                                      Schema({{"year", ValueType::kInt64}}))
                    .ok());
  }

  void SelectYears(std::vector<int64_t> years) {
    ASSERT_TRUE(engine_->Delete("selected_years", nullptr).ok());
    std::vector<Row> rows;
    for (int64_t y : years) rows.push_back({Value::Int(y)});
    ASSERT_TRUE(engine_->Insert("selected_years", std::move(rows)).ok());
  }

  /// Reference result computed with the optimizer bypassed (ad-hoc query).
  Table Reference(const std::string& sql) { return engine_->Query(sql).value(); }

  std::unique_ptr<Dvms> engine_;
};

TEST_F(OptimizerTest, AdoptsCrossfilterShapedViews) {
  ASSERT_TRUE(engine_
                  ->LoadProgram(
                      "by_region = SELECT region, SUM(revenue) AS revenue "
                      "FROM Sales WHERE year IN selected_years GROUP BY region;"
                      "totals = SELECT region, SUM(revenue) AS revenue "
                      "FROM Sales GROUP BY region;")
                  .ok());
  EXPECT_TRUE(engine_->optimizer().IsAdopted("by_region"));
  EXPECT_TRUE(engine_->optimizer().IsAdopted("totals"));
}

TEST_F(OptimizerTest, DoesNotAdoptOtherShapes) {
  ASSERT_TRUE(engine_
                  ->LoadProgram(
                      // Two aggregates.
                      "v1 = SELECT region, SUM(revenue) AS r, COUNT(*) AS n "
                      "FROM Sales GROUP BY region;"
                      // NOT IN filter.
                      "v2 = SELECT region, SUM(revenue) AS r FROM Sales "
                      "WHERE year NOT IN selected_years GROUP BY region;"
                      // Non-sum aggregate.
                      "v3 = SELECT region, MAX(revenue) AS r FROM Sales "
                      "GROUP BY region;"
                      // Plain projection.
                      "v4 = SELECT region FROM Sales;")
                  .ok());
  EXPECT_FALSE(engine_->optimizer().IsAdopted("v1"));
  EXPECT_FALSE(engine_->optimizer().IsAdopted("v2"));
  EXPECT_FALSE(engine_->optimizer().IsAdopted("v3"));
  EXPECT_FALSE(engine_->optimizer().IsAdopted("v4"));
}

TEST_F(OptimizerTest, AdoptedViewMatchesScanBasedResult) {
  ASSERT_TRUE(engine_
                  ->LoadProgram(
                      "by_region = SELECT region, SUM(revenue) AS revenue "
                      "FROM Sales WHERE year IN selected_years GROUP BY region;")
                  .ok());
  SelectYears({1997, 1998});
  ASSERT_GT(engine_->optimizer().hits(), 0u);

  const Table* optimized = engine_->GetTable("by_region").value();
  Table reference = Reference(
      "SELECT region, SUM(revenue) AS revenue FROM Sales "
      "WHERE year IN selected_years GROUP BY region");
  ASSERT_EQ(optimized->num_rows(), reference.num_rows());
  for (size_t i = 0; i < reference.num_rows(); ++i) {
    EXPECT_TRUE(optimized->row(i)[0].Equals(reference.row(i)[0]));
    EXPECT_NEAR(optimized->row(i)[1].double_value(),
                reference.row(i)[1].double_value(),
                1e-6 * std::abs(reference.row(i)[1].double_value()) + 1e-9);
  }
}

TEST_F(OptimizerTest, TotalsViewMatchesScanBasedResult) {
  ASSERT_TRUE(engine_
                  ->LoadProgram(
                      "totals = SELECT month, SUM(revenue) AS revenue "
                      "FROM Sales GROUP BY month;")
                  .ok());
  const Table* optimized = engine_->GetTable("totals").value();
  Table reference = Reference(
      "SELECT month, SUM(revenue) AS revenue FROM Sales GROUP BY month");
  ASSERT_EQ(optimized->num_rows(), 12u);
  for (size_t i = 0; i < reference.num_rows(); ++i) {
    EXPECT_NEAR(optimized->row(i)[1].double_value(),
                reference.row(i)[1].double_value(),
                1e-6 * std::abs(reference.row(i)[1].double_value()));
  }
}

TEST_F(OptimizerTest, FactChangeInvalidatesCube) {
  ASSERT_TRUE(engine_
                  ->LoadProgram(
                      "by_region = SELECT region, SUM(revenue) AS revenue "
                      "FROM Sales WHERE year IN selected_years GROUP BY region;")
                  .ok());
  SelectYears({1997});
  size_t builds_before = engine_->optimizer().cube_builds();

  // Selection changes reuse the cube.
  SelectYears({1998});
  EXPECT_EQ(engine_->optimizer().cube_builds(), builds_before);

  // A fact insert invalidates it; the next refresh rebuilds and reflects
  // the new row.
  ASSERT_TRUE(engine_
                  ->Insert("Sales", {{Value::Int(999999),
                                      Value::String("ASIA"), Value::Int(1998),
                                      Value::Int(6), Value::Int(3),
                                      Value::Double(1),
                                      Value::Double(12345.0)}})
                  .ok());
  EXPECT_GT(engine_->optimizer().cube_builds(), builds_before);
  const Table* optimized = engine_->GetTable("by_region").value();
  Table reference = Reference(
      "SELECT region, SUM(revenue) AS revenue FROM Sales "
      "WHERE year IN selected_years GROUP BY region");
  ASSERT_EQ(optimized->num_rows(), reference.num_rows());
  for (size_t i = 0; i < reference.num_rows(); ++i) {
    EXPECT_NEAR(optimized->row(i)[1].double_value(),
                reference.row(i)[1].double_value(),
                1e-6 * std::abs(reference.row(i)[1].double_value()));
  }
}

TEST_F(OptimizerTest, CubesSharedAcrossViews) {
  ASSERT_TRUE(engine_
                  ->LoadProgram(
                      "filtered = SELECT region, SUM(revenue) AS revenue "
                      "FROM Sales WHERE year IN selected_years GROUP BY region;"
                      "totals = SELECT region, SUM(revenue) AS revenue "
                      "FROM Sales GROUP BY region;")
                  .ok());
  SelectYears({1995});
  // Both views refresh from the same (Sales, revenue, region, year)
  // marginal... totals uses (region, <other>) which may differ; at most 2.
  EXPECT_LE(engine_->optimizer().cube_count(), 2u);
}

TEST_F(OptimizerTest, AdoptsSelfFilteredViewSharingTotalsCube) {
  ASSERT_TRUE(engine_
                  ->LoadProgram(
                      "rev_year = SELECT year, SUM(revenue) AS revenue "
                      "FROM Sales GROUP BY year;"
                      "rev_year_f = SELECT year, SUM(revenue) AS revenue "
                      "FROM Sales WHERE year IN selected_years GROUP BY year;")
                  .ok());
  EXPECT_TRUE(engine_->optimizer().IsAdopted("rev_year_f"));
  SelectYears({1993, 1997, 2050});
  // Both views read the one 1-D marginal of year.
  EXPECT_EQ(engine_->optimizer().cube_count(), 1u);
  Table reference = Reference(
      "SELECT year, SUM(revenue) AS revenue FROM Sales "
      "WHERE year IN selected_years GROUP BY year");
  const Table* optimized = engine_->GetTable("rev_year_f").value();
  ASSERT_EQ(reference.num_rows(), 2u);
  ASSERT_EQ(optimized->num_rows(), reference.num_rows());
  for (size_t i = 0; i < reference.num_rows(); ++i) {
    EXPECT_TRUE(optimized->row(i)[0].Equals(reference.row(i)[0]));
    EXPECT_NEAR(optimized->row(i)[1].double_value(),
                reference.row(i)[1].double_value(),
                1e-9 * std::abs(reference.row(i)[1].double_value()));
  }
}

// A cube-served view returns the scan's groups: a group whose selected
// sum is 0.0 stays, and a group whose selected measures are all NULL
// stays with a NULL sum.
TEST(OptimizerGroupSetTest, CubeServedViewsKeepScanGroupsAndNulls) {
  Dvms::Options options;
  options.auto_render = false;
  Dvms engine(options);
  ASSERT_TRUE(engine
                  .CreateBaseTable("F", Schema({{"region", ValueType::kString},
                                                {"year", ValueType::kInt64},
                                                {"revenue",
                                                 ValueType::kDouble}}))
                  .ok());
  ASSERT_TRUE(engine
                  .Insert("F", {{Value::String("A"), Value::Int(1997),
                                 Value::Double(5.0)},
                                {Value::String("B"), Value::Int(1997),
                                 Value::Double(0.0)},
                                {Value::String("C"), Value::Int(1997),
                                 Value::Null()},
                                {Value::String("D"), Value::Int(1997),
                                 Value::Double(2.0)},
                                {Value::String("D"), Value::Int(1997),
                                 Value::Double(-2.0)},
                                {Value::String("E"), Value::Int(1990),
                                 Value::Double(1.0)}})
                  .ok());
  ASSERT_TRUE(
      engine.CreateBaseTable("sel", Schema({{"year", ValueType::kInt64}}))
          .ok());
  ASSERT_TRUE(engine.Insert("sel", {{Value::Int(1997)}}).ok());
  const char* kFiltered =
      "SELECT region, SUM(revenue) AS revenue FROM F "
      "WHERE year IN sel GROUP BY region";
  const char* kTotals =
      "SELECT region, SUM(revenue) AS revenue FROM F GROUP BY region";
  ASSERT_TRUE(engine
                  .LoadProgram(std::string("filtered = ") + kFiltered +
                               ";\ntotals = " + kTotals + ";")
                  .ok());
  ASSERT_TRUE(engine.optimizer().IsAdopted("filtered"));
  ASSERT_TRUE(engine.optimizer().IsAdopted("totals"));
  size_t hits_before = engine.optimizer().hits();
  ASSERT_TRUE(engine.Insert("sel", {{Value::Int(2050)}}).ok());
  ASSERT_GT(engine.optimizer().hits(), hits_before);

  Table scan = engine.Query(kFiltered).value();
  ASSERT_EQ(scan.num_rows(), 4u);  // A 5.0, B 0.0, C NULL, D 0.0
  EXPECT_TRUE(scan.row(2)[1].is_null());
  EXPECT_TRUE(engine.GetTable("filtered").value()->SameContents(scan))
      << engine.GetTable("filtered").value()->ToString() << scan.ToString();

  Table totals = engine.Query(kTotals).value();
  ASSERT_EQ(totals.num_rows(), 5u);
  EXPECT_TRUE(engine.GetTable("totals").value()->SameContents(totals))
      << engine.GetTable("totals").value()->ToString() << totals.ToString();
}

TEST_F(OptimizerTest, DisabledWhenLineageCaptureOn) {
  Dvms::Options options;
  options.auto_render = false;
  options.capture_lineage = true;
  Dvms engine(options);
  TpchConfig config;
  config.num_rows = 100;
  Table fact = GenerateTpchSales(config);
  ASSERT_TRUE(engine.CreateBaseTable("Sales", fact.schema()).ok());
  ASSERT_TRUE(engine.Insert("Sales", fact.rows()).ok());
  ASSERT_TRUE(engine
                  .LoadProgram(
                      "totals = SELECT region, SUM(revenue) AS revenue "
                      "FROM Sales GROUP BY region;")
                  .ok());
  // The view computes through the executor, so lineage is available.
  EXPECT_TRUE(engine.maintainer()->LastResult("totals").ok());
  EXPECT_EQ(engine.optimizer().hits(), 0u);
}

TEST_F(OptimizerTest, RedefinitionUnadopts) {
  ASSERT_TRUE(engine_
                  ->LoadProgram(
                      "v = SELECT region, SUM(revenue) AS revenue "
                      "FROM Sales GROUP BY region;")
                  .ok());
  EXPECT_TRUE(engine_->optimizer().IsAdopted("v"));
  // Redefine to a non-matching shape (same schema, different plan).
  ASSERT_TRUE(engine_
                  ->LoadProgram(
                      "v = SELECT region, MIN(revenue) AS revenue "
                      "FROM Sales GROUP BY region;")
                  .ok());
  EXPECT_FALSE(engine_->optimizer().IsAdopted("v"));
  // And the contents follow the new definition.
  Table reference = Reference(
      "SELECT region, MIN(revenue) AS revenue FROM Sales GROUP BY region");
  EXPECT_TRUE(engine_->GetTable("v").value()->SameContents(reference));
}

}  // namespace
}  // namespace dvms
