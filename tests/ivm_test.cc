#include "query/ivm.h"
#include "workload/tpch.h"
#include "gtest/gtest.h"

namespace dvms {
namespace {

class CrossfilterCubeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TpchConfig config;
    config.num_rows = 2000;
    config.seed = 7;
    fact_ = GenerateTpchSales(config);
    cube_ = std::make_unique<CrossfilterCube>(
        CrossfilterCube::Build(fact_, {"region", "year", "month", "dow"},
                               "revenue")
            .value());
  }

  /// Reference: direct scan-based group-by-sum with an optional filter.
  std::map<std::string, double> DirectSums(const std::string& dim,
                                           const std::string& filter_dim,
                                           const ValueSet* filter) {
    std::map<std::string, double> out;
    size_t d = fact_.schema().IndexOf(dim).value();
    size_t f = filter == nullptr
                   ? 0
                   : fact_.schema().IndexOf(filter_dim).value();
    size_t m = fact_.schema().IndexOf("revenue").value();
    for (const Row& row : fact_.rows()) {
      if (filter != nullptr && filter->count(row[f]) == 0) continue;
      out[row[d].ToString()] += row[m].double_value();
    }
    return out;
  }

  Table fact_;
  std::unique_ptr<CrossfilterCube> cube_;
};

TEST_F(CrossfilterCubeTest, TotalsMatchDirectScan) {
  Table totals = cube_->GroupTotals("region").value();
  auto direct = DirectSums("region", "", nullptr);
  ASSERT_EQ(totals.num_rows(), direct.size());
  for (const Row& row : totals.rows()) {
    EXPECT_NEAR(row[1].double_value(), direct[row[0].ToString()], 1e-6);
  }
}

TEST_F(CrossfilterCubeTest, FilteredSumsMatchDirectScan) {
  // Filter years to {1997, 1998} — the Figure 1 selection.
  ValueSet years;
  years.insert(Value::Int(1997));
  years.insert(Value::Int(1998));
  Table filtered = cube_->FilteredGroupSums("region", "year", years).value();
  auto direct = DirectSums("region", "year", &years);
  ASSERT_EQ(filtered.num_rows(), 5u);
  for (const Row& row : filtered.rows()) {
    EXPECT_NEAR(row[1].double_value(), direct[row[0].ToString()], 1e-6);
  }
}

TEST_F(CrossfilterCubeTest, EverySelectedValueSumsToTotal) {
  // Selecting every filter value reproduces the unfiltered totals.
  ValueSet all;
  for (int y = 1992; y <= 1998; ++y) all.insert(Value::Int(y));
  Table filtered = cube_->FilteredGroupSums("month", "year", all).value();
  Table totals = cube_->GroupTotals("month").value();
  ASSERT_EQ(filtered.num_rows(), totals.num_rows());
  for (size_t i = 0; i < filtered.num_rows(); ++i) {
    EXPECT_NEAR(filtered.row(i)[1].double_value(),
                totals.row(i)[1].double_value(), 1e-6);
  }
}

TEST_F(CrossfilterCubeTest, EmptySelectionYieldsZeros) {
  ValueSet none;
  Table filtered = cube_->FilteredGroupSums("region", "year", none).value();
  for (const Row& row : filtered.rows()) {
    EXPECT_DOUBLE_EQ(row[1].double_value(), 0.0);
  }
}

TEST_F(CrossfilterCubeTest, SameDimensionRejected) {
  ValueSet v;
  EXPECT_FALSE(cube_->FilteredGroupSums("year", "year", v).ok());
  EXPECT_FALSE(cube_->FilteredGroupSums("nope", "year", v).ok());
  EXPECT_FALSE(cube_->GroupTotals("nope").ok());
}

TEST_F(CrossfilterCubeTest, UpdateFoldsDeltaRows) {
  Table delta(fact_.schema());
  delta.AppendUnchecked({Value::Int(999999), Value::String("ASIA"),
                         Value::Int(1997), Value::Int(6), Value::Int(3),
                         Value::Double(1), Value::Double(1000.0)});
  Table before = cube_->GroupTotals("region").value();
  ASSERT_TRUE(cube_->Update(delta).ok());
  Table after = cube_->GroupTotals("region").value();
  size_t asia = 0;
  for (size_t i = 0; i < after.num_rows(); ++i) {
    if (after.row(i)[0].string_value() == "ASIA") asia = i;
  }
  EXPECT_NEAR(after.row(asia)[1].double_value(),
              before.row(asia)[1].double_value() + 1000.0, 1e-6);
}

TEST_F(CrossfilterCubeTest, BuildNeedsOneKnownDim) {
  // One dimension builds the 1-D marginal: totals equal to a scan.
  CrossfilterCube one =
      CrossfilterCube::Build(fact_, {"region"}, "revenue").value();
  Table totals = one.GroupTotals("region").value();
  auto direct = DirectSums("region", "", nullptr);
  ASSERT_EQ(totals.num_rows(), direct.size());
  for (const Row& row : totals.rows()) {
    EXPECT_NEAR(row[1].double_value(), direct[row[0].ToString()], 1e-6);
  }
  // It has no pair to filter by another dimension.
  ValueSet years;
  years.insert(Value::Int(1997));
  EXPECT_FALSE(one.FilteredGroupSums("region", "year", years).ok());
  // Zero dimensions and unknown columns are rejected.
  EXPECT_FALSE(CrossfilterCube::Build(fact_, {}, "revenue").ok());
  EXPECT_FALSE(CrossfilterCube::Build(fact_, {"nope"}, "revenue").ok());
  EXPECT_FALSE(
      CrossfilterCube::Build(fact_, {"region", "nope"}, "revenue").ok());
  EXPECT_FALSE(CrossfilterCube::Build(fact_, {"region"}, "nope").ok());
}

TEST_F(CrossfilterCubeTest, ViewSumsSelectGroupsFromOneDim) {
  CrossfilterCube one =
      CrossfilterCube::Build(fact_, {"year"}, "revenue").value();
  ValueSet years;
  years.insert(Value::Int(1997));
  years.insert(Value::Double(1993.0));  // matches the int key 1993
  years.insert(Value::Int(2050));       // no facts: no row
  Table sums = one.ViewSums("year", "year", &years).value();
  auto direct = DirectSums("year", "year", &years);
  ASSERT_EQ(sums.num_rows(), 2u);
  EXPECT_EQ(sums.row(0)[0].type(), ValueType::kInt64);  // the fact's key
  EXPECT_EQ(sums.row(0)[0].int_value(), 1993);
  EXPECT_EQ(sums.row(1)[0].int_value(), 1997);
  for (const Row& row : sums.rows()) {
    EXPECT_NEAR(row[1].double_value(), direct[row[0].ToString()], 1e-6);
  }
}

TEST(TpchGeneratorTest, DeterministicAndShaped) {
  TpchConfig config;
  config.num_rows = 500;
  Table a = GenerateTpchSales(config);
  Table b = GenerateTpchSales(config);
  EXPECT_TRUE(a.SameContents(b));
  EXPECT_EQ(a.num_rows(), 500u);
  // Values within the documented domains.
  size_t year = a.schema().IndexOf("year").value();
  size_t month = a.schema().IndexOf("month").value();
  size_t revenue = a.schema().IndexOf("revenue").value();
  for (const Row& row : a.rows()) {
    EXPECT_GE(row[year].int_value(), 1992);
    EXPECT_LE(row[year].int_value(), 1998);
    EXPECT_GE(row[month].int_value(), 1);
    EXPECT_LE(row[month].int_value(), 12);
    EXPECT_GT(row[revenue].double_value(), 0);
  }
}

TEST(TpchGeneratorTest, AllRegionsPresent) {
  TpchConfig config;
  config.num_rows = 2000;
  Table t = GenerateTpchSales(config);
  size_t region = t.schema().IndexOf("region").value();
  std::set<std::string> seen;
  for (const Row& row : t.rows()) seen.insert(row[region].string_value());
  EXPECT_EQ(seen.size(), TpchRegions().size());
}

}  // namespace
}  // namespace dvms
