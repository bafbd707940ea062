// Interplay of engine features: undo/redo over optimizer-adopted views,
// rendering correctness after history navigation, and undo over relation
// images shared by versions, undo entries and pinned sessions.

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>

#include "core/dvms.h"
#include "core/session.h"
#include "parser/parser.h"
#include "workload/tpch.h"
#include "gtest/gtest.h"

namespace dvms {
namespace {

/// Row contents with doubles as raw bit patterns, in row order.
std::string Bits(const Table& t) {
  std::ostringstream out;
  for (const Row& row : t.rows()) {
    for (const Value& v : row) {
      if (v.type() == ValueType::kDouble) {
        double d = v.double_value();
        uint64_t bits;
        std::memcpy(&bits, &d, sizeof(bits));
        out << "d" << bits;
      } else {
        out << v.ToString();
      }
      out << '|';
    }
    out << '\n';
  }
  return out.str();
}

TEST(UndoOptimizerTest, UndoRestoresAdoptedViewContents) {
  Dvms::Options options;
  options.auto_render = false;
  Dvms engine(options);
  TpchConfig config;
  config.num_rows = 500;
  Table fact = GenerateTpchSales(config);
  ASSERT_TRUE(engine.CreateBaseTable("Sales", fact.schema()).ok());
  ASSERT_TRUE(engine.Insert("Sales", fact.rows()).ok());

  const char* program = R"(
    C = EVENT MOUSE_DOWN AS D, MOUSE_UP AS U RETURN (D.t, D.x, D.y);
    sel_years = SELECT 1992 + 0 * x AS year FROM C;
    by_region = SELECT region, SUM(revenue) AS revenue FROM Sales
                WHERE year IN sel_years GROUP BY region;
  )";
  ASSERT_TRUE(engine.LoadProgram(program).ok());
  ASSERT_TRUE(engine.optimizer().IsAdopted("by_region"));
  EXPECT_EQ(engine.GetTable("by_region").value()->num_rows(), 0u);

  // A click selects 1992; the adopted view fills.
  ASSERT_TRUE(engine.PushEvent(InputEvent::MouseDown(0, 1, 1)).ok());
  ASSERT_TRUE(engine.PushEvent(InputEvent::MouseUp(1, 1, 1)).ok());
  size_t filled = engine.GetTable("by_region").value()->num_rows();
  EXPECT_GT(filled, 0u);

  // Undo rolls the event table back; the adopted view follows.
  ASSERT_TRUE(engine.Undo().ok());
  EXPECT_EQ(engine.GetTable("by_region").value()->num_rows(), 0u);
  ASSERT_TRUE(engine.Redo().ok());
  EXPECT_EQ(engine.GetTable("by_region").value()->num_rows(), filled);
}

TEST(UndoOptimizerTest, RenderReflectsUndo) {
  Dvms::Options options;
  options.canvas_width = 60;
  options.canvas_height = 60;
  Dvms engine(options);
  ASSERT_TRUE(engine
                  .CreateBaseTable("Items", Schema({{"id", ValueType::kInt64},
                                                    {"v", ValueType::kDouble}}))
                  .ok());
  ASSERT_TRUE(engine.Insert("Items", {{Value::Int(1), Value::Double(30)}}).ok());
  const char* program = R"(
    C = EVENT MOUSE_DOWN AS D, MOUSE_UP AS U RETURN (D.t, D.x, D.y);
    DOTS = SELECT 5 AS radius, v AS center_x, v AS center_y,
        if(COUNT_HITS.n > 0, 'red', 'blue') AS fill
      FROM Items, COUNT_HITS;
    COUNT_HITS = SELECT COUNT(*) AS n FROM C;
    P = render(SELECT radius, center_x, center_y, fill FROM DOTS);
  )";
  // COUNT_HITS is defined after DOTS uses it; define in the right order
  // instead.
  const char* ordered = R"(
    C = EVENT MOUSE_DOWN AS D, MOUSE_UP AS U RETURN (D.t, D.x, D.y);
    COUNT_HITS = SELECT COUNT(*) AS n FROM C;
    DOTS = SELECT 5 AS radius, v AS center_x, v AS center_y,
        if(COUNT_HITS.n > 0, 'red', 'blue') AS fill
      FROM Items, COUNT_HITS;
    P = render(SELECT radius, center_x, center_y, fill FROM DOTS);
  )";
  // Forward references are a bind error (statements execute in order).
  {
    Dvms scratch(options);
    ASSERT_TRUE(scratch
                    .CreateBaseTable("Items",
                                     Schema({{"id", ValueType::kInt64},
                                             {"v", ValueType::kDouble}}))
                    .ok());
    EXPECT_FALSE(scratch.LoadProgram(program).ok());
  }
  ASSERT_TRUE(engine.LoadProgram(ordered).ok());

  RGBA blue = ParseColor("blue").value();
  RGBA red = ParseColor("red").value();
  EXPECT_EQ(engine.pixels().At(30, 30), blue);

  ASSERT_TRUE(engine.PushEvent(InputEvent::MouseDown(0, 1, 1)).ok());
  ASSERT_TRUE(engine.PushEvent(InputEvent::MouseUp(1, 1, 1)).ok());
  EXPECT_EQ(engine.pixels().At(30, 30), red);

  ASSERT_TRUE(engine.Undo().ok());
  EXPECT_EQ(engine.pixels().At(30, 30), blue);
  ASSERT_TRUE(engine.Redo().ok());
  EXPECT_EQ(engine.pixels().At(30, 30), red);
}

TEST(UndoOptimizerTest, DeleteLeavesSharedImageIntact) {
  // Sales never changes across the load commit and one gesture, so its
  // working state, @vnow-1, @vnow-2 and both undo entries are one shared
  // image, also held by a pinned session. A Delete replaces the working
  // state and must leave all of them untouched; Undo then restores the
  // pre-delete rows bit-identically.
  Dvms::Options options;
  options.auto_render = false;
  Dvms engine(options);
  TpchConfig config;
  config.num_rows = 500;
  Table fact = GenerateTpchSales(config);
  ASSERT_TRUE(engine.CreateBaseTable("Sales", fact.schema()).ok());
  ASSERT_TRUE(engine.Insert("Sales", fact.rows()).ok());
  ASSERT_TRUE(engine
                  .LoadProgram(R"(
    C = EVENT MOUSE_DOWN AS D, MOUSE_UP AS U RETURN (D.t, D.x, D.y);
    by_region = SELECT region, SUM(revenue) AS revenue FROM Sales
                GROUP BY region;
  )")
                  .ok());
  ASSERT_TRUE(engine.PushEvent(InputEvent::MouseDown(0, 1, 1)).ok());
  ASSERT_TRUE(engine.PushEvent(InputEvent::MouseUp(1, 1, 1)).ok());

  const VersionedTable* sales = engine.catalog()->Get("Sales").value();
  const TablePtr image = sales->Version(0).value();
  ASSERT_EQ(sales->Version(1).value(), image);
  ASSERT_EQ(sales->Version(2).value(), image);
  const std::string before = Bits(*image);
  Session pinned(&engine);
  ASSERT_TRUE(pinned.Pin().ok());
  auto pinned_before = pinned.Query("SELECT * FROM Sales");
  ASSERT_TRUE(pinned_before.ok());
  ASSERT_EQ(Bits(pinned_before.value()), before);

  auto removed = engine.Delete("Sales", ParseExpression("year = 1992").value());
  ASSERT_TRUE(removed.ok()) << removed.status().message();
  ASSERT_GT(removed.value(), 0u);
  EXPECT_EQ(engine.GetTable("Sales").value()->num_rows(),
            image->num_rows() - removed.value());
  EXPECT_EQ(Bits(*image), before);
  EXPECT_EQ(sales->Version(1).value(), image);
  auto vnow1 = engine.Query("SELECT * FROM Sales@vnow-1");
  ASSERT_TRUE(vnow1.ok()) << vnow1.status().message();
  EXPECT_EQ(Bits(vnow1.value()), before);
  auto pinned_after = pinned.Query("SELECT * FROM Sales");
  ASSERT_TRUE(pinned_after.ok());
  EXPECT_EQ(Bits(pinned_after.value()), before);

  // The previous undo entry is the same image: Undo brings it back.
  ASSERT_TRUE(engine.Undo().ok());
  EXPECT_EQ(Bits(*engine.GetTable("Sales").value()), before);
  EXPECT_EQ(sales->Version(0).value(), image);
}

}  // namespace
}  // namespace dvms
