#include <cmath>
#include <cstdio>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "render/pixels.h"
#include "render/rasterizer.h"
#include "render/scale.h"
#include "storage/catalog.h"
#include "gtest/gtest.h"

namespace dvms {
namespace {

constexpr RGBA kRed = {214, 39, 40, 255};
constexpr RGBA kWhite = {255, 255, 255, 255};

TEST(ColorTest, NamedAndHexColors) {
  EXPECT_EQ(ParseColor("red").value(), kRed);
  EXPECT_EQ(ParseColor("RED").value(), kRed);
  RGBA hex = ParseColor("#102030").value();
  EXPECT_EQ(hex.r, 0x10);
  EXPECT_EQ(hex.g, 0x20);
  EXPECT_EQ(hex.b, 0x30);
  EXPECT_EQ(hex.a, 255);
  RGBA hexa = ParseColor("#10203040").value();
  EXPECT_EQ(hexa.a, 0x40);
  EXPECT_FALSE(ParseColor("notacolor").ok());
  EXPECT_FALSE(ParseColor("#12").ok());
  EXPECT_EQ(ParseColor("none").value().a, 0);
}

TEST(PixelBufferTest, SetAtAndClipping) {
  PixelBuffer buf(10, 5);
  buf.Set(3, 2, kRed);
  EXPECT_EQ(buf.At(3, 2), kRed);
  EXPECT_EQ(buf.At(-1, 0).a, 0);
  EXPECT_EQ(buf.At(100, 100).a, 0);
  buf.Set(-5, -5, kRed);  // no crash
  buf.Set(100, 100, kRed);
  EXPECT_EQ(buf.CountColor(kRed), 1u);
}

TEST(PixelBufferTest, BlendSrcOver) {
  PixelBuffer buf(4, 4);
  buf.Clear(kWhite);
  RGBA half_red = {255, 0, 0, 128};
  buf.Blend(1, 1, half_red);
  RGBA out = buf.At(1, 1);
  EXPECT_GT(out.r, 200);       // red stays strong
  EXPECT_GT(out.g, 100);       // white shows through
  EXPECT_LT(out.g, 140);
  EXPECT_EQ(out.a, 255);
  // Fully transparent blend is a no-op.
  buf.Blend(2, 2, RGBA{0, 255, 0, 0});
  EXPECT_EQ(buf.At(2, 2), kWhite);
}

TEST(PixelBufferTest, ToRelationSkipsTransparent) {
  PixelBuffer buf(4, 4);
  buf.Set(0, 0, kRed);
  buf.Set(3, 3, kRed);
  Table p = buf.ToRelation();
  EXPECT_EQ(p.num_rows(), 2u);
  EXPECT_EQ(p.schema().num_columns(), 6u);
  Table all = buf.ToRelation(/*skip_transparent=*/false);
  EXPECT_EQ(all.num_rows(), 16u);
}

TEST(PixelBufferTest, WritePpm) {
  PixelBuffer buf(8, 8);
  buf.Clear(kRed);
  std::string path = ::testing::TempDir() + "/dvms_test.ppm";
  ASSERT_TRUE(buf.WritePpm(path).ok());
  FILE* f = fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char magic[3] = {0};
  ASSERT_EQ(fread(magic, 1, 2, f), 2u);
  EXPECT_EQ(std::string(magic), "P6");
  fclose(f);
}

TEST(RasterizerTest, FilledCircleCoversCenterNotCorners) {
  PixelBuffer buf(40, 40);
  DrawFilledCircle(&buf, 20, 20, 8, kRed);
  EXPECT_EQ(buf.At(20, 20), kRed);
  EXPECT_EQ(buf.At(20, 13), kRed);   // inside top
  EXPECT_EQ(buf.At(20, 5).a, 0);     // above the circle
  EXPECT_EQ(buf.At(5, 5).a, 0);      // far corner
  // Rough area check: |painted - pi*r^2| small.
  double area = static_cast<double>(buf.CountPainted());
  EXPECT_NEAR(area, 3.14159 * 64, 20);
}

TEST(RasterizerTest, RectFillAndOutline) {
  PixelBuffer buf(30, 30);
  DrawFilledRect(&buf, 5, 5, 10, 8, kRed);
  EXPECT_EQ(buf.CountPainted(), 80u);
  EXPECT_EQ(buf.At(5, 5), kRed);
  EXPECT_EQ(buf.At(14, 12), kRed);
  EXPECT_EQ(buf.At(15, 5).a, 0);

  PixelBuffer buf2(30, 30);
  DrawRectOutline(&buf2, 5, 5, 10, 8, kRed);
  EXPECT_EQ(buf2.At(5, 5), kRed);
  EXPECT_EQ(buf2.At(14, 12), kRed);
  EXPECT_EQ(buf2.At(10, 9).a, 0);  // interior unpainted
}

TEST(RasterizerTest, LineIsConnected) {
  PixelBuffer buf(30, 30);
  DrawLine(&buf, 2, 2, 27, 15, kRed);
  EXPECT_EQ(buf.At(2, 2), kRed);
  EXPECT_EQ(buf.At(27, 15), kRed);
  // At least as many pixels as the max dimension span.
  EXPECT_GE(buf.CountPainted(), 26u);
}

TEST(RasterizerTest, InferMarkTypeFromSchema) {
  Schema circle({{"center_x", ValueType::kDouble},
                 {"center_y", ValueType::kDouble},
                 {"radius", ValueType::kDouble},
                 {"fill", ValueType::kString}});
  EXPECT_EQ(InferMarkType(circle).value(), MarkType::kCircle);
  Schema rect({{"x", ValueType::kDouble},
               {"y", ValueType::kDouble},
               {"width", ValueType::kDouble},
               {"height", ValueType::kDouble}});
  EXPECT_EQ(InferMarkType(rect).value(), MarkType::kRect);
  Schema line({{"x1", ValueType::kDouble},
               {"y1", ValueType::kDouble},
               {"x2", ValueType::kDouble},
               {"y2", ValueType::kDouble}});
  EXPECT_EQ(InferMarkType(line).value(), MarkType::kLine);
  Schema nope({{"foo", ValueType::kDouble}});
  EXPECT_FALSE(InferMarkType(nope).ok());
}

TEST(RasterizerTest, RenderMarksRelationWithFillColors) {
  Table marks(Schema({{"center_x", ValueType::kDouble},
                      {"center_y", ValueType::kDouble},
                      {"radius", ValueType::kDouble},
                      {"fill", ValueType::kString}}));
  ASSERT_TRUE(marks
                  .Append({Value::Double(10), Value::Double(10),
                           Value::Double(3), Value::String("red")})
                  .ok());
  ASSERT_TRUE(marks
                  .Append({Value::Double(30), Value::Double(10),
                           Value::Double(3), Value::String("blue")})
                  .ok());
  PixelBuffer buf(40, 20);
  ASSERT_TRUE(RenderMarks(marks, &buf).ok());
  EXPECT_EQ(buf.At(10, 10), ParseColor("red").value());
  EXPECT_EQ(buf.At(30, 10), ParseColor("blue").value());
}

TEST(RasterizerTest, NullGeometryRowsSkipped) {
  Table marks(Schema({{"center_x", ValueType::kDouble},
                      {"center_y", ValueType::kDouble},
                      {"radius", ValueType::kDouble}}));
  ASSERT_TRUE(
      marks.Append({Value::Null(), Value::Double(10), Value::Double(3)}).ok());
  PixelBuffer buf(20, 20);
  ASSERT_TRUE(RenderMarks(marks, &buf).ok());
  EXPECT_EQ(buf.CountPainted(), 0u);
}

TEST(RasterizerTest, BadColorReportsError) {
  Table marks(Schema({{"center_x", ValueType::kDouble},
                      {"center_y", ValueType::kDouble},
                      {"radius", ValueType::kDouble},
                      {"fill", ValueType::kString}}));
  ASSERT_TRUE(marks
                  .Append({Value::Double(5), Value::Double(5), Value::Double(2),
                           Value::String("chartreuse-ish")})
                  .ok());
  PixelBuffer buf(10, 10);
  EXPECT_FALSE(RenderMarks(marks, &buf).ok());
}

// ---- Span oracle: the span fills against per-pixel Blend loops ----

/// Per-pixel reference fills: the loops the span fills replaced, one
/// Blend call per covered pixel.
void ReferenceFillRect(PixelBuffer* buf, double x, double y, double w,
                       double h, RGBA color) {
  if (color.a == 0 || w <= 0 || h <= 0) return;
  int64_t x0 = static_cast<int64_t>(std::lround(x));
  int64_t y0 = static_cast<int64_t>(std::lround(y));
  int64_t x1 = static_cast<int64_t>(std::lround(x + w)) - 1;
  int64_t y1 = static_cast<int64_t>(std::lround(y + h)) - 1;
  for (int64_t yy = y0; yy <= y1; ++yy) {
    for (int64_t xx = x0; xx <= x1; ++xx) buf->Blend(xx, yy, color);
  }
}

void ReferenceFillCircle(PixelBuffer* buf, double cx, double cy,
                         double radius, RGBA color) {
  if (color.a == 0 || radius <= 0) return;
  int64_t y0 = static_cast<int64_t>(std::floor(cy - radius));
  int64_t y1 = static_cast<int64_t>(std::ceil(cy + radius));
  for (int64_t y = y0; y <= y1; ++y) {
    double dy = y - cy;
    double span = radius * radius - dy * dy;
    if (span < 0) continue;
    double dx = std::sqrt(span);
    int64_t x0 = static_cast<int64_t>(std::ceil(cx - dx));
    int64_t x1 = static_cast<int64_t>(std::floor(cx + dx));
    for (int64_t x = x0; x <= x1; ++x) buf->Blend(x, y, color);
  }
}

/// Opaque, translucent or fully transparent, a third each.
RGBA RandomColor(Rng* rng) {
  auto byte = [rng] { return static_cast<uint8_t>(rng->UniformInt(0, 255)); };
  RGBA c{byte(), byte(), byte(), 255};
  switch (rng->UniformInt(0, 2)) {
    case 0:
      break;
    case 1:
      c.a = static_cast<uint8_t>(rng->UniformInt(1, 254));
      break;
    default:
      c.a = 0;
      break;
  }
  return c;
}

std::string HexColor(RGBA c) {
  char buf[10];
  std::snprintf(buf, sizeof(buf), "#%02x%02x%02x%02x", c.r, c.g, c.b, c.a);
  return buf;
}

/// A backdrop with translucent and transparent pixels, so blends read
/// varied destinations.
void PaintBackdrop(PixelBuffer* buf, Rng* rng) {
  for (size_t y = 0; y < buf->height(); ++y) {
    for (size_t x = 0; x < buf->width(); ++x) {
      buf->Set(static_cast<int64_t>(x), static_cast<int64_t>(y),
               RandomColor(rng));
    }
  }
}

constexpr size_t kOracleW = 37;
constexpr size_t kOracleH = 29;

TEST(RasterizerSpanTest, SpanEqualsPerPixelBlend) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    PixelBuffer spans(kOracleW, kOracleH);
    PaintBackdrop(&spans, &rng);
    PixelBuffer pixels = spans;
    for (int i = 0; i < 400; ++i) {
      // Rows and ends past every edge, and reversed (empty) spans.
      int64_t y = rng.UniformInt(-3, kOracleH + 2);
      int64_t x0 = rng.UniformInt(-10, kOracleW + 10);
      int64_t x1 = rng.UniformInt(-10, kOracleW + 10);
      RGBA color = RandomColor(&rng);
      spans.BlendSpan(y, x0, x1, color);
      for (int64_t x = x0; x <= x1; ++x) pixels.Blend(x, y, color);
    }
    EXPECT_TRUE(spans.Equals(pixels)) << "seed " << seed;
  }
}

TEST(RasterizerSpanTest, FillsEqualPerPixelBlend) {
  for (uint64_t seed : {4u, 5u, 6u}) {
    Rng rng(seed);
    PixelBuffer filled(kOracleW, kOracleH);
    PaintBackdrop(&filled, &rng);
    PixelBuffer reference = filled;
    for (int i = 0; i < 200; ++i) {
      // Fractional, off-canvas positions; zero and negative sizes.
      double x = rng.Uniform(-15, kOracleW + 5);
      double y = rng.Uniform(-15, kOracleH + 5);
      RGBA color = RandomColor(&rng);
      if (rng.Bernoulli(0.5)) {
        double w = rng.Bernoulli(0.1) ? 0.0 : rng.Uniform(-4, 30);
        double h = rng.Bernoulli(0.1) ? 0.0 : rng.Uniform(-4, 30);
        DrawFilledRect(&filled, x, y, w, h, color);
        ReferenceFillRect(&reference, x, y, w, h, color);
      } else {
        double r = rng.Bernoulli(0.1) ? 0.0 : rng.Uniform(-2, 14);
        DrawFilledCircle(&filled, x, y, r, color);
        ReferenceFillCircle(&reference, x, y, r, color);
      }
    }
    EXPECT_TRUE(filled.Equals(reference)) << "seed " << seed;
  }
}

TEST(RasterizerSpanTest, BandedMarksEqualPerPixelBlend) {
  ThreadPool pool(4);
  for (uint64_t seed : {7u, 8u, 9u, 10u}) {
    Rng rng(seed);
    const bool circles = seed % 2 == 0;
    Table marks =
        circles ? Table(Schema({{"center_x", ValueType::kDouble},
                                {"center_y", ValueType::kDouble},
                                {"radius", ValueType::kDouble},
                                {"fill", ValueType::kString}}))
                : Table(Schema({{"x", ValueType::kDouble},
                                {"y", ValueType::kDouble},
                                {"width", ValueType::kDouble},
                                {"height", ValueType::kDouble},
                                {"fill", ValueType::kString}}));
    PixelBuffer reference(kOracleW, kOracleH);
    PaintBackdrop(&reference, &rng);
    PixelBuffer serial = reference;
    PixelBuffer banded = reference;
    for (int i = 0; i < 150; ++i) {
      double x = rng.Uniform(-15, kOracleW + 5);
      double y = rng.Uniform(-15, kOracleH + 5);
      double a = rng.Uniform(-4, 30);
      double b = rng.Uniform(-4, 30);
      RGBA color = RandomColor(&rng);
      if (circles) {
        marks.AppendUnchecked({Value::Double(x), Value::Double(y),
                               Value::Double(a / 2),
                               Value::String(HexColor(color))});
        ReferenceFillCircle(&reference, x, y, a / 2, color);
      } else {
        marks.AppendUnchecked({Value::Double(x), Value::Double(y),
                               Value::Double(a), Value::Double(b),
                               Value::String(HexColor(color))});
        ReferenceFillRect(&reference, x, y, a, b, color);
      }
    }
    RenderOptions one;
    one.num_threads = 1;
    ASSERT_TRUE(RenderMarks(marks, &serial, one).ok());
    RenderOptions four;
    four.num_threads = 4;
    four.band_rows = static_cast<size_t>(rng.UniformInt(1, 9));
    four.pool = &pool;
    ASSERT_TRUE(RenderMarks(marks, &banded, four).ok());
    EXPECT_TRUE(serial.Equals(reference)) << "seed " << seed;
    EXPECT_TRUE(banded.Equals(reference))
        << "seed " << seed << ", band_rows " << four.band_rows;
  }
}

TEST(ScaleTest, CreateScaleRelationShape) {
  Catalog catalog;
  ASSERT_TRUE(CreateScaleRelation(&catalog, "scale_x", 0, 100, 0, 400).ok());
  const Table& t = catalog.Get("scale_x").value()->current();
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_DOUBLE_EQ(t.At(0, "domain_max").value().double_value(), 100);
  EXPECT_DOUBLE_EQ(t.At(0, "range_max").value().double_value(), 400);
  // Replacing updates in place.
  ASSERT_TRUE(CreateScaleRelation(&catalog, "scale_x", 0, 50, 0, 400).ok());
  EXPECT_EQ(catalog.Get("scale_x").value()->current().num_rows(), 1u);
}

TEST(ScaleTest, ComputeDomainIgnoresNulls) {
  Table t(Schema({{"v", ValueType::kDouble}}));
  ASSERT_TRUE(t.Append({Value::Double(5)}).ok());
  ASSERT_TRUE(t.Append({Value::Null()}).ok());
  ASSERT_TRUE(t.Append({Value::Double(-2)}).ok());
  auto domain = ComputeDomain(t, "v").value();
  EXPECT_DOUBLE_EQ(domain.first, -2);
  EXPECT_DOUBLE_EQ(domain.second, 5);
  Table empty(Schema({{"v", ValueType::kDouble}}));
  EXPECT_FALSE(ComputeDomain(empty, "v").ok());
}

TEST(ScaleTest, CreateScaleFromColumnWithPadding) {
  Catalog catalog;
  Table t(Schema({{"v", ValueType::kDouble}}));
  ASSERT_TRUE(t.Append({Value::Double(0)}).ok());
  ASSERT_TRUE(t.Append({Value::Double(10)}).ok());
  ASSERT_TRUE(
      CreateScaleFromColumn(&catalog, "s", t, "v", 0, 100, 0.1).ok());
  const Table& s = catalog.Get("s").value()->current();
  EXPECT_DOUBLE_EQ(s.At(0, "domain_min").value().double_value(), -1);
  EXPECT_DOUBLE_EQ(s.At(0, "domain_max").value().double_value(), 11);
}

}  // namespace
}  // namespace dvms
