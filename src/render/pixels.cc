#include "render/pixels.h"

#include <algorithm>
#include <cctype>
#include <cstdio>

#include "common/schema.h"

namespace dvms {

namespace {

struct NamedColor {
  const char* name;
  RGBA color;
};

constexpr NamedColor kPalette[] = {
    {"black", {0, 0, 0, 255}},        {"white", {255, 255, 255, 255}},
    {"red", {214, 39, 40, 255}},      {"green", {44, 160, 44, 255}},
    {"blue", {31, 119, 180, 255}},    {"orange", {255, 127, 14, 255}},
    {"gray", {127, 127, 127, 255}},   {"grey", {127, 127, 127, 255}},
    {"lightgray", {199, 199, 199, 255}},
    {"darkgray", {80, 80, 80, 255}},  {"steelblue", {70, 130, 180, 255}},
    {"purple", {148, 103, 189, 255}}, {"brown", {140, 86, 75, 255}},
    {"pink", {227, 119, 194, 255}},   {"yellow", {219, 219, 64, 255}},
    {"cyan", {23, 190, 207, 255}},    {"none", {0, 0, 0, 0}},
    {"transparent", {0, 0, 0, 0}},
};

int HexNibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  if (c >= 'a' && c <= 'f') return 10 + (c - 'a');
  return -1;
}

}  // namespace

Result<RGBA> ParseColor(const std::string& spec) {
  if (!spec.empty() && spec[0] == '#') {
    if (spec.size() != 7 && spec.size() != 9) {
      return Status::InvalidArgument("bad hex color '" + spec + "'");
    }
    uint8_t parts[4] = {0, 0, 0, 255};
    for (size_t i = 0; i + 1 < spec.size() - 1; i += 2) {
      int hi = HexNibble(spec[1 + i]);
      int lo = HexNibble(spec[2 + i]);
      if (hi < 0 || lo < 0) {
        return Status::InvalidArgument("bad hex color '" + spec + "'");
      }
      parts[i / 2] = static_cast<uint8_t>(hi * 16 + lo);
    }
    return RGBA{parts[0], parts[1], parts[2], parts[3]};
  }
  for (const NamedColor& named : kPalette) {
    if (IdentEquals(named.name, spec)) return named.color;
  }
  return Status::InvalidArgument("unknown color '" + spec + "'");
}

PixelBuffer::PixelBuffer(size_t width, size_t height)
    : width_(width), height_(height), pixels_(width * height) {}

void PixelBuffer::Clear(RGBA color) {
  for (RGBA& p : pixels_) p = color;
}

RGBA PixelBuffer::At(int64_t x, int64_t y) const {
  if (x < 0 || y < 0 || static_cast<size_t>(x) >= width_ ||
      static_cast<size_t>(y) >= height_) {
    return RGBA{};
  }
  return pixels_[static_cast<size_t>(y) * width_ + static_cast<size_t>(x)];
}

void PixelBuffer::Set(int64_t x, int64_t y, RGBA color) {
  if (x < 0 || y < 0 || static_cast<size_t>(x) >= width_ ||
      static_cast<size_t>(y) >= height_) {
    return;
  }
  pixels_[static_cast<size_t>(y) * width_ + static_cast<size_t>(x)] = color;
}

namespace {

/// Source-over of a translucent `color` onto `dst`.
RGBA BlendOver(RGBA dst, RGBA color) {
  double sa = color.a / 255.0;
  double da = dst.a / 255.0;
  double out_a = sa + da * (1 - sa);
  auto mix = [sa, da, out_a](uint8_t s, uint8_t d) {
    if (out_a <= 0) return static_cast<uint8_t>(0);
    double v = (s * sa + d * da * (1 - sa)) / out_a;
    return static_cast<uint8_t>(v + 0.5);
  };
  return RGBA{mix(color.r, dst.r), mix(color.g, dst.g), mix(color.b, dst.b),
              static_cast<uint8_t>(out_a * 255 + 0.5)};
}

}  // namespace

void PixelBuffer::Blend(int64_t x, int64_t y, RGBA color) {
  if (x < 0 || y < 0 || static_cast<size_t>(x) >= width_ ||
      static_cast<size_t>(y) >= height_) {
    return;
  }
  if (color.a == 255) {
    Set(x, y, color);
    return;
  }
  if (color.a == 0) return;
  Set(x, y, BlendOver(At(x, y), color));
}

void PixelBuffer::BlendSpan(int64_t y, int64_t x0, int64_t x1, RGBA color) {
  if (color.a == 0 || y < 0 || static_cast<size_t>(y) >= height_) return;
  x0 = std::max<int64_t>(x0, 0);
  x1 = std::min<int64_t>(x1, static_cast<int64_t>(width_) - 1);
  if (x0 > x1) return;
  RGBA* row = pixels_.data() + static_cast<size_t>(y) * width_;
  if (color.a == 255) {
    std::fill(row + x0, row + x1 + 1, color);
    return;
  }
  for (int64_t x = x0; x <= x1; ++x) row[x] = BlendOver(row[x], color);
}

Table PixelBuffer::ToRelation(bool skip_transparent) const {
  Table t(Schema({{"x", ValueType::kInt64},
                  {"y", ValueType::kInt64},
                  {"r", ValueType::kInt64},
                  {"g", ValueType::kInt64},
                  {"b", ValueType::kInt64},
                  {"a", ValueType::kInt64}}));
  for (size_t y = 0; y < height_; ++y) {
    for (size_t x = 0; x < width_; ++x) {
      const RGBA& p = pixels_[y * width_ + x];
      if (skip_transparent && p.a == 0) continue;
      t.AppendUnchecked({Value::Int(static_cast<int64_t>(x)),
                         Value::Int(static_cast<int64_t>(y)),
                         Value::Int(p.r), Value::Int(p.g), Value::Int(p.b),
                         Value::Int(p.a)});
    }
  }
  return t;
}

size_t PixelBuffer::CountColor(RGBA color) const {
  size_t n = 0;
  for (const RGBA& p : pixels_) {
    if (p == color) ++n;
  }
  return n;
}

size_t PixelBuffer::CountPainted() const {
  size_t n = 0;
  for (const RGBA& p : pixels_) {
    if (p.a != 0) ++n;
  }
  return n;
}

Status PixelBuffer::WritePpm(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::ExecutionError("cannot open '" + path + "' for writing");
  }
  std::fprintf(f, "P6\n%zu %zu\n255\n", width_, height_);
  for (const RGBA& p : pixels_) {
    double a = p.a / 255.0;
    unsigned char rgb[3] = {
        static_cast<unsigned char>(p.r * a + 255 * (1 - a) + 0.5),
        static_cast<unsigned char>(p.g * a + 255 * (1 - a) + 0.5),
        static_cast<unsigned char>(p.b * a + 255 * (1 - a) + 0.5)};
    std::fwrite(rgb, 1, 3, f);
  }
  std::fclose(f);
  return Status::OK();
}

}  // namespace dvms
