#ifndef DVMS_RENDER_PIXELS_H_
#define DVMS_RENDER_PIXELS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/table.h"

namespace dvms {

/// An 8-bit RGBA color.
struct RGBA {
  uint8_t r = 0, g = 0, b = 0, a = 0;

  friend bool operator==(const RGBA& x, const RGBA& y) {
    return x.r == y.r && x.g == y.g && x.b == y.b && x.a == y.a;
  }
};

/// Parses a color: a CSS-style name from the builtin palette ("red",
/// "gray", "steelblue", ...) or "#rrggbb" / "#rrggbbaa".
Result<RGBA> ParseColor(const std::string& spec);

/// The pixels relation P(x, y, RGBA) of the paper's visual data model,
/// materialized as a framebuffer maintained by the rendering device.
class PixelBuffer {
 public:
  PixelBuffer(size_t width, size_t height);

  size_t width() const { return width_; }
  size_t height() const { return height_; }

  void Clear(RGBA color);

  /// Pixel access; out-of-bounds reads return transparent black, writes are
  /// clipped.
  RGBA At(int64_t x, int64_t y) const;
  void Set(int64_t x, int64_t y, RGBA color);

  /// Source-over alpha blend of `color` onto (x, y).
  void Blend(int64_t x, int64_t y, RGBA color);

  /// Blend() onto row y from x0 to x1 inclusive, clipped to the buffer
  /// once: an opaque color fills the span, a translucent one blends each
  /// pixel with Blend's math, so the pixels equal a per-pixel loop's.
  void BlendSpan(int64_t y, int64_t x0, int64_t x1, RGBA color);

  /// Materializes P as a relation with columns (x INT, y INT, r INT, g INT,
  /// b INT, a INT). `skip_transparent` drops fully transparent pixels.
  Table ToRelation(bool skip_transparent = true) const;

  /// Number of pixels exactly equal to `color`.
  size_t CountColor(RGBA color) const;

  /// Number of pixels with nonzero alpha.
  size_t CountPainted() const;

  /// Bitwise framebuffer equality (dimensions and every RGBA byte).
  bool Equals(const PixelBuffer& other) const {
    return width_ == other.width_ && height_ == other.height_ &&
           pixels_ == other.pixels_;
  }

  /// Writes a binary PPM (P6) image, alpha composited over white.
  Status WritePpm(const std::string& path) const;

 private:
  size_t width_;
  size_t height_;
  std::vector<RGBA> pixels_;
};

}  // namespace dvms

#endif  // DVMS_RENDER_PIXELS_H_
