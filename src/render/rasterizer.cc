#include "render/rasterizer.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <vector>

#include "common/fault.h"
#include "governor/governor.h"
#include "obs/trace.h"

namespace dvms {

const char* MarkTypeToString(MarkType type) {
  switch (type) {
    case MarkType::kCircle:
      return "circle";
    case MarkType::kRect:
      return "rect";
    case MarkType::kLine:
      return "line";
  }
  return "?";
}

Result<MarkType> InferMarkType(const Schema& schema) {
  auto has = [&schema](const char* name) {
    return schema.FindColumn(name).has_value();
  };
  if (has("center_x") && has("center_y") && has("radius")) {
    return MarkType::kCircle;
  }
  if (has("x") && has("y") && has("width") && has("height")) {
    return MarkType::kRect;
  }
  if (has("x1") && has("y1") && has("x2") && has("y2")) {
    return MarkType::kLine;
  }
  return Status::TypeError(
      "relation is not a marks relation: expected circle (center_x, "
      "center_y, radius), rect (x, y, width, height), or line (x1, y1, x2, "
      "y2) geometry columns; got [" +
      schema.ToString() + "]");
}

namespace {

/// The fill/outline routines are templated on a blend target so the exact
/// same pixel math runs for whole-buffer serial drawing and for
/// row-band-clipped parallel drawing: a band replays the op and the target
/// drops writes outside its rows. Fills emit one span per row; outlines
/// and lines blend single pixels.
struct FullTarget {
  PixelBuffer* buf;
  void Blend(int64_t x, int64_t y, RGBA color) const {
    buf->Blend(x, y, color);
  }
  void BlendSpan(int64_t y, int64_t x0, int64_t x1, RGBA color) const {
    buf->BlendSpan(y, x0, x1, color);
  }
};

struct BandTarget {
  PixelBuffer* buf;
  int64_t y_begin;
  int64_t y_end;  // exclusive
  void Blend(int64_t x, int64_t y, RGBA color) const {
    if (y >= y_begin && y < y_end) buf->Blend(x, y, color);
  }
  void BlendSpan(int64_t y, int64_t x0, int64_t x1, RGBA color) const {
    if (y >= y_begin && y < y_end) buf->BlendSpan(y, x0, x1, color);
  }
};

template <typename Target>
void FillCircleT(const Target& t, double cx, double cy, double radius,
                 RGBA color) {
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
    t.BlendSpan(y, x0, x1, color);
  }
}

template <typename Target>
void CircleOutlineT(const Target& t, double cx, double cy, double radius,
                    RGBA color) {
  if (color.a == 0 || radius <= 0) return;
  // Walk the circumference at sub-pixel steps.
  double circumference = 2 * M_PI * radius;
  int steps = std::max(8, static_cast<int>(circumference * 2));
  int64_t px = INT64_MIN, py = INT64_MIN;
  for (int i = 0; i <= steps; ++i) {
    double theta = 2 * M_PI * i / steps;
    int64_t x = static_cast<int64_t>(std::lround(cx + radius * std::cos(theta)));
    int64_t y = static_cast<int64_t>(std::lround(cy + radius * std::sin(theta)));
    if (x == px && y == py) continue;
    t.Blend(x, y, color);
    px = x;
    py = y;
  }
}

template <typename Target>
void FillRectT(const Target& t, double x, double y, double w, double h,
               RGBA color) {
  if (color.a == 0 || w <= 0 || h <= 0) return;
  int64_t x0 = static_cast<int64_t>(std::lround(x));
  int64_t y0 = static_cast<int64_t>(std::lround(y));
  int64_t x1 = static_cast<int64_t>(std::lround(x + w)) - 1;
  int64_t y1 = static_cast<int64_t>(std::lround(y + h)) - 1;
  for (int64_t yy = y0; yy <= y1; ++yy) t.BlendSpan(yy, x0, x1, color);
}

template <typename Target>
void RectOutlineT(const Target& t, double x, double y, double w, double h,
                  RGBA color) {
  if (color.a == 0 || w <= 0 || h <= 0) return;
  int64_t x0 = static_cast<int64_t>(std::lround(x));
  int64_t y0 = static_cast<int64_t>(std::lround(y));
  int64_t x1 = static_cast<int64_t>(std::lround(x + w)) - 1;
  int64_t y1 = static_cast<int64_t>(std::lround(y + h)) - 1;
  for (int64_t xx = x0; xx <= x1; ++xx) {
    t.Blend(xx, y0, color);
    t.Blend(xx, y1, color);
  }
  for (int64_t yy = y0 + 1; yy < y1; ++yy) {
    t.Blend(x0, yy, color);
    t.Blend(x1, yy, color);
  }
}

template <typename Target>
void LineT(const Target& t, double x1, double y1, double x2, double y2,
           RGBA color) {
  if (color.a == 0) return;
  double dx = x2 - x1;
  double dy = y2 - y1;
  int steps = static_cast<int>(std::max(std::abs(dx), std::abs(dy))) + 1;
  int64_t px = INT64_MIN, py = INT64_MIN;
  for (int i = 0; i <= steps; ++i) {
    double f = steps == 0 ? 0.0 : static_cast<double>(i) / steps;
    int64_t x = static_cast<int64_t>(std::lround(x1 + dx * f));
    int64_t y = static_cast<int64_t>(std::lround(y1 + dy * f));
    if (x == px && y == py) continue;
    t.Blend(x, y, color);
    px = x;
    py = y;
  }
}

}  // namespace

void DrawFilledCircle(PixelBuffer* buf, double cx, double cy, double radius,
                      RGBA color) {
  FillCircleT(FullTarget{buf}, cx, cy, radius, color);
}

void DrawCircleOutline(PixelBuffer* buf, double cx, double cy, double radius,
                       RGBA color) {
  CircleOutlineT(FullTarget{buf}, cx, cy, radius, color);
}

void DrawFilledRect(PixelBuffer* buf, double x, double y, double w, double h,
                    RGBA color) {
  FillRectT(FullTarget{buf}, x, y, w, h, color);
}

void DrawRectOutline(PixelBuffer* buf, double x, double y, double w, double h,
                     RGBA color) {
  RectOutlineT(FullTarget{buf}, x, y, w, h, color);
}

void DrawLine(PixelBuffer* buf, double x1, double y1, double x2, double y2,
              RGBA color) {
  LineT(FullTarget{buf}, x1, y1, x2, y2, color);
}

namespace {

/// Reads an optional color column for a row; `fallback` when the column is
/// absent or NULL.
Result<RGBA> ColorOf(const Table& marks, size_t row, const char* column,
                     RGBA fallback) {
  auto idx = marks.schema().FindColumn(column);
  if (!idx.has_value()) return fallback;
  const Value& v = marks.row(row)[*idx];
  if (v.is_null()) return fallback;
  if (v.type() != ValueType::kString) {
    return Status::TypeError(std::string(column) + " column must be a string");
  }
  return ParseColor(v.string_value());
}

/// Reads a required numeric column; returns NaN for NULL.
Result<double> NumOf(const Table& marks, size_t row, size_t col) {
  const Value& v = marks.row(row)[col];
  if (v.is_null()) return std::nan("");
  return v.AsDouble();
}

constexpr RGBA kDefaultFill = {127, 127, 127, 255};  // gray
constexpr RGBA kNoColor = {0, 0, 0, 0};

/// One mark row, decoded: geometry, colors, and a conservative framebuffer
/// row interval [y_min, y_max] so bands can skip ops that cannot touch
/// their rows.
struct MarkOp {
  MarkType kind;
  double a, b, c, d;  // circle: cx, cy, r; rect: x, y, w, h; line: x1..y2
  RGBA fill;
  RGBA stroke;
  double y_min, y_max;
};

/// Decodes marks rows in order, preserving serial error semantics: on a
/// bad row, the ops decoded so far still render (a serial loop would have
/// painted them before hitting the error) and the error is returned after.
Status DecodeMarkOps(const Table& marks, MarkType type,
                     std::vector<MarkOp>* ops) {
  const Schema& schema = marks.schema();
  switch (type) {
    case MarkType::kCircle: {
      DVMS_ASSIGN_OR_RETURN(size_t cx, schema.IndexOf("center_x"));
      DVMS_ASSIGN_OR_RETURN(size_t cy, schema.IndexOf("center_y"));
      DVMS_ASSIGN_OR_RETURN(size_t r, schema.IndexOf("radius"));
      for (size_t i = 0; i < marks.num_rows(); ++i) {
        DVMS_ASSIGN_OR_RETURN(double x, NumOf(marks, i, cx));
        DVMS_ASSIGN_OR_RETURN(double y, NumOf(marks, i, cy));
        DVMS_ASSIGN_OR_RETURN(double radius, NumOf(marks, i, r));
        if (std::isnan(x) || std::isnan(y) || std::isnan(radius)) continue;
        DVMS_ASSIGN_OR_RETURN(RGBA fill, ColorOf(marks, i, "fill", kDefaultFill));
        DVMS_ASSIGN_OR_RETURN(RGBA stroke, ColorOf(marks, i, "stroke", kNoColor));
        ops->push_back({type, x, y, radius, 0.0, fill, stroke,
                        y - radius - 2, y + radius + 2});
      }
      return Status::OK();
    }
    case MarkType::kRect: {
      DVMS_ASSIGN_OR_RETURN(size_t xc, schema.IndexOf("x"));
      DVMS_ASSIGN_OR_RETURN(size_t yc, schema.IndexOf("y"));
      DVMS_ASSIGN_OR_RETURN(size_t wc, schema.IndexOf("width"));
      DVMS_ASSIGN_OR_RETURN(size_t hc, schema.IndexOf("height"));
      for (size_t i = 0; i < marks.num_rows(); ++i) {
        DVMS_ASSIGN_OR_RETURN(double x, NumOf(marks, i, xc));
        DVMS_ASSIGN_OR_RETURN(double y, NumOf(marks, i, yc));
        DVMS_ASSIGN_OR_RETURN(double w, NumOf(marks, i, wc));
        DVMS_ASSIGN_OR_RETURN(double h, NumOf(marks, i, hc));
        if (std::isnan(x) || std::isnan(y) || std::isnan(w) || std::isnan(h)) {
          continue;
        }
        DVMS_ASSIGN_OR_RETURN(RGBA fill, ColorOf(marks, i, "fill", kDefaultFill));
        DVMS_ASSIGN_OR_RETURN(RGBA stroke, ColorOf(marks, i, "stroke", kNoColor));
        ops->push_back({type, x, y, w, h, fill, stroke,
                        std::min(y, y + h) - 2, std::max(y, y + h) + 2});
      }
      return Status::OK();
    }
    case MarkType::kLine: {
      DVMS_ASSIGN_OR_RETURN(size_t x1, schema.IndexOf("x1"));
      DVMS_ASSIGN_OR_RETURN(size_t y1, schema.IndexOf("y1"));
      DVMS_ASSIGN_OR_RETURN(size_t x2, schema.IndexOf("x2"));
      DVMS_ASSIGN_OR_RETURN(size_t y2, schema.IndexOf("y2"));
      for (size_t i = 0; i < marks.num_rows(); ++i) {
        DVMS_ASSIGN_OR_RETURN(double a, NumOf(marks, i, x1));
        DVMS_ASSIGN_OR_RETURN(double b, NumOf(marks, i, y1));
        DVMS_ASSIGN_OR_RETURN(double c, NumOf(marks, i, x2));
        DVMS_ASSIGN_OR_RETURN(double d, NumOf(marks, i, y2));
        if (std::isnan(a) || std::isnan(b) || std::isnan(c) || std::isnan(d)) {
          continue;
        }
        DVMS_ASSIGN_OR_RETURN(RGBA stroke,
                              ColorOf(marks, i, "stroke",
                                      RGBA{0, 0, 0, 255}));
        ops->push_back({type, a, b, c, d, kNoColor, stroke,
                        std::min(b, d) - 2, std::max(b, d) + 2});
      }
      return Status::OK();
    }
  }
  return Status::Internal("unknown mark type");
}

template <typename Target>
void ReplayOp(const MarkOp& op, const Target& t) {
  switch (op.kind) {
    case MarkType::kCircle:
      FillCircleT(t, op.a, op.b, op.c, op.fill);
      CircleOutlineT(t, op.a, op.b, op.c, op.stroke);
      break;
    case MarkType::kRect:
      FillRectT(t, op.a, op.b, op.c, op.d, op.fill);
      RectOutlineT(t, op.a, op.b, op.c, op.d, op.stroke);
      break;
    case MarkType::kLine:
      LineT(t, op.a, op.b, op.c, op.d, op.stroke);
      break;
  }
}

/// Replays `ops` in order against one blend target (the painter's
/// algorithm: per pixel, blend order equals relation row order).
template <typename Target>
void ReplayOps(const std::vector<MarkOp>& ops, const Target& t) {
  for (const MarkOp& op : ops) ReplayOp(op, t);
}

}  // namespace

Status RenderMarks(const Table& marks, MarkType type, PixelBuffer* out,
                   const RenderOptions& opts) {
  obs::Span span("raster.frame");
  obs::Count("raster.frames");
  obs::Count("raster.marks", marks.num_rows());
  std::vector<MarkOp> ops;
  ops.reserve(marks.num_rows());
  // The decoded op list is the rasterizer's transient footprint.
  DVMS_RETURN_IF_ERROR(governor::ChargeMemory(
      static_cast<int64_t>(marks.num_rows() * sizeof(MarkOp))));
  Status decoded = DecodeMarkOps(marks, type, &ops);

  ThreadPool* pool = opts.pool != nullptr ? opts.pool : ThreadPool::Global();
  size_t threads =
      opts.num_threads != 0 ? opts.num_threads : pool->num_threads();
  size_t band_rows = opts.band_rows == 0 ? 64 : opts.band_rows;
  if (threads <= 1 || out->height() == 0) {
    obs::Count("raster.bands");
    // Serial path: the whole frame is one band for fault purposes. A fired
    // fault (or expired deadline) leaves the frame partially drawn — the
    // caller's rollback restores it by re-rendering as internal work.
    DVMS_RETURN_IF_ERROR(fault::MaybeInject(FaultSite::kRasterBand));
    DVMS_RETURN_IF_ERROR(governor::CheckPoint());
    ReplayOps(ops, FullTarget{out});
    return decoded;
  }

  // Row-band parallel fill: bands own disjoint framebuffer rows, so no
  // pixel is written by two threads, and each band replays marks in
  // relation order — the result is bit-identical to the serial path.
  // A band whose fault fires skips its rows entirely and reports the
  // failure after the join; the frame is then corrupt and the error Status
  // tells the engine to roll back.
  const size_t bands = MorselCount(out->height(), band_rows);
  obs::Count("raster.bands", bands);
  std::atomic<size_t> failed_bands{0};
  // Per-band governor status: a band that sees the deadline expired skips
  // its rows (the frame is then corrupt and the engine rolls it back, same
  // contract as an injected band fault). The lowest-indexed band's status
  // is reported, keeping the error deterministic at any thread count.
  std::vector<Status> band_status(bands);
  pool->ParallelFor(
      out->height(), band_rows, threads, [&](const MorselRange& band) {
        if (fault::ShouldInject(FaultSite::kRasterBand)) {
          failed_bands.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        band_status[band.index] = governor::CheckPoint();
        if (!band_status[band.index].ok()) return;
        BandTarget t{out, static_cast<int64_t>(band.begin),
                     static_cast<int64_t>(band.end)};
        for (const MarkOp& op : ops) {
          if (op.y_max < static_cast<double>(band.begin) ||
              op.y_min >= static_cast<double>(band.end)) {
            continue;
          }
          ReplayOp(op, t);
        }
      });
  size_t failures = failed_bands.load(std::memory_order_relaxed);
  if (failures > 0) {
    return Status::ExecutionError(
        "injected fault at site 'raster': " + std::to_string(failures) +
        " band(s) dropped");
  }
  for (Status& st : band_status) {
    DVMS_RETURN_IF_ERROR(std::move(st));
  }
  return decoded;
}

Status RenderMarks(const Table& marks, PixelBuffer* out,
                   const RenderOptions& opts) {
  DVMS_ASSIGN_OR_RETURN(MarkType type, InferMarkType(marks.schema()));
  return RenderMarks(marks, type, out, opts);
}

}  // namespace dvms
