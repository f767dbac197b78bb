// Planar point in a local metric frame (meters).
//
// Most of the library works in a local East-North frame obtained by
// projecting geographic coordinates around a reference point (see
// projection.h). Distances in this frame are plain Euclidean distances,
// which is what the planar-Laplace mechanism of Geo-Indistinguishability
// is defined over.
#pragma once

#include <cmath>
#include <compare>
#include <ostream>

namespace locpriv::geo {

/// A point in a local planar frame; coordinates are meters east/north of
/// the frame origin. Plain value type: no invariant beyond finiteness,
/// which callers establish.
struct Point {
  double x = 0.0;  ///< meters east of the frame origin
  double y = 0.0;  ///< meters north of the frame origin

  friend constexpr Point operator+(Point a, Point b) { return {a.x + b.x, a.y + b.y}; }
  friend constexpr Point operator-(Point a, Point b) { return {a.x - b.x, a.y - b.y}; }
  friend constexpr Point operator*(Point p, double s) { return {p.x * s, p.y * s}; }
  friend constexpr Point operator*(double s, Point p) { return p * s; }
  friend constexpr Point operator/(Point p, double s) { return {p.x / s, p.y / s}; }
  constexpr Point& operator+=(Point o) { x += o.x; y += o.y; return *this; }
  constexpr Point& operator-=(Point o) { x -= o.x; y -= o.y; return *this; }
  friend constexpr bool operator==(Point, Point) = default;

  /// Euclidean norm, meters.
  [[nodiscard]] double norm() const { return std::hypot(x, y); }

  friend std::ostream& operator<<(std::ostream& os, Point p) {
    return os << '(' << p.x << ", " << p.y << ')';
  }
};

/// Euclidean distance between two planar points, meters.
[[nodiscard]] inline double distance(Point a, Point b) { return (a - b).norm(); }

/// Exactly `distance(a, b) <= r`, mostly without the hypot call: when
/// dx²+dy² and r² are both normal numbers (r > 0) more than 1e-9 apart
/// relative to r², their few-ulp rounding cannot reorder them against
/// hypot's, so they decide; anything else (zero, subnormal, overflow,
/// NaN, a near tie) asks hypot.
[[nodiscard]] inline bool within_distance(Point a, Point b, double r) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  const double d2 = dx * dx + dy * dy;
  const double r2 = r * r;
  if (r > 0.0 && std::isnormal(d2) && std::isnormal(r2) && std::abs(d2 - r2) > 1e-9 * r2) {
    return d2 < r2;
  }
  return std::hypot(dx, dy) <= r;
}

/// Squared Euclidean distance; cheaper when only comparisons are needed.
[[nodiscard]] constexpr double distance_sq(Point a, Point b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return dx * dx + dy * dy;
}

/// Linear interpolation between two points; t = 0 gives a, t = 1 gives b.
[[nodiscard]] constexpr Point lerp(Point a, Point b, double t) {
  return {a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t};
}

}  // namespace locpriv::geo
