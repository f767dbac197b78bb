// Saturation detection — finding the "vertical lines" of Figure 1.
//
// Outside a central interval of ε the metrics saturate (flat at their
// floor/ceiling); the paper fits its linear model only "on the interval
// where ε impacts the privacy and utility metrics". We detect that
// interval from the sweep data: a segment is active when its local slope
// (in model space, i.e. against ln ε for log sweeps) is at least
// `flat_fraction` of the peak slope; the non-saturated interval is the
// longest contiguous active run. A segment narrower than 0.9 × the
// median segment width (merged refinement rounds make such segments)
// takes its slope over a span widened to that width, so trial noise
// between two close points cannot become the peak; on a uniform sweep
// every slope is the plain per-segment one.
#pragma once

#include <cstddef>
#include <span>

namespace locpriv::core {

struct SaturationOptions {
  /// A segment counts as active when |slope| >= flat_fraction * max|slope|.
  double flat_fraction = 0.15;
};

/// The detected non-saturated interval, as inclusive point indices into
/// the sweep plus the corresponding x bounds.
struct ActiveInterval {
  std::size_t first = 0;  ///< index of the first non-saturated point
  std::size_t last = 0;   ///< index of the last non-saturated point (inclusive)
  double x_low = 0.0;     ///< model-space x at `first`
  double x_high = 0.0;    ///< model-space x at `last`

  [[nodiscard]] std::size_t point_count() const { return last - first + 1; }
};

/// Detects the non-saturated interval of y(x). `x` must be strictly
/// increasing; sizes must match with at least 3 points. When the curve
/// is entirely flat the result collapses to the steepest single segment.
/// Throws std::invalid_argument on malformed input.
[[nodiscard]] ActiveInterval detect_active_interval(std::span<const double> x,
                                                    std::span<const double> y,
                                                    const SaturationOptions& opts = {});

/// Intersection of two intervals (e.g. where *both* Pr and Ut respond,
/// the region the paper's joint model covers). Throws std::runtime_error
/// when the intervals are disjoint.
[[nodiscard]] ActiveInterval intersect(const ActiveInterval& a, const ActiveInterval& b,
                                       std::span<const double> x);

}  // namespace locpriv::core
