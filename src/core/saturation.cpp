#include "core/saturation.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace locpriv::core {
namespace {

constexpr double kMinWidthFraction = 0.9;

}  // namespace

ActiveInterval detect_active_interval(std::span<const double> x, std::span<const double> y,
                                      const SaturationOptions& opts) {
  if (x.size() != y.size()) throw std::invalid_argument("detect_active_interval: size mismatch");
  if (x.size() < 3) throw std::invalid_argument("detect_active_interval: need at least 3 points");
  if (!(opts.flat_fraction > 0.0 && opts.flat_fraction < 1.0)) {
    throw std::invalid_argument("detect_active_interval: flat_fraction must be in (0, 1)");
  }
  for (std::size_t i = 1; i < x.size(); ++i) {
    if (!(x[i] > x[i - 1])) {
      throw std::invalid_argument("detect_active_interval: x must be strictly increasing");
    }
  }

  // Local absolute slopes per segment [i, i+1]. A segment narrower than
  // kMinWidthFraction × the median width takes its slope over a span
  // grown toward its nearer neighbours until it is that wide.
  const std::size_t segments = x.size() - 1;
  std::vector<double> widths(segments);
  for (std::size_t i = 0; i < segments; ++i) widths[i] = x[i + 1] - x[i];
  std::nth_element(widths.begin(), widths.begin() + segments / 2, widths.end());
  const double min_width = kMinWidthFraction * widths[segments / 2];

  std::vector<double> slope(segments);
  double peak = 0.0;
  std::size_t peak_seg = 0;
  for (std::size_t i = 0; i < segments; ++i) {
    std::size_t lo = i;
    std::size_t hi = i + 1;
    while (x[hi] - x[lo] < min_width && (lo > 0 || hi < segments)) {
      const bool grow_up = lo == 0 || (hi < segments && x[hi + 1] - x[hi] <= x[lo] - x[lo - 1]);
      if (grow_up) {
        ++hi;
      } else {
        --lo;
      }
    }
    slope[i] = std::abs((y[hi] - y[lo]) / (x[hi] - x[lo]));
    if (slope[i] > peak) {
      peak = slope[i];
      peak_seg = i;
    }
  }

  ActiveInterval interval;
  if (peak == 0.0) {
    // Entirely flat curve: no informative interval; collapse to the
    // first segment so callers still get a well-formed range.
    interval.first = 0;
    interval.last = 1;
  } else {
    const double threshold = opts.flat_fraction * peak;
    // Longest contiguous run of active segments; ties resolved in favor
    // of the run containing the peak segment, then the earlier run.
    std::size_t best_start = peak_seg;
    std::size_t best_len = 1;
    bool best_has_peak = true;
    std::size_t run_start = 0;
    std::size_t run_len = 0;
    for (std::size_t i = 0; i <= segments; ++i) {
      const bool active = i < segments && slope[i] >= threshold;
      if (active) {
        if (run_len == 0) run_start = i;
        ++run_len;
      } else if (run_len > 0) {
        const bool has_peak = peak_seg >= run_start && peak_seg < run_start + run_len;
        const bool better = run_len > best_len || (run_len == best_len && has_peak && !best_has_peak);
        if (better) {
          best_start = run_start;
          best_len = run_len;
          best_has_peak = has_peak;
        }
        run_len = 0;
      }
    }
    interval.first = best_start;
    interval.last = best_start + best_len;  // segment run [s, s+len) spans points [s, s+len]
  }
  interval.x_low = x[interval.first];
  interval.x_high = x[interval.last];
  return interval;
}

ActiveInterval intersect(const ActiveInterval& a, const ActiveInterval& b,
                         std::span<const double> x) {
  ActiveInterval out;
  out.first = std::max(a.first, b.first);
  out.last = std::min(a.last, b.last);
  if (out.first >= out.last) {
    throw std::runtime_error(
        "intersect: non-saturated intervals of the two metrics are disjoint");
  }
  out.x_low = x[out.first];
  out.x_high = x[out.last];
  return out;
}

}  // namespace locpriv::core
