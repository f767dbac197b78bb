#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/saturation.h"
#include "core/sweep.h"
#include "stats/rng.h"

namespace locpriv::core {
namespace {

/// A saturating S-curve: flat at 0 below x=-2, linear middle, flat at 1
/// above x=2 — the shape of Figure 1's metrics against ln eps.
std::vector<double> scurve(const std::vector<double>& xs) {
  std::vector<double> ys;
  for (const double x : xs) ys.push_back(std::clamp(0.25 * (x + 2.0), 0.0, 1.0));
  return ys;
}

std::vector<double> linspace(double lo, double hi, std::size_t n) {
  std::vector<double> xs;
  for (std::size_t i = 0; i < n; ++i) {
    xs.push_back(lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(n - 1));
  }
  return xs;
}

TEST(Saturation, FindsMiddleOfSCurve) {
  const std::vector<double> xs = linspace(-6.0, 6.0, 25);
  const ActiveInterval iv = detect_active_interval(xs, scurve(xs));
  // The active region is about [-2, 2]; allow one grid point of slack.
  EXPECT_NEAR(iv.x_low, -2.0, 0.6);
  EXPECT_NEAR(iv.x_high, 2.0, 0.6);
  EXPECT_GE(iv.point_count(), 6u);
}

TEST(Saturation, FullyLinearCurveKeepsEverything) {
  const std::vector<double> xs = linspace(0.0, 10.0, 11);
  std::vector<double> ys;
  for (const double x : xs) ys.push_back(2.0 * x + 1.0);
  const ActiveInterval iv = detect_active_interval(xs, ys);
  EXPECT_EQ(iv.first, 0u);
  EXPECT_EQ(iv.last, 10u);
}

TEST(Saturation, FlatCurveCollapsesGracefully) {
  const std::vector<double> xs = linspace(0.0, 10.0, 11);
  const std::vector<double> ys(11, 0.5);
  const ActiveInterval iv = detect_active_interval(xs, ys);
  EXPECT_EQ(iv.point_count(), 2u);  // degenerate but well-formed
}

TEST(Saturation, DecreasingCurveWorksToo) {
  const std::vector<double> xs = linspace(-6.0, 6.0, 25);
  std::vector<double> ys = scurve(xs);
  for (double& y : ys) y = 1.0 - y;  // mirror
  const ActiveInterval iv = detect_active_interval(xs, ys);
  EXPECT_NEAR(iv.x_low, -2.0, 0.6);
  EXPECT_NEAR(iv.x_high, 2.0, 0.6);
}

TEST(Saturation, NoisyFlatTailsAreExcluded) {
  const std::vector<double> xs = linspace(-8.0, 8.0, 33);
  std::vector<double> ys = scurve(xs);
  // Add tiny wiggle in the tails (1 % of peak slope).
  for (std::size_t i = 0; i < ys.size(); ++i) {
    if (xs[i] < -3.0 || xs[i] > 3.0) ys[i] += ((i % 2 == 0) ? 1.0 : -1.0) * 1e-4;
  }
  const ActiveInterval iv = detect_active_interval(xs, ys);
  EXPECT_GE(iv.x_low, -3.1);
  EXPECT_LE(iv.x_high, 3.1);
}

TEST(Saturation, FlatFractionControlsStrictness) {
  const std::vector<double> xs = linspace(-6.0, 6.0, 49);
  // Gentle sigmoid: tanh has slowly decaying slope, so a stricter
  // threshold yields a narrower interval.
  std::vector<double> ys;
  for (const double x : xs) ys.push_back(std::tanh(x));
  const ActiveInterval loose = detect_active_interval(xs, ys, {0.05});
  const ActiveInterval strict = detect_active_interval(xs, ys, {0.5});
  EXPECT_LT(strict.point_count(), loose.point_count());
}

/// The per-segment rule: each segment's slope over its own width, then
/// the longest run at or above flat_fraction x peak (ties: the run
/// holding the first peak, then the earlier run). The detector must
/// reproduce it exactly on uniform sweeps.
std::pair<std::size_t, std::size_t> per_segment_interval(const std::vector<double>& xs,
                                                         const std::vector<double>& ys,
                                                         double flat_fraction) {
  std::vector<double> slope;
  for (std::size_t i = 0; i + 1 < xs.size(); ++i) {
    slope.push_back(std::abs((ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i])));
  }
  const auto peak_it = std::max_element(slope.begin(), slope.end());
  const auto peak = static_cast<std::size_t>(peak_it - slope.begin());
  const double threshold = flat_fraction * *peak_it;
  std::size_t best_start = peak;
  std::size_t best_len = 1;
  bool best_has_peak = true;
  for (std::size_t i = 0; i < slope.size();) {
    std::size_t j = i;
    while (j < slope.size() && slope[j] >= threshold) ++j;
    if (j == i) {
      ++i;
      continue;
    }
    const bool has_peak = peak >= i && peak < j;
    if (j - i > best_len || (j - i == best_len && has_peak && !best_has_peak)) {
      best_start = i;
      best_len = j - i;
      best_has_peak = has_peak;
    }
    i = j;
  }
  return {best_start, best_start + best_len};
}

TEST(Saturation, UniformSweepsKeepThePerSegmentInterval) {
  // Noisy S-curves on the log-ε grid a sweep uses: every segment is as
  // wide as the median, so no slope may be taken over a wider span.
  SweepSpec spec;
  spec.min_value = 1e-4;
  spec.max_value = 1.0;
  spec.point_count = 21;
  std::vector<double> xs;
  std::vector<double> centred;  // the S-curve's transition at ln ε ≈ -5
  for (const double eps : sweep_values(spec)) {
    xs.push_back(model_x(eps, spec.scale));
    centred.push_back(xs.back() + 5.0);
  }
  for (const double noise : {0.01, 0.05, 0.2}) {
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
      stats::Rng rng(seed);
      std::vector<double> ys = scurve(centred);
      for (double& y : ys) y += noise * rng.normal();
      const ActiveInterval iv = detect_active_interval(xs, ys);
      const auto [first, last] = per_segment_interval(xs, ys, SaturationOptions{}.flat_fraction);
      EXPECT_EQ(iv.first, first) << "noise " << noise << " seed " << seed;
      EXPECT_EQ(iv.last, last) << "noise " << noise << " seed " << seed;
    }
  }
}

TEST(Saturation, NarrowSegmentNoiseDoesNotBecomeThePeak) {
  // A refinement round merged into a coarse sweep can put two points
  // 0.01 apart where the grid step is 0.5. A 0.05 wiggle between them
  // in the saturated tail is a per-segment slope of 5, twenty times the
  // real transition's 0.25, which would then fall under the threshold.
  std::vector<double> xs = linspace(-6.0, 6.0, 25);
  std::vector<double> ys = scurve(xs);
  xs.insert(xs.begin() + 4, xs[3] + 0.01);
  ys.insert(ys.begin() + 4, ys[3] + 0.05);
  const ActiveInterval iv = detect_active_interval(xs, ys);
  EXPECT_NEAR(iv.x_low, -2.0, 0.6);
  EXPECT_NEAR(iv.x_high, 2.0, 0.6);
}

TEST(Saturation, Validation) {
  const std::vector<double> xs{0, 1, 2};
  const std::vector<double> ys{0, 1};
  EXPECT_THROW((void)detect_active_interval(xs, ys), std::invalid_argument);
  const std::vector<double> two{0, 1};
  EXPECT_THROW((void)detect_active_interval(two, two), std::invalid_argument);
  const std::vector<double> unsorted{0, 2, 1};
  EXPECT_THROW((void)detect_active_interval(unsorted, xs), std::invalid_argument);
  EXPECT_THROW((void)detect_active_interval(xs, xs, {0.0}), std::invalid_argument);
  EXPECT_THROW((void)detect_active_interval(xs, xs, {1.0}), std::invalid_argument);
}

TEST(Saturation, IntersectOverlapping) {
  const std::vector<double> xs = linspace(0.0, 10.0, 11);
  const ActiveInterval a{2, 8, xs[2], xs[8]};
  const ActiveInterval b{5, 10, xs[5], xs[10]};
  const ActiveInterval c = intersect(a, b, xs);
  EXPECT_EQ(c.first, 5u);
  EXPECT_EQ(c.last, 8u);
  EXPECT_DOUBLE_EQ(c.x_low, xs[5]);
}

TEST(Saturation, IntersectDisjointThrows) {
  const std::vector<double> xs = linspace(0.0, 10.0, 11);
  const ActiveInterval a{0, 3, xs[0], xs[3]};
  const ActiveInterval b{7, 10, xs[7], xs[10]};
  EXPECT_THROW((void)intersect(a, b, xs), std::runtime_error);
}

}  // namespace
}  // namespace locpriv::core
