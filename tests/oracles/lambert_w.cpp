#include "oracles/lambert_w.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace locpriv::stats {
namespace {

constexpr double kInvE = 0.36787944117144232159552377016146;  // 1/e
constexpr int kMaxIterations = 64;
constexpr double kTolerance = 1e-14;

/// Halley's method on f(w) = w e^w - x. Cubic convergence; with a decent
/// seed a handful of iterations reaches machine precision. Near the
/// branch point (w ≈ -1) the derivative vanishes, so iteration stops on
/// a degenerate denominator and the series seed is returned as-is.
double halley_refine(double w, double x) {
  for (int i = 0; i < kMaxIterations; ++i) {
    const double ew = std::exp(w);
    const double f = w * ew - x;
    if (f == 0.0) break;
    const double wp1 = w + 1.0;
    const double denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1);
    if (!std::isfinite(denom) || denom == 0.0) break;
    const double step = f / denom;
    if (!std::isfinite(step)) break;
    w -= step;
    if (std::abs(step) <= kTolerance * (1.0 + std::abs(w))) break;
  }
  return w;
}

/// Distance above the branch point, clamped against rounding: for
/// x == -1/e the exact value is 0 but floating arithmetic can yield a
/// tiny negative.
double branch_offset(double x) { return std::max(0.0, 2.0 * (std::exp(1.0) * x + 1.0)); }

}  // namespace

double lambert_w0(double x) {
  if (std::isnan(x)) throw std::domain_error("lambert_w0: NaN input");
  if (x < -kInvE) {
    if (x > -kInvE - 1e-12) return -1.0;  // rounding slack at the branch point
    throw std::domain_error("lambert_w0: x < -1/e");
  }
  if (x == 0.0) return 0.0;
  double w;
  if (x < -0.25) {
    // Series around the branch point x = -1/e: W = -1 + p - p^2/3 + ...,
    // p = sqrt(2 (e x + 1)).
    const double p = std::sqrt(branch_offset(x));
    w = -1.0 + p - p * p / 3.0 + 11.0 * p * p * p / 72.0;
    if (p < 1e-4) return w;  // series already at machine precision
  } else if (x < 3.0) {
    // Pade-ish seed near zero; Halley converges from here for all
    // moderate x (the asymptotic seed below breaks down at ln x ≈ 0).
    w = x * (1.0 - x + 1.5 * x * x) / (1.0 + 0.5 * x);
    w = std::clamp(w, -0.99, 1.5);
  } else {
    // Asymptotic seed for large x: W ≈ ln x - ln ln x + ln ln x / ln x.
    const double l1 = std::log(x);
    const double l2 = std::log(l1);
    w = l1 - l2 + l2 / l1;
  }
  return halley_refine(w, x);
}

double lambert_wm1(double x) {
  if (std::isnan(x)) throw std::domain_error("lambert_wm1: NaN input");
  if (x >= 0.0 || x < -kInvE) {
    if (x < -kInvE && x > -kInvE - 1e-12) return -1.0;
    throw std::domain_error("lambert_wm1: x outside [-1/e, 0)");
  }
  double w;
  if (x < -0.25) {
    // Series around the branch point, lower sign: W = -1 - p - p^2/3 - ...
    const double p = std::sqrt(branch_offset(x));
    w = -1.0 - p - p * p / 3.0 - 11.0 * p * p * p / 72.0;
    if (p < 1e-4) return w;
  } else {
    // Asymptotic seed near zero⁻: W ≈ ln(-x) - ln(-ln(-x)).
    const double l1 = std::log(-x);
    const double l2 = std::log(-l1);
    w = l1 - l2 + l2 / l1;
  }
  return halley_refine(w, x);
}

}  // namespace locpriv::stats
