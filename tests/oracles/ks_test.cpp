#include "oracles/ks_test.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace locpriv::stats {

KsResult ks_test(std::span<const double> sample, const std::function<double(double)>& cdf) {
  if (sample.empty()) throw std::invalid_argument("ks_test: empty sample");
  if (!cdf) throw std::invalid_argument("ks_test: null cdf");

  std::vector<double> sorted(sample.begin(), sample.end());
  std::sort(sorted.begin(), sorted.end());
  const double n = static_cast<double>(sorted.size());

  double d = 0.0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const double f = cdf(sorted[i]);
    // Empirical CDF jumps at each sorted point: compare both sides.
    const double below = static_cast<double>(i) / n;
    const double above = static_cast<double>(i + 1) / n;
    d = std::max({d, std::abs(f - below), std::abs(f - above)});
  }

  KsResult result;
  result.statistic = d;
  // Asymptotic p-value: P(D > d) ≈ 2 Σ_{k>=1} (-1)^{k-1} e^{-2 k^2 λ^2},
  // λ = d (√n + 0.12 + 0.11/√n)  (Stephens' small-sample correction).
  const double sqrt_n = std::sqrt(n);
  const double lambda = d * (sqrt_n + 0.12 + 0.11 / sqrt_n);
  double p = 0.0;
  double sign = 1.0;
  for (int k = 1; k <= 100; ++k) {
    const double term = std::exp(-2.0 * k * k * lambda * lambda);
    p += sign * term;
    sign = -sign;
    if (term < 1e-12) break;
  }
  result.p_value = std::clamp(2.0 * p, 0.0, 1.0);
  return result;
}

}  // namespace locpriv::stats
