// One-sample Kolmogorov–Smirnov goodness-of-fit test.
//
// A test oracle. The library's correctness rests on sampled
// distributions matching their analytic forms (planar-Laplace radii
// above all); the KS statistic turns "looks close" into a quantified
// check.
#pragma once

#include <functional>
#include <span>

namespace locpriv::stats {

struct KsResult {
  double statistic = 0.0;  ///< sup |F_empirical - F_theoretical|
  double p_value = 0.0;    ///< asymptotic (Kolmogorov distribution) p-value
};

/// Tests `sample` against the CDF `cdf`. Requires a non-empty sample.
/// The p-value uses the asymptotic Kolmogorov series, accurate for
/// n >= ~35 (the usage here is thousands of samples).
[[nodiscard]] KsResult ks_test(std::span<const double> sample,
                               const std::function<double(double)>& cdf);

}  // namespace locpriv::stats
