// The planar-Laplace radius law in closed form.
//
// A test oracle: the analytic CDF and its exact inverse, against which
// tests check stats::sample_planar_laplace (Kolmogorov–Smirnov on the
// radius, quantiles of the displacement).
#pragma once

namespace locpriv::stats {

/// Radius CDF of the planar Laplace distribution with parameter eps:
/// C(r) = 1 - (1 + eps r) e^{-eps r}. Requires eps > 0.
[[nodiscard]] double planar_laplace_radius_cdf(double eps, double r);

/// Inverse radius CDF: the radius of probability mass p,
/// r = -(1/eps)·(W₋₁((p-1)/e) + 1). Requires eps > 0, p in [0, 1).
[[nodiscard]] double planar_laplace_radius_quantile(double eps, double p);

}  // namespace locpriv::stats
