// Lambert W function (real branches).
//
// A test oracle: the W₋₁ branch gives the planar-Laplace radius quantile
// in closed form (oracles/planar_laplace.h), the exact inverse-CDF
// reference the production sampler (stats::sample_planar_laplace) is
// checked against. Both real branches are implemented with analytic
// seeds refined by Halley iterations.
#pragma once

namespace locpriv::stats {

/// Principal branch W₀(x), defined for x ≥ -1/e; W₀(x) ≥ -1.
/// Throws std::domain_error for x < -1/e (beyond rounding slack).
[[nodiscard]] double lambert_w0(double x);

/// Secondary real branch W₋₁(x), defined for x ∈ [-1/e, 0); W₋₁(x) ≤ -1.
/// Throws std::domain_error outside the branch domain.
[[nodiscard]] double lambert_wm1(double x);

}  // namespace locpriv::stats
