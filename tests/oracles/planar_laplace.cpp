#include "oracles/planar_laplace.h"

#include <cmath>
#include <stdexcept>

#include "oracles/lambert_w.h"

namespace locpriv::stats {

double planar_laplace_radius_cdf(double eps, double r) {
  if (!(eps > 0.0)) throw std::invalid_argument("planar_laplace_radius_cdf: eps must be > 0");
  if (r <= 0.0) return 0.0;
  return 1.0 - (1.0 + eps * r) * std::exp(-eps * r);
}

double planar_laplace_radius_quantile(double eps, double p) {
  if (!(eps > 0.0)) throw std::invalid_argument("planar_laplace_radius_quantile: eps must be > 0");
  if (p < 0.0 || p >= 1.0) {
    throw std::invalid_argument("planar_laplace_radius_quantile: p outside [0, 1)");
  }
  if (p == 0.0) return 0.0;
  // r = -(1/eps) (W_{-1}((p-1)/e) + 1); (p-1)/e lies in [-1/e, 0).
  const double arg = (p - 1.0) * std::exp(-1.0);
  return -(lambert_wm1(arg) + 1.0) / eps;
}

}  // namespace locpriv::stats
