#include "core/tradeoff.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace locpriv::core {

std::vector<TradeoffPoint> to_tradeoff_points(const SweepResult& sweep) {
  const double pr_sign =
      sweep.privacy_direction == metrics::Direction::kHigherIsMorePrivate ? 1.0 : -1.0;
  const double ut_sign =
      sweep.utility_direction == metrics::Direction::kHigherIsMoreUseful ? 1.0 : -1.0;
  std::vector<TradeoffPoint> points;
  points.reserve(sweep.points.size());
  for (const SweepPoint& p : sweep.points) {
    points.push_back({p.parameter_value, pr_sign * p.privacy_mean, ut_sign * p.utility_mean});
  }
  return points;
}

std::vector<TradeoffPoint> pareto_front(std::vector<TradeoffPoint> points) {
  // Sort by descending utility; walk keeping points whose privacy
  // strictly improves on everything seen (classic 2-d skyline).
  std::sort(points.begin(), points.end(), [](const TradeoffPoint& a, const TradeoffPoint& b) {
    if (a.utility_goodness != b.utility_goodness) return a.utility_goodness > b.utility_goodness;
    return a.privacy_goodness > b.privacy_goodness;
  });
  std::vector<TradeoffPoint> front;
  double best_privacy = -std::numeric_limits<double>::infinity();
  for (const TradeoffPoint& p : points) {
    if (p.privacy_goodness > best_privacy) {
      front.push_back(p);
      best_privacy = p.privacy_goodness;
    }
  }
  std::reverse(front.begin(), front.end());  // ascending utility
  return front;
}

std::vector<double> tradeoff_auc(const std::vector<std::vector<TradeoffPoint>>& curves) {
  double pr_lo = std::numeric_limits<double>::infinity();
  double pr_hi = -pr_lo;
  double ut_lo = pr_lo;
  double ut_hi = -pr_lo;
  for (const std::vector<TradeoffPoint>& curve : curves) {
    if (curve.empty()) throw std::invalid_argument("tradeoff_auc: empty curve");
    for (const TradeoffPoint& p : curve) {
      pr_lo = std::min(pr_lo, p.privacy_goodness);
      pr_hi = std::max(pr_hi, p.privacy_goodness);
      ut_lo = std::min(ut_lo, p.utility_goodness);
      ut_hi = std::max(ut_hi, p.utility_goodness);
    }
  }
  if (!(pr_hi > pr_lo) || !(ut_hi > ut_lo)) {
    throw std::invalid_argument("tradeoff_auc: zero spread on an axis");
  }
  auto norm_pr = [&](double v) { return (v - pr_lo) / (pr_hi - pr_lo); };
  auto norm_ut = [&](double v) { return (v - ut_lo) / (ut_hi - ut_lo); };

  std::vector<double> areas;
  areas.reserve(curves.size());
  for (const std::vector<TradeoffPoint>& curve : curves) {
    // The front ascends in utility and descends in privacy, so the best
    // privacy reachable at utility u is that of the first front point at
    // or beyond u: a step curve, 0 past the last point.
    double area = 0.0;
    double prev_ut = 0.0;
    for (const TradeoffPoint& p : pareto_front(curve)) {
      const double ut = norm_ut(p.utility_goodness);
      area += (ut - prev_ut) * norm_pr(p.privacy_goodness);
      prev_ut = ut;
    }
    areas.push_back(area);
  }
  return areas;
}

}  // namespace locpriv::core
