// Privacy/utility trade-off analysis over sweep results.
//
// A sweep produces a cloud of (Pr, Ut) operating points; the Pareto
// front is the subset no other point dominates, and the normalized area
// the front dominates is a single-number quality score for a mechanism's
// trade-off curve — the basis for mechanism-vs-mechanism comparison
// beyond single operating points.
#pragma once

#include <vector>

#include "core/experiment.h"
#include "metrics/metric.h"

namespace locpriv::core {

/// One operating point in normalized "goodness" space: both coordinates
/// oriented so that higher = better, per the metrics' declared directions.
struct TradeoffPoint {
  double parameter_value = 0.0;
  double privacy_goodness = 0.0;  ///< higher = more private
  double utility_goodness = 0.0;  ///< higher = more useful
};

/// Converts sweep points into goodness space. Metrics whose direction is
/// "lower is better" are negated, so dominance is uniform.
[[nodiscard]] std::vector<TradeoffPoint> to_tradeoff_points(const SweepResult& sweep);

/// The Pareto-optimal subset (no other point is >= in both coordinates
/// and > in one), sorted by ascending utility_goodness.
[[nodiscard]] std::vector<TradeoffPoint> pareto_front(std::vector<TradeoffPoint> points);

/// One area per curve, all in one frame: both axes min-max normalized
/// over the union of every curve's points. A curve's area is the part
/// of the unit square its Pareto front dominates, so a curve that
/// another dominates at every privacy level scores no higher, however
/// narrow its own range. In [0, 1]; higher = a better trade-off. Throws
/// std::invalid_argument on an empty curve or when the union has no
/// spread on an axis.
[[nodiscard]] std::vector<double> tradeoff_auc(
    const std::vector<std::vector<TradeoffPoint>>& curves);

}  // namespace locpriv::core
