// Mean spatial distortion: average distance (meters) between each actual
// report and its protected counterpart. Lower = more useful. The
// classic utility loss measure; included for the metric-modularity
// ablation and as a sanity anchor (for Geo-I it should track 2/ε).
#pragma once

#include "metrics/metric.h"

namespace locpriv::metrics {

class MeanDistortion final : public TraceMetric {
 public:
  MeanDistortion() = default;

  [[nodiscard]] const std::string& name() const override;
  [[nodiscard]] Direction direction() const override { return Direction::kLowerIsMoreUseful; }
  [[nodiscard]] double evaluate_trace(const EvalContext& ctx, std::size_t user) const override;
};

}  // namespace locpriv::metrics
