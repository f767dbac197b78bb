// DTW distortion: mean per-step DTW alignment cost (meters) between
// actual and protected trajectories. Speed- and sampling-invariant, so
// it stays meaningful for mechanisms that resample the trace (Promesse)
// where index- or time-paired distortion misleads. Lower = more useful.
// Unbounded like mean-distortion: model it through the log transform.
#pragma once

#include "metrics/metric.h"
#include "stats/dtw.h"

namespace locpriv::metrics {

class DtwDistortion final : public TraceMetric {
 public:
  explicit DtwDistortion(stats::DtwOptions options = {});

  [[nodiscard]] const std::string& name() const override;
  [[nodiscard]] Direction direction() const override { return Direction::kLowerIsMoreUseful; }
  [[nodiscard]] double evaluate_trace(const EvalContext& ctx, std::size_t user) const override;

 private:
  stats::DtwOptions options_;
};

}  // namespace locpriv::metrics
