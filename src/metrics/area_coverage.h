// The paper's utility metric: similarity of area coverage at city-block
// granularity between actual and protected traces. Implemented as the F1
// of covered grid cells; higher = more useful. (Jaccard variant exposed
// for the metric-modularity ablation.)
#pragma once

#include "metrics/metric.h"

namespace locpriv::metrics {

class AreaCoverage final : public TraceMetric {
 public:
  enum class Flavor { kF1, kJaccard };

  /// `cell_size_m` is the city-block scale of the utility objective.
  explicit AreaCoverage(double cell_size_m = 115.0, Flavor flavor = Flavor::kF1);

  [[nodiscard]] const std::string& name() const override;
  [[nodiscard]] Direction direction() const override { return Direction::kHigherIsMoreUseful; }
  [[nodiscard]] double evaluate_trace(const EvalContext& ctx, std::size_t user) const override;

  [[nodiscard]] double cell_size() const { return cell_size_m_; }

 private:
  double cell_size_m_;
  Flavor flavor_;
  std::string name_;
};

}  // namespace locpriv::metrics
