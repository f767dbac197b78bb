// Spatial entropy gain: how much the protected trace's spatial
// distribution spreads relative to the actual one, in nats, measured on
// the city-block grid. Higher = more private (the adversary's posterior
// over cells is flatter). A distribution-level privacy lens that does
// not depend on POI semantics — useful to cross-check POI retrieval.
#pragma once

#include "metrics/metric.h"

namespace locpriv::metrics {

class SpatialEntropyGain final : public TraceMetric {
 public:
  explicit SpatialEntropyGain(double cell_size_m = 115.0);

  [[nodiscard]] const std::string& name() const override;
  [[nodiscard]] Direction direction() const override {
    return Direction::kHigherIsMorePrivate;
  }
  [[nodiscard]] double evaluate_trace(const EvalContext& ctx, std::size_t user) const override;

 private:
  double cell_size_m_;
};

}  // namespace locpriv::metrics
