// Cell-hit ratio: the fraction of protected reports that still fall in
// the city block of the corresponding actual report — the literal
// reading of the paper's "80 % of her requests will concern the city
// block where she is". Reports are paired by index when the mechanism
// preserves cardinality, otherwise by nearest timestamp.
#pragma once

#include "metrics/metric.h"

namespace locpriv::metrics {

class CellHitRatio final : public TraceMetric {
 public:
  explicit CellHitRatio(double cell_size_m = 115.0);

  [[nodiscard]] const std::string& name() const override;
  [[nodiscard]] Direction direction() const override { return Direction::kHigherIsMoreUseful; }
  [[nodiscard]] double evaluate_trace(const EvalContext& ctx, std::size_t user) const override;

  [[nodiscard]] double cell_size() const { return cell_size_m_; }

 private:
  double cell_size_m_;
};

}  // namespace locpriv::metrics
