// Trip-length preservation: relative error of total path length between
// actual and protected traces. Mobility analytics (fleet mileage,
// congestion models) consume path lengths directly; additive noise
// inflates them (each report wiggles), suppression deflates them.
// Lower = more useful.
#pragma once

#include "metrics/metric.h"

namespace locpriv::metrics {

class TripLengthError final : public TraceMetric {
 public:
  TripLengthError() = default;

  [[nodiscard]] const std::string& name() const override;
  [[nodiscard]] Direction direction() const override { return Direction::kLowerIsMoreUseful; }
  /// |len(protected) - len(actual)| / len(actual); 0 when the actual
  /// trace has zero length (nothing to preserve).
  [[nodiscard]] double evaluate_trace(const EvalContext& ctx, std::size_t user) const override;
};

}  // namespace locpriv::metrics
