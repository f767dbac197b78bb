// Metric transforms.
//
// The log-linear model assumes the metric responds roughly linearly in
// ln(parameter) over a bounded span. Bounded metrics (fractions, F1)
// satisfy that; scale-free metrics like mean distortion (= 2/ε for
// Geo-I, varying over four decades) do not — their saturation detector
// sees one huge slope at the low end and discards everything else. The
// standard remedy is to model ln(1 + metric) instead, which this adapter
// applies around any inner metric.
#pragma once

#include <memory>

#include "metrics/metric.h"

namespace locpriv::metrics {

/// Wraps a metric, reporting ln(1 + inner value). Monotone, so objective
/// senses and directions carry over unchanged; an objective "distortion
/// <= D" becomes "log-distortion <= ln(1 + D)".
class LogTransformedMetric final : public Metric {
 public:
  /// Takes ownership of `inner`; throws std::invalid_argument on null.
  explicit LogTransformedMetric(std::unique_ptr<const Metric> inner);

  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] Direction direction() const override { return inner_->direction(); }
  [[nodiscard]] double evaluate(const EvalContext& ctx) const override;

 private:
  std::unique_ptr<const Metric> inner_;
  std::string name_;
};

}  // namespace locpriv::metrics
