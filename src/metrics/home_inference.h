// Home-inference rate: the fraction of users whose home location an
// adversary still pinpoints from the protected data — the concrete
// "home/work places can be inferred" threat the paper's introduction
// leads with. Ground truth is the inference run on the clean trace (the
// strongest consistent reference available without generator metadata).
// Lower = more private.
#pragma once

#include "attack/homework.h"
#include "metrics/metric.h"

namespace locpriv::metrics {

class HomeInferenceRate final : public TraceMetric {
 public:
  /// `tolerance_m` is how close the adversary's guess must land to the
  /// true home to count as a hit.
  explicit HomeInferenceRate(attack::HomeWorkConfig cfg = {}, double tolerance_m = 300.0);

  [[nodiscard]] const std::string& name() const override;
  [[nodiscard]] Direction direction() const override {
    return Direction::kLowerIsMorePrivate;
  }
  /// 1.0 when the home inferred from the protected trace lands within
  /// tolerance of the home inferred from the actual trace, else 0.0
  /// (users with no inferable home score 0: nothing to leak).
  [[nodiscard]] double evaluate_trace(const EvalContext& ctx, std::size_t user) const override;

 private:
  attack::HomeWorkConfig cfg_;
  double tolerance_m_;
};

}  // namespace locpriv::metrics
