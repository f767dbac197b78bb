// Worst-case POI retrieval: the maximum recall over the implemented
// adversary ensemble (naive, smoothing, noise-adaptive, gap
// interpolation).
//
// A privacy promise only means something against the strongest attack
// the defender is willing to model; configuring against any single
// adversary silently assumes the attacker picked that one. This metric
// evaluates every attack and scores the worst outcome — drop it into a
// SystemDefinition and the whole framework calibrates against the
// ensemble.
#pragma once

#include "attack/adaptive.h"
#include "attack/interpolation.h"
#include "attack/smoothing.h"
#include "metrics/metric.h"

namespace locpriv::metrics {

class WorstCasePoiRetrieval final : public TraceMetric {
 public:
  struct Config {
    attack::PoiAttackConfig naive;
    attack::SmoothingAttackConfig smoothing;
    attack::AdaptiveAttackConfig adaptive;
    attack::InterpolationAttackConfig interpolation;
  };

  explicit WorstCasePoiRetrieval(Config cfg = {});

  [[nodiscard]] const std::string& name() const override;
  [[nodiscard]] Direction direction() const override {
    return Direction::kLowerIsMorePrivate;
  }
  [[nodiscard]] double evaluate_trace(const EvalContext& ctx, std::size_t user) const override;

 private:
  Config cfg_;
};

}  // namespace locpriv::metrics
