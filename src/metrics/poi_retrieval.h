// The paper's privacy metric: fraction of actual POIs retrieved from the
// protected data by the POI attack. Lower = more private; the paper's
// objective is "at most 10 % of the POIs".
#pragma once

#include "attack/poi_attack.h"
#include "metrics/metric.h"

namespace locpriv::metrics {

class PoiRetrieval final : public TraceMetric {
 public:
  explicit PoiRetrieval(attack::PoiAttackConfig cfg = {});

  [[nodiscard]] const std::string& name() const override;
  [[nodiscard]] Direction direction() const override {
    return Direction::kLowerIsMorePrivate;
  }
  /// Sources both POI sets ("poi-set" artifacts) from the context caches.
  [[nodiscard]] double evaluate_trace(const EvalContext& ctx, std::size_t user) const override;

  [[nodiscard]] const attack::PoiAttackConfig& config() const { return cfg_; }

 private:
  attack::PoiAttackConfig cfg_;
};

}  // namespace locpriv::metrics
