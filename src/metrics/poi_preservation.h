// POI preservation — the same quantity as PoiRetrieval, read from the
// other side of the table.
//
// For the *adversary*, retrieving POIs from protected data is the privacy
// loss; for a *consenting* application (a running log, a travel diary,
// venue check-in analytics), the user's meaningful places surviving
// protection is the product. Whether POI recoverability is Pr or Ut is a
// designer's declaration, not a property of the number — registering it
// on both axes is the sharpest demonstration of the paper's metric
// modularity.
#pragma once

#include "attack/poi_attack.h"
#include "metrics/metric.h"

namespace locpriv::metrics {

class PoiPreservation final : public TraceMetric {
 public:
  explicit PoiPreservation(attack::PoiAttackConfig cfg = {});

  [[nodiscard]] const std::string& name() const override;
  [[nodiscard]] Direction direction() const override { return Direction::kHigherIsMoreUseful; }
  /// Shares its "poi-set" artifacts with PoiRetrieval when the configs
  /// agree (they do at defaults) — the two metrics then cost one
  /// extraction pass instead of two.
  [[nodiscard]] double evaluate_trace(const EvalContext& ctx, std::size_t user) const override;

 private:
  attack::PoiAttackConfig cfg_;
};

}  // namespace locpriv::metrics
