// The adaptive streaming session: Geo-I noise at the controller's
// CURRENT ε, budget-metered with variable spend.
//
// Drop-in replacement for lppm::BudgetedGeoIndSession in the gateway's
// session factory. Each delivered report (1) spends the controller's
// current ε against the sliding-window GeoIndBudget — variable spend,
// monotone: stepping ε up drains the window faster, never mints budget
// — (2) perturbs with planar Laplace at that ε, and (3) feeds the
// (actual, protected) pair to the PrivacyController, whose decisions go
// to the gateway's ControlLog through the decision sink. Suppressed
// reports never reach the controller: it estimates what the adversary
// actually saw.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "lppm/online.h"
#include "service/adaptive/controller.h"

namespace locpriv::service::adaptive {

class AdaptiveGeoIndSession final : public lppm::StreamSession {
 public:
  /// Receives every control decision (for the gateway's ControlLog).
  /// Called on the thread that drives the gateway, under the session
  /// lock; may be empty.
  using DecisionSink = std::function<void(const ControlDecision&)>;

  AdaptiveGeoIndSession(const ObjectiveSpec& spec, double initial_eps, lppm::GeoIndBudget budget,
                        std::uint64_t seed, std::shared_ptr<const metrics::Metric> privacy,
                        std::shared_ptr<const metrics::Metric> utility, DecisionSink on_decision);

  [[nodiscard]] std::optional<trace::Event> report(const trace::Event& e) override;

  [[nodiscard]] const lppm::GeoIndBudget& budget_state() const { return budget_; }
  [[nodiscard]] const PrivacyController& controller() const { return controller_; }
  [[nodiscard]] double epsilon() const { return controller_.epsilon(); }
  [[nodiscard]] std::size_t suppressed_count() const { return suppressed_; }

 private:
  PrivacyController controller_;
  lppm::GeoIndBudget budget_;
  stats::Rng rng_;
  DecisionSink on_decision_;
  std::size_t suppressed_ = 0;
};

}  // namespace locpriv::service::adaptive
