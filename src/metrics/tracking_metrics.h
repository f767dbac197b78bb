// Tracking-attack metrics — the correlation-aware side of the privacy
// axis (see attack/tracking.h for the attack model).
//
// Two metrics share one de-noising pass per user, cached as protected-
// side artifacts:
//
//   tracking-error    mean distance between the attack's estimated
//                     trajectory and the actual one; HIGHER is more
//                     private (the attack failed to localize).
//   tracking-reident  re-identification linkage run on the de-noised
//                     traces instead of the raw protected ones; LOWER
//                     is more private. This is the attack-stacking
//                     number the bench compares against plain POI
//                     retrieval.
//
// Prior fitting honors the context's SplitView: with a split attached
// the occupancy prior is fitted on the train side only (one cached
// dataset-scope artifact per partition); without one it is fitted
// leave-one-out — everyone except the scored user — so the population
// prior never includes the target's own trace (the latent bug class the
// PR 7 audit pinned; regression-tested in test_attack_tracking).
#pragma once

#include <memory>

#include "attack/reident.h"
#include "attack/tracking.h"
#include "metrics/metric.h"

namespace locpriv::metrics {

/// Cached occupancy prior for scoring `user`: split-train-fitted when a
/// SplitView is attached ("tracking-prior", dataset scope, keyed by the
/// partition id), leave-one-out otherwise ("tracking-prior-loo", keyed
/// per user). Exposed for the bench and the split-disjointness tests.
[[nodiscard]] std::shared_ptr<const attack::TrackingPrior> tracking_prior_artifact(
    const EvalContext& ctx, std::size_t user, const attack::TrackingConfig& cfg);

/// Cached de-noised estimate of protected user `user` under the prior
/// above ("tracking-estimate", protected side) — the artifact both
/// tracking metrics share.
[[nodiscard]] std::shared_ptr<const trace::Trace> tracking_estimate_artifact(
    const EvalContext& ctx, std::size_t user, const attack::TrackingConfig& cfg);

class TrackingError final : public TraceMetric {
 public:
  explicit TrackingError(attack::TrackingConfig cfg = {});

  [[nodiscard]] const std::string& name() const override;
  [[nodiscard]] Direction direction() const override {
    return Direction::kHigherIsMorePrivate;
  }
  [[nodiscard]] double evaluate_trace(const EvalContext& ctx, std::size_t user) const override;

  [[nodiscard]] const attack::TrackingConfig& config() const { return cfg_; }

 private:
  attack::TrackingConfig cfg_;
};

/// Dataset-level like ReidentificationRate (linkage is competitive
/// across users); evaluate_on restricts both the gallery and the scored
/// population to the listed users.
class TrackingReident final : public Metric {
 public:
  explicit TrackingReident(attack::TrackingConfig tracking = {}, attack::ReidentConfig reident = {});

  [[nodiscard]] const std::string& name() const override;
  [[nodiscard]] Direction direction() const override {
    return Direction::kLowerIsMorePrivate;
  }
  [[nodiscard]] double evaluate(const EvalContext& ctx) const override;
  [[nodiscard]] double evaluate_on(const EvalContext& ctx,
                                   std::span<const std::size_t> users) const override;

 private:
  attack::TrackingConfig tracking_;
  attack::ReidentConfig reident_;
};

}  // namespace locpriv::metrics
