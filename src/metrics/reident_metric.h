// Re-identification rate as a privacy metric: the fraction of users an
// adversary links back to their historical traces. Inherently a
// dataset-level metric (linkage is competitive across users), so it
// implements Metric directly rather than TraceMetric.
#pragma once

#include "attack/reident.h"
#include "metrics/metric.h"

namespace locpriv::metrics {

class ReidentificationRate final : public Metric {
 public:
  explicit ReidentificationRate(attack::ReidentConfig cfg = {});

  [[nodiscard]] const std::string& name() const override;
  [[nodiscard]] Direction direction() const override {
    return Direction::kLowerIsMorePrivate;
  }
  [[nodiscard]] double evaluate(const EvalContext& ctx) const override;
  /// Linkage restricted to the listed users: both the adversary's
  /// gallery and the scored traces are the subset — the unseen-user
  /// population under a split. (The target's own *historical*
  /// fingerprint stays in the gallery by design: linkage is undefined
  /// without it. The PR 7 audit verdict: this is population membership,
  /// not a fitted prior, so it is not a leave-one-out violation —
  /// unlike the tracking prior, which is; see tracking_metrics.h.)
  [[nodiscard]] double evaluate_on(const EvalContext& ctx,
                                   std::span<const std::size_t> users) const override;

 private:
  attack::ReidentConfig cfg_;
};

}  // namespace locpriv::metrics
