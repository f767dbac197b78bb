// The metric framework — the modularity hinge of the paper.
//
// "By using different metrics, a system designer is able to fine-tune
// her LPPM according to her expected privacy and utility guarantees."
// A Metric scores a protected dataset against its actual counterpart.
// The framework never hardcodes which metric it models: any Metric can
// be placed on either axis of the (Pr, Ut) model.
//
// Metrics evaluate through an EvalContext (see eval_context.h), which
// carries the dataset pair plus artifact caches so derived artifacts
// (POI sets, stay points, coverage rasters, ...) are computed once per
// sweep instead of once per call. A one-shot caller evaluates through
// an uncached context, `metric.evaluate(EvalContext(actual, protected))`,
// which runs the same code and returns bit-identical values.
#pragma once

#include <cstddef>
#include <span>
#include <string>

#include "metrics/eval_context.h"
#include "trace/dataset.h"

namespace locpriv::metrics {

/// Which way "better" points for a metric value.
enum class Direction {
  kHigherIsMorePrivate,   ///< e.g. spatial entropy gain
  kLowerIsMorePrivate,    ///< e.g. POI retrieval: retrieved fraction
  kHigherIsMoreUseful,    ///< e.g. area-coverage F1
  kLowerIsMoreUseful,     ///< e.g. mean distortion in meters
};

/// True for the privacy-axis directions.
[[nodiscard]] constexpr bool is_privacy_direction(Direction d) {
  return d == Direction::kHigherIsMorePrivate || d == Direction::kLowerIsMorePrivate;
}

/// A dataset-level evaluation metric.
class Metric {
 public:
  virtual ~Metric() = default;

  /// Stable identifier, e.g. "poi-retrieval".
  [[nodiscard]] virtual const std::string& name() const = 0;

  [[nodiscard]] virtual Direction direction() const = 0;

  /// Scores the context's protected dataset against its actual one,
  /// sourcing derived artifacts from the context's caches. The primary
  /// entry point: engines construct one context per (actual, protected)
  /// pair and evaluate every metric through it.
  [[nodiscard]] virtual double evaluate(const EvalContext& ctx) const = 0;

  /// Scores only the users whose dataset indices are listed in `users`
  /// (ascending, non-empty) — the per-split entry point of the
  /// generalization track. The base default ignores the subset and
  /// scores the whole pair: dataset-level metrics without a per-user
  /// decomposition have no meaningful restriction, and documenting that
  /// here beats silently returning garbage. TraceMetric overrides this
  /// with the mean over `users`; subset-aware dataset metrics (e.g.
  /// re-identification) override it to restrict their population.
  /// Throws std::invalid_argument on an empty subset or an
  /// out-of-range index.
  [[nodiscard]] virtual double evaluate_on(const EvalContext& ctx,
                                           std::span<const std::size_t> users) const;
};

/// Base for metrics that score each user independently; the dataset
/// score is the mean over users (the paper evaluates "for each user" and
/// reports the aggregate).
class TraceMetric : public Metric {
 public:
  /// Per-user score: scores user `user` of the context's dataset pair,
  /// sourcing derived artifacts from the context's caches.
  [[nodiscard]] virtual double evaluate_trace(const EvalContext& ctx, std::size_t user) const = 0;

  /// Mean of per-user scores; verifies the datasets pair up.
  [[nodiscard]] double evaluate(const EvalContext& ctx) const override;

  /// Mean of per-user scores over exactly the listed users — the
  /// subset form every trace-level metric gets for free.
  [[nodiscard]] double evaluate_on(const EvalContext& ctx,
                                   std::span<const std::size_t> users) const override;
};

/// Throws std::invalid_argument unless the datasets have identical user
/// ids in identical order. Shared by all metrics.
void require_paired(const trace::Dataset& actual, const trace::Dataset& protected_data);

/// Throws std::invalid_argument when `users` is empty or names an index
/// outside the context's dataset pair. Shared by evaluate_on overrides.
void require_subset(const EvalContext& ctx, std::span<const std::size_t> users);

}  // namespace locpriv::metrics
