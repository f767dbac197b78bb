#include "metrics/metric.h"

#include <stdexcept>

namespace locpriv::metrics {

void require_paired(const trace::Dataset& actual, const trace::Dataset& protected_data) {
  if (actual.size() != protected_data.size()) {
    throw std::invalid_argument("metric: datasets have different sizes");
  }
  for (std::size_t i = 0; i < actual.size(); ++i) {
    if (actual[i].user_id() != protected_data[i].user_id()) {
      throw std::invalid_argument("metric: user mismatch at index " + std::to_string(i) + " ('" +
                                  actual[i].user_id() + "' vs '" + protected_data[i].user_id() +
                                  "')");
    }
  }
}

double TraceMetric::evaluate(const EvalContext& ctx) const {
  require_paired(ctx.actual(), ctx.protected_data());
  if (ctx.actual().empty()) throw std::invalid_argument("metric: empty dataset");
  double sum = 0.0;
  for (std::size_t i = 0; i < ctx.actual().size(); ++i) {
    sum += evaluate_trace(ctx, i);
  }
  return sum / static_cast<double>(ctx.actual().size());
}

void require_subset(const EvalContext& ctx, std::span<const std::size_t> users) {
  if (users.empty()) throw std::invalid_argument("metric: empty user subset");
  for (const std::size_t u : users) {
    if (u >= ctx.actual().size()) {
      throw std::invalid_argument("metric: subset index " + std::to_string(u) +
                                  " out of range for dataset of size " +
                                  std::to_string(ctx.actual().size()));
    }
  }
}

double Metric::evaluate_on(const EvalContext& ctx, std::span<const std::size_t> users) const {
  require_subset(ctx, users);
  return evaluate(ctx);
}

double TraceMetric::evaluate_on(const EvalContext& ctx,
                                std::span<const std::size_t> users) const {
  require_paired(ctx.actual(), ctx.protected_data());
  require_subset(ctx, users);
  double sum = 0.0;
  for (const std::size_t u : users) sum += evaluate_trace(ctx, u);
  return sum / static_cast<double>(users.size());
}

}  // namespace locpriv::metrics
