#include "metrics/distortion.h"

#include <cstdlib>

namespace locpriv::metrics {

const std::string& MeanDistortion::name() const {
  static const std::string kName = "mean-distortion";
  return kName;
}

double MeanDistortion::evaluate_trace(const EvalContext& ctx, std::size_t user) const {
  const trace::Trace& actual = ctx.trace(Side::kActual, user);
  const trace::Trace& protected_trace = ctx.trace(Side::kProtected, user);
  if (actual.empty() || protected_trace.empty()) return 0.0;
  double total = 0.0;
  if (actual.size() == protected_trace.size()) {
    for (std::size_t i = 0; i < actual.size(); ++i) {
      total += geo::distance(actual[i].location, protected_trace[i].location);
    }
  } else {
    // Nearest-in-time pairing (same scheme as CellHitRatio).
    std::size_t j = 0;
    for (std::size_t i = 0; i < actual.size(); ++i) {
      const trace::Timestamp t = actual[i].time;
      while (j + 1 < protected_trace.size() &&
             std::llabs(protected_trace[j + 1].time - t) <= std::llabs(protected_trace[j].time - t)) {
        ++j;
      }
      total += geo::distance(actual[i].location, protected_trace[j].location);
    }
  }
  return total / static_cast<double>(actual.size());
}

}  // namespace locpriv::metrics
