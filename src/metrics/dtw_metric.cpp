#include "metrics/dtw_metric.h"

#include <span>
#include <vector>

namespace locpriv::metrics {

DtwDistortion::DtwDistortion(stats::DtwOptions options) : options_(options) {}

const std::string& DtwDistortion::name() const {
  static const std::string kName = "dtw-distortion";
  return kName;
}

double DtwDistortion::evaluate_trace(const EvalContext& ctx, std::size_t user) const {
  const trace::Trace& actual = ctx.actual()[user];
  const trace::Trace& protected_trace = ctx.protected_data()[user];
  if (actual.empty() || protected_trace.empty()) return 0.0;
  // The upfront Point gathers are deliberate: the DTW kernel
  // random-accesses both sequences O(n·m) times through contiguous
  // spans, so one copy per side is the right trade (audited in
  // docs/PERFORMANCE.md).
  const auto gather = [](const trace::Trace& t) {
    const std::span<const double> xs = t.xs();
    const std::span<const double> ys = t.ys();
    std::vector<geo::Point> pts;
    pts.reserve(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) pts.push_back({xs[i], ys[i]});
    return pts;
  };
  const std::vector<geo::Point> a = gather(actual);
  const std::vector<geo::Point> p = gather(protected_trace);
  return stats::dtw(a, p, options_).normalized_cost();
}

}  // namespace locpriv::metrics
