#include "metrics/worst_case.h"

#include <algorithm>

#include "metrics/artifacts.h"

namespace locpriv::metrics {

WorstCasePoiRetrieval::WorstCasePoiRetrieval(Config cfg) : cfg_(cfg) {}

const std::string& WorstCasePoiRetrieval::name() const {
  static const std::string kName = "poi-retrieval-worst-case";
  return kName;
}

double WorstCasePoiRetrieval::evaluate_trace(const EvalContext& ctx, std::size_t user) const {
  // Ground truth is shared across adversaries (and, through the cache,
  // with every other POI metric using the same extractor).
  const auto ground_truth = poi_artifact(ctx, Side::kActual, user, cfg_.naive.ground_truth);
  const trace::Trace& protected_trace = ctx.trace(Side::kProtected, user);
  double worst = attack::run_poi_attack(*ground_truth, protected_trace, cfg_.naive).match.recall;
  worst = std::max(worst, attack::run_smoothing_attack(*ground_truth, protected_trace,
                                                       cfg_.smoothing)
                              .match.recall);
  worst = std::max(worst, attack::run_adaptive_attack(*ground_truth, protected_trace,
                                                      cfg_.adaptive)
                              .match.recall);
  worst = std::max(worst, attack::run_interpolation_attack(*ground_truth, protected_trace,
                                                           cfg_.interpolation)
                              .match.recall);
  return worst;
}

}  // namespace locpriv::metrics
