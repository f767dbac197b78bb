#include "metrics/trip_length.h"

#include <cmath>
#include <vector>

#include "geo/polyline.h"
#include "metrics/eval_context.h"

namespace locpriv::metrics {

const std::string& TripLengthError::name() const {
  static const std::string kName = "trip-length-error";
  return kName;
}

double TripLengthError::evaluate_trace(const EvalContext& ctx, std::size_t user) const {
  // Both sides feed the length kernel straight from the contiguous
  // coordinate columns — this runs once per (user, trial, point) in a
  // sweep, so the old per-call Point-vector copies were pure allocation
  // churn, and the columnar kernel vectorizes.
  const double actual_len = *ctx.artifact<double>(
      Side::kActual, user, "path-length", ParamHash().digest(), [&] {
        const trace::Trace& t = ctx.trace(Side::kActual, user);
        return geo::path_length(t.xs(), t.ys());
      });
  if (actual_len <= 0.0) return 0.0;
  const trace::Trace& prot = ctx.trace(Side::kProtected, user);
  const double protected_len = geo::path_length(prot.xs(), prot.ys());
  return std::abs(protected_len - actual_len) / actual_len;
}

}  // namespace locpriv::metrics
