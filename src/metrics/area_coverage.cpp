#include "metrics/area_coverage.h"

#include <stdexcept>

#include "geo/grid.h"
#include "metrics/artifacts.h"

namespace locpriv::metrics {

AreaCoverage::AreaCoverage(double cell_size_m, Flavor flavor)
    : cell_size_m_(cell_size_m), flavor_(flavor) {
  if (!(cell_size_m > 0.0)) throw std::invalid_argument("AreaCoverage: cell size must be > 0");
  name_ = flavor == Flavor::kF1 ? "area-coverage-f1" : "area-coverage-jaccard";
}

const std::string& AreaCoverage::name() const { return name_; }

double AreaCoverage::evaluate_trace(const EvalContext& ctx, std::size_t user) const {
  const auto a = coverage_artifact(ctx, Side::kActual, user, cell_size_m_);
  // The protected side is built per call and never cached: a sweep
  // scores each protected trace once, and no other metric reads its
  // cells. Reserved for every event, the table never regrows; it holds
  // at most max(64, 4·n) 8-byte slots, so 32 bytes per event, and each
  // evaluating thread has one alive at a time.
  const trace::Trace& t = ctx.trace(Side::kProtected, user);
  geo::CellSet p;
  p.reserve(t.size());
  geo::Grid(cell_size_m_).add_covered_cells(t.xs(), t.ys(), p);
  return flavor_ == Flavor::kF1 ? geo::f1_score(*a, p) : geo::jaccard(*a, p);
}

}  // namespace locpriv::metrics
