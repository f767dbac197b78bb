#include "metrics/spatial_entropy.h"

#include <cmath>
#include <stdexcept>
#include <unordered_map>

#include "geo/grid.h"
#include "metrics/artifacts.h"

namespace locpriv::metrics {
namespace {

double cell_entropy(const trace::Trace& t, const geo::Grid& grid) {
  if (t.empty()) return 0.0;
  std::unordered_map<geo::CellIndex, std::size_t, geo::CellIndexHash> counts;
  for (const trace::Event& e : t) ++counts[grid.cell_of(e.location)];
  double h = 0.0;
  const double n = static_cast<double>(t.size());
  for (const auto& [cell, count] : counts) {
    const double p = static_cast<double>(count) / n;
    h -= p * std::log(p);
  }
  return h;
}

}  // namespace

SpatialEntropyGain::SpatialEntropyGain(double cell_size_m) : cell_size_m_(cell_size_m) {
  if (!(cell_size_m > 0.0)) throw std::invalid_argument("SpatialEntropyGain: cell size must be > 0");
}

const std::string& SpatialEntropyGain::name() const {
  static const std::string kName = "spatial-entropy-gain";
  return kName;
}

double SpatialEntropyGain::evaluate_trace(const EvalContext& ctx, std::size_t user) const {
  const std::uint64_t params = ParamHash().add(cell_size_m_).digest();
  const auto entropy_of = [&](Side side) {
    return ctx.artifact<double>(side, user, "cell-entropy", params, [&] {
      return cell_entropy(ctx.trace(side, user), geo::Grid(cell_size_m_));
    });
  };
  return *entropy_of(Side::kProtected) - *entropy_of(Side::kActual);
}

}  // namespace locpriv::metrics
