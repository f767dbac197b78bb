#include "lppm/geo_ind_variants.h"

#include <algorithm>
#include <stdexcept>

#include "geo/bbox.h"
#include "stats/rng.h"

namespace locpriv::lppm {

ElasticGeoInd::ElasticGeoInd(std::vector<geo::Point> sites)
    : ParameterizedMechanism(
          {ParameterSpec{.name = kEpsilon,
                         .min_value = 1e-5,
                         .max_value = 10.0,
                         .default_value = 0.01,
                         .scale = Scale::kLog,
                         .unit = "1/m",
                         .description = "privacy budget per meter; noise scale is 2/epsilon"},
           ParameterSpec{.name = kDensityRadius,
                         .min_value = 50.0,
                         .max_value = 20'000.0,
                         .default_value = 1'000.0,
                         .scale = Scale::kLog,
                         .unit = "m",
                         .description = "neighborhood radius defining local density"}}),
      sites_(std::move(sites)),
      index_(sites_.empty()
                 ? throw std::invalid_argument("ElasticGeoInd: empty site catalog")
                 : std::span<const geo::Point>(sites_),
             geo::GridIndex::suggested_cell_size(geo::bounding_box(sites_), sites_.size())) {}

ElasticGeoInd::ElasticGeoInd(std::vector<geo::Point> sites, double epsilon)
    : ElasticGeoInd(std::move(sites)) {
  set_parameter(kEpsilon, epsilon);
}

const std::string& ElasticGeoInd::name() const {
  static const std::string kName = "elastic-geo-indistinguishability";
  return kName;
}

double ElasticGeoInd::effective_epsilon(geo::Point where) const {
  const double eps = parameter(kEpsilon);
  const double radius = parameter(kDensityRadius);
  const double neighbors = static_cast<double>(index_.count_within_radius(where, radius));
  const double density_fraction = std::min(1.0, neighbors / kDenseCount);
  // Interpolate the stretch factor: empty -> kMaxStretch, dense -> 1.
  const double stretch = kMaxStretch - (kMaxStretch - 1.0) * density_fraction;
  return eps / stretch;
}

trace::Trace ElasticGeoInd::protect(const trace::Trace& input, std::uint64_t seed) const {
  stats::Rng rng(seed);
  return input.map_locations([&](const trace::Event& e) {
    return e.location + stats::sample_planar_laplace(rng, effective_epsilon(e.location));
  });
}

}  // namespace locpriv::lppm
