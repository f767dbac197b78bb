// Elastic Geo-Indistinguishability — a simplified rendition of the
// elastic distinguishability metrics of Chatzikokolakis et al. (PETS'15),
// the paper's reference [3]: the protection requirement scales with
// local density. Sparse areas need more noise (a lone user in a field is
// identifiable at 300 m); dense areas less. Here the local density is
// the count of catalog sites within `density_radius`, and the effective
// epsilon interpolates between eps_min (empty area) and eps (dense).
#pragma once

#include <vector>

#include "geo/grid_index.h"
#include "lppm/mechanism.h"

namespace locpriv::lppm {

class ElasticGeoInd final : public ParameterizedMechanism {
 public:
  /// `sites` is the density reference catalog (e.g. the city's POIs).
  /// Parameters: "epsilon" (dense-area budget, log scale) and
  /// "density_radius" (meters, the neighborhood that defines "dense").
  /// Throws on an empty catalog.
  explicit ElasticGeoInd(std::vector<geo::Point> sites);
  ElasticGeoInd(std::vector<geo::Point> sites, double epsilon);

  [[nodiscard]] const std::string& name() const override;
  [[nodiscard]] trace::Trace protect(const trace::Trace& input, std::uint64_t seed) const override;

  /// The effective epsilon used at a location (exposed for tests and
  /// analysis): eps_eff = eps * (density_fraction), floored at
  /// eps / kMaxStretch. density_fraction = min(1, |sites within r| / kDenseCount).
  [[nodiscard]] double effective_epsilon(geo::Point where) const;

  static constexpr const char* kEpsilon = "epsilon";
  static constexpr const char* kDensityRadius = "density_radius";
  /// Sites within the radius that count as "fully dense".
  static constexpr double kDenseCount = 10.0;
  /// Cap on how much sparser areas stretch the noise (eps divisor).
  static constexpr double kMaxStretch = 8.0;

 private:
  std::vector<geo::Point> sites_;
  /// Flat spatial hash over the catalog: the density query is a pure
  /// fixed-radius count, the shape GridIndex::count_within_radius
  /// answers without materializing a neighbor vector per report.
  geo::GridIndex index_;
};

}  // namespace locpriv::lppm
