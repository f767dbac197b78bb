// Geo-Indistinguishability (Andrés et al., CCS 2013) — the LPPM the
// paper's illustration configures.
//
// Adds planar-Laplace noise to every reported location: direction
// uniform, radius with CDF 1 - (1 + εr)e^{-εr}, drawn exactly by
// stats::sample_planar_laplace (Marsaglia's polar construction). The
// resulting obfuscation satisfies ε-geo-indistinguishability: for any
// two locations x, x' and output z,
//   Pr[z|x] <= e^{ε·d(x,x')} · Pr[z|x'].
// Expected displacement is 2/ε meters, so ε is "privacy per meter":
// the lower the ε, the higher the noise.
#pragma once

#include "lppm/mechanism.h"

namespace locpriv::lppm {

class GeoIndistinguishability final : public ParameterizedMechanism {
 public:
  /// Parameter "epsilon" in 1/m, default 0.01, sweepable over
  /// [1e-5, 10] on a log scale — covering the paper's [1e-4, 1] figure
  /// range with margin.
  GeoIndistinguishability();
  /// Convenience: construct already configured.
  explicit GeoIndistinguishability(double epsilon);

  [[nodiscard]] const std::string& name() const override;
  [[nodiscard]] trace::Trace protect(const trace::Trace& input, std::uint64_t seed) const override;

  /// Current ε (1/m).
  [[nodiscard]] double epsilon() const { return parameter(kEpsilon); }

  static constexpr const char* kEpsilon = "epsilon";
};

}  // namespace locpriv::lppm
