// Optimal geo-indistinguishable mechanism over grid cells (Bordenabe
// et al., CCS 2014; spanner approximation per Chatzikokolakis et al.).
//
// Where planar Laplace adds continuous noise with a fixed shape, this
// mechanism discretizes the configured extent into square cells,
// precomputes a row-stochastic reporting matrix that (approximately)
// minimizes expected loss subject to eps-geo-indistinguishability over
// cell centers (see lppm/optimal_matrix.h for the solver), and serves
// each event with a single alias-method draw from its cell's row —
// O(1) per event, with no log or sqrt (the planar-Laplace draw needs one
// of each).
//
// The `delta` parameter trades build time for optimality: 1.0 enforces
// the exact dense constraint set; larger values prune constraints to a
// greedy delta-spanner at rate eps/delta, cutting the build cost by
// roughly the constraint ratio while guaranteeing the full constraint
// set within the dilation bound. Locations outside the configured
// extent are clamped onto its boundary before lookup.
//
// The build is lazy (first protect() call after a parameter change) and
// cached under a mutex, so a configured instance can be shared across
// evaluation threads; the build itself is single-threaded and
// deterministic, keeping sweeps bit-identical across thread counts.
#pragma once

#include <array>
#include <memory>
#include <mutex>

#include "lppm/mechanism.h"
#include "lppm/optimal_matrix.h"

namespace locpriv::lppm {

class OptimalGeoInd final : public ParameterizedMechanism {
 public:
  /// Parameters:
  ///  * "epsilon"     (1/m, log, default 0.01): geo-ind rate over cell
  ///    centers — same budget semantics as geo-indistinguishability.
  ///  * "delta"       (linear, default 1.1): spanner dilation bound;
  ///    1.0 = exact LP constraint set.
  ///  * "cell_size"   (m, log, default 1000): grid cell edge.
  ///  * "half_extent" (m, log, default 5000): the served area is the
  ///    square [-half_extent, half_extent]^2 (covering the synthetic
  ///    city). cell_count is capped at kMaxOptimalCells.
  OptimalGeoInd();
  /// Convenience: construct already configured.
  explicit OptimalGeoInd(double epsilon, double delta = 1.1);

  [[nodiscard]] const std::string& name() const override;
  [[nodiscard]] trace::Trace protect(const trace::Trace& input, std::uint64_t seed) const override;

  /// The solver result for the current parameters (builds on first use;
  /// same cache protect() serves from). Mainly for tests and benches.
  [[nodiscard]] const OptimalMatrixResult& solution() const;

  static constexpr const char* kEpsilon = "epsilon";
  static constexpr const char* kDelta = "delta";
  static constexpr const char* kCellSize = "cell_size";
  static constexpr const char* kHalfExtent = "half_extent";

 private:
  struct Plan;
  [[nodiscard]] std::shared_ptr<const Plan> plan() const;

  mutable std::mutex mutex_;
  mutable std::shared_ptr<const Plan> cache_;
  mutable std::array<double, 4> cache_key_{};
};

}  // namespace locpriv::lppm
