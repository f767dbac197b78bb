// Builder for the (spanner-pruned) optimal geo-indistinguishable
// stochastic matrix over a set of cell centers.
//
// The underlying problem is Bordenabe et al.'s LP: choose x_ij =
// Pr[report cell j | true cell i] minimizing the uniform-prior expected
// loss sum_ij pi_i x_ij d(i, j) subject to row-stochasticity and the
// geo-ind ratio constraints x_ij <= e^{eps d(i,i')} x_i'j. In log
// domain the ratio constraints say each column of y = -log x is
// (eps * d)-Lipschitz, which yields a fast production scheme in place
// of the O(n^2)-variable LP (the tests' dense simplex stays the exact
// reference for small instances):
//
//  * Envelope candidate: alternate the Lipschitz upper envelope
//    x_ij <- max_k e^{-eps d(i,k)} x_kj (a feasibility projection; in
//    log domain an inf-convolution) with row normalization, from an
//    identity start. When the row-sum residual converges the iterate is
//    simultaneously feasible and row-stochastic, and empirically sits
//    within a few percent of the LP optimum (certified against the
//    simplex in tests). In the near-uniform regime (eps times grid
//    diameter << 1) the alternation can stall; the iterate is then
//    discarded.
//  * Exponential candidate: x_ij = e^{-(eps/2) d(i,j)} / Z_i — the
//    classic half-rate exponential mechanism, feasible in closed form
//    for any metric (the row normalizers are themselves
//    (eps/2 d)-Lipschitz).
//  * Best-column candidate: report one fixed cell (the loss-minimizing
//    column) regardless of input — trivially feasible, and exactly the
//    LP optimum in the eps -> 0 limit.
//
// All candidates are feasible by construction; the builder returns the
// one with the lowest expected loss. With delta > 1 the envelope runs
// over a greedy delta-spanner (geo/spanner.h) at rate eps' = eps/delta:
// constraints enforced along spanner edges at eps' imply the full
// Euclidean constraint set at eps because graph distances dilate
// Euclidean ones by at most delta. Each envelope step is then a
// multi-source Dijkstra per column, O(n E log n) per iteration instead
// of the exact path's dense O(n^3) — the build-time/optimality knob the
// delta parameter exposes.
//
// The build is single-threaded and fully deterministic, so matrices
// (and everything sampled from them) are bit-identical across thread
// counts.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "geo/point.h"

namespace locpriv::lppm {

struct OptimalMatrixConfig {
  double epsilon = 0.01;  ///< geo-ind rate, 1/m; must be > 0
  /// Spanner dilation bound; values <= 1 + 1e-9 select the exact dense
  /// Euclidean path, larger values the spanner-pruned path. Must be
  /// < 2 or so in practice; validated as >= 1.
  double delta = 1.0;
  std::size_t max_iterations = 600;  ///< envelope iteration cap
  double tolerance = 1e-12;          ///< target max |row sum - 1|
  /// Envelope iterate is eligible for selection below this residual.
  double accept_residual = 1e-9;
  /// Re-verify feasibility and row sums of the winner (throws
  /// std::runtime_error on violation — a solver bug, not bad input).
  bool verify = true;
};

enum class OptimalSolver {
  kEnvelope,
  kExponential,
  kBestColumn,
};

struct OptimalMatrixResult {
  std::size_t cells = 0;
  /// Row-major cells x cells; every row sums to 1 within `residual`.
  std::vector<double> matrix;
  OptimalSolver solver = OptimalSolver::kEnvelope;  ///< winning candidate
  double expected_loss = 0.0;  ///< uniform-prior E[d(true, reported)], m
  double residual = 0.0;       ///< max |row sum - 1| of `matrix`
  std::size_t iterations = 0;  ///< envelope iterations run
  bool envelope_converged = false;
  /// Per-candidate losses (envelope is NaN when it did not converge).
  double loss_envelope = 0.0;
  double loss_exponential = 0.0;
  double loss_best_column = 0.0;
  std::size_t spanner_edges = 0;  ///< 0 on the exact path
  double spanner_dilation = 1.0;  ///< measured; <= delta by construction
  /// Smallest slack of the checked ratio constraints,
  /// min (e^{eps d} x_kj - x_ij); >= -1e-9 when verify passed.
  double constraint_margin = 0.0;
};

/// Hard cap on the cell count (the dense paths are O(cells^3) time and
/// O(cells^2) memory).
inline constexpr std::size_t kMaxOptimalCells = 1024;

/// Builds the serving matrix for the given cell centers. Throws
/// std::invalid_argument on an empty center set, more than
/// kMaxOptimalCells centers, or an out-of-range epsilon/delta.
[[nodiscard]] OptimalMatrixResult build_optimal_matrix(std::span<const geo::Point> centers,
                                                       const OptimalMatrixConfig& config);

}  // namespace locpriv::lppm
