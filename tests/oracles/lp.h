// A small dense linear-programming core: two-phase primal simplex with
// Bland's rule.
//
// A test oracle: the exact reference for the optimal geo-indistinguishable
// mechanism (Bordenabe et al., "Optimal Geo-Indistinguishable
// Mechanisms for Location Privacy"): minimize expected loss subject to
// the pairwise geo-ind ratio constraints and row-stochasticity. The
// dense tableau limits it to small instances (a few thousand
// constraints), which is exactly its role — certifying the production
// scaling solver (lppm/optimal_matrix.h) against the true LP optimum
// on small grids.
//
// Determinism: Bland's anti-cycling rule (lowest-index entering column,
// lowest-basis-index tie-break on the ratio test) makes the pivot
// sequence — and therefore the solution bytes — a pure function of the
// problem, independent of thread count or iteration order elsewhere.
#pragma once

#include <cstddef>
#include <vector>

namespace locpriv::core::lp {

enum class Relation {
  kLessEqual,
  kEqual,
  kGreaterEqual,
};

/// One dense constraint row: coeffs · x (relation) rhs. `coeffs` must
/// have exactly Problem::variable_count entries.
struct Constraint {
  std::vector<double> coeffs;
  Relation relation = Relation::kLessEqual;
  double rhs = 0.0;
};

/// minimize objective · x subject to the constraints and x >= 0.
struct Problem {
  std::size_t variable_count = 0;
  std::vector<double> objective;  ///< size variable_count
  std::vector<Constraint> constraints;
};

enum class Status {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
};

struct Solution {
  Status status = Status::kIterationLimit;
  double objective = 0.0;      ///< objective value at x (kOptimal only)
  std::vector<double> x;       ///< size variable_count (kOptimal only)
  std::size_t iterations = 0;  ///< total pivots across both phases
};

struct SolveOptions {
  /// 0 = automatic (scales with problem size).
  std::size_t max_iterations = 0;
  /// Pivot / feasibility tolerance.
  double tolerance = 1e-9;
};

/// Solves the problem; validates shapes (throws std::invalid_argument
/// on a coefficient/objective size mismatch or non-finite input).
[[nodiscard]] Solution solve(const Problem& problem, const SolveOptions& options = {});

}  // namespace locpriv::core::lp
