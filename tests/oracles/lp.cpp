#include "oracles/lp.h"

#include <cmath>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <vector>

namespace locpriv::core::lp {
namespace {

// Dense tableau: `rows` constraint rows over `cols` structural columns
// plus one rhs column, and a reduced-cost row maintained by the same
// pivots. Column order: original variables, then slack/surplus, then
// artificials.
class Tableau {
 public:
  Tableau(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), cells_(rows * (cols + 1), 0.0), cost_(cols + 1, 0.0) {}

  [[nodiscard]] double& at(std::size_t r, std::size_t c) { return cells_[r * (cols_ + 1) + c]; }
  [[nodiscard]] double at(std::size_t r, std::size_t c) const {
    return cells_[r * (cols_ + 1) + c];
  }
  [[nodiscard]] double& rhs(std::size_t r) { return at(r, cols_); }
  [[nodiscard]] double& cost(std::size_t c) { return cost_[c]; }
  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  /// Gauss-Jordan pivot on (pr, pc), updating the cost row too.
  void pivot(std::size_t pr, std::size_t pc) {
    const std::size_t stride = cols_ + 1;
    double* prow = &cells_[pr * stride];
    const double inv = 1.0 / prow[pc];
    for (std::size_t c = 0; c <= cols_; ++c) prow[c] *= inv;
    prow[pc] = 1.0;
    for (std::size_t r = 0; r < rows_; ++r) {
      if (r == pr) continue;
      double* row = &cells_[r * stride];
      const double f = row[pc];
      if (f == 0.0) continue;
      for (std::size_t c = 0; c <= cols_; ++c) row[c] -= f * prow[c];
      row[pc] = 0.0;
    }
    const double f = cost_[pc];
    if (f != 0.0) {
      for (std::size_t c = 0; c <= cols_; ++c) cost_[c] -= f * prow[c];
      cost_[pc] = 0.0;
    }
  }

  /// -cost rhs is the current objective value.
  [[nodiscard]] double objective_value() const { return -cost_[cols_]; }

  /// Rebuilds the cost row for objective `c` (size cols, implicitly 0
  /// beyond), reduced against the current basis.
  void set_costs(const std::vector<double>& c, const std::vector<std::size_t>& basis) {
    for (std::size_t j = 0; j <= cols_; ++j) cost_[j] = j < c.size() ? c[j] : 0.0;
    cost_[cols_] = 0.0;
    for (std::size_t r = 0; r < rows_; ++r) {
      const double cb = basis[r] < c.size() ? c[basis[r]] : 0.0;
      if (cb == 0.0) continue;
      const double* row = &cells_[r * (cols_ + 1)];
      for (std::size_t j = 0; j <= cols_; ++j) cost_[j] -= cb * row[j];
    }
  }

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<double> cells_;
  std::vector<double> cost_;
};

// Bland's rule iteration over columns [0, usable_cols). Returns the
// terminating status; kOptimal here means "no improving column".
Status iterate(Tableau& t, std::vector<std::size_t>& basis, std::size_t usable_cols, double tol,
               std::size_t max_iterations, std::size_t& iterations) {
  while (true) {
    if (iterations >= max_iterations) return Status::kIterationLimit;
    // Entering: lowest-index column with a negative reduced cost.
    std::size_t entering = usable_cols;
    for (std::size_t j = 0; j < usable_cols; ++j) {
      if (t.cost(j) < -tol) {
        entering = j;
        break;
      }
    }
    if (entering == usable_cols) return Status::kOptimal;
    // Leaving: minimum ratio; ties broken by the lowest basis index.
    std::size_t leaving = t.rows();
    double best_ratio = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < t.rows(); ++r) {
      const double a = t.at(r, entering);
      if (a <= tol) continue;
      const double ratio = t.rhs(r) / a;
      if (ratio < best_ratio - tol ||
          (ratio < best_ratio + tol && (leaving == t.rows() || basis[r] < basis[leaving]))) {
        best_ratio = ratio;
        leaving = r;
      }
    }
    if (leaving == t.rows()) return Status::kUnbounded;
    t.pivot(leaving, entering);
    basis[leaving] = entering;
    ++iterations;
  }
}

}  // namespace

Solution solve(const Problem& problem, const SolveOptions& options) {
  const std::size_t n = problem.variable_count;
  if (problem.objective.size() != n) {
    throw std::invalid_argument("lp::solve: objective size != variable_count");
  }
  for (const double v : problem.objective) {
    if (!std::isfinite(v)) throw std::invalid_argument("lp::solve: non-finite objective");
  }
  const std::size_t m = problem.constraints.size();
  for (const Constraint& c : problem.constraints) {
    if (c.coeffs.size() != n) {
      throw std::invalid_argument("lp::solve: constraint size != variable_count");
    }
    if (!std::isfinite(c.rhs)) throw std::invalid_argument("lp::solve: non-finite rhs");
    for (const double v : c.coeffs) {
      if (!std::isfinite(v)) throw std::invalid_argument("lp::solve: non-finite coefficient");
    }
  }
  const double tol = options.tolerance;

  // Count extra columns: one slack/surplus per inequality, one
  // artificial per row whose canonical form needs it.
  std::size_t slack_count = 0;
  for (const Constraint& c : problem.constraints) {
    if (c.relation != Relation::kEqual) ++slack_count;
  }
  // Conservatively give every row an artificial; rows where the slack
  // already provides an identity column simply never activate theirs.
  const std::size_t slack_base = n;
  const std::size_t art_base = n + slack_count;
  const std::size_t cols = n + slack_count + m;

  Tableau t(m, cols);
  std::vector<std::size_t> basis(m, 0);
  std::vector<double> phase1_costs(cols, 0.0);
  std::size_t next_slack = slack_base;
  for (std::size_t r = 0; r < m; ++r) {
    const Constraint& c = problem.constraints[r];
    // Normalize to rhs >= 0 so the initial basis is feasible.
    double sign = c.rhs < 0.0 ? -1.0 : 1.0;
    Relation rel = c.relation;
    if (sign < 0.0) {
      if (rel == Relation::kLessEqual) {
        rel = Relation::kGreaterEqual;
      } else if (rel == Relation::kGreaterEqual) {
        rel = Relation::kLessEqual;
      }
    }
    for (std::size_t j = 0; j < n; ++j) t.at(r, j) = sign * c.coeffs[j];
    t.rhs(r) = sign * c.rhs;
    bool needs_artificial = true;
    if (rel != Relation::kEqual) {
      const double slack_sign = rel == Relation::kLessEqual ? 1.0 : -1.0;
      t.at(r, next_slack) = slack_sign;
      if (slack_sign > 0.0) {
        basis[r] = next_slack;  // slack is the identity column
        needs_artificial = false;
      }
      ++next_slack;
    }
    if (needs_artificial) {
      const std::size_t art = art_base + r;
      t.at(r, art) = 1.0;
      basis[r] = art;
      phase1_costs[art] = 1.0;
    }
  }

  const std::size_t max_iterations =
      options.max_iterations > 0 ? options.max_iterations : 200 * (m + cols) + 1000;

  Solution solution;
  // Phase 1: drive the artificials to zero.
  t.set_costs(phase1_costs, basis);
  Status status = iterate(t, basis, cols, tol, max_iterations, solution.iterations);
  if (status == Status::kIterationLimit) {
    solution.status = status;
    return solution;
  }
  if (t.objective_value() > tol * (1.0 + static_cast<double>(m))) {
    solution.status = Status::kInfeasible;
    return solution;
  }
  // Pivot leftover (zero-valued) artificials out of the basis so phase
  // 2 never re-enters them; a row with no eligible pivot is redundant
  // and stays put — its artificial keeps value 0 because phase 2
  // restricts entering columns to the non-artificial range.
  for (std::size_t r = 0; r < m; ++r) {
    if (basis[r] < art_base) continue;
    for (std::size_t j = 0; j < art_base; ++j) {
      if (std::abs(t.at(r, j)) > tol) {
        t.pivot(r, j);
        basis[r] = j;
        ++solution.iterations;
        break;
      }
    }
  }

  // Phase 2: the real objective over non-artificial columns only.
  std::vector<double> phase2_costs(problem.objective);
  phase2_costs.resize(cols, 0.0);
  t.set_costs(phase2_costs, basis);
  status = iterate(t, basis, art_base, tol, max_iterations, solution.iterations);
  if (status != Status::kOptimal) {
    solution.status = status;
    return solution;
  }

  solution.status = Status::kOptimal;
  solution.x.assign(n, 0.0);
  for (std::size_t r = 0; r < m; ++r) {
    if (basis[r] < n) solution.x[basis[r]] = t.rhs(r);
  }
  double objective = 0.0;
  for (std::size_t j = 0; j < n; ++j) objective += problem.objective[j] * solution.x[j];
  solution.objective = objective;
  return solution;
}

}  // namespace locpriv::core::lp
