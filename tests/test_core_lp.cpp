#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "oracles/lp.h"

namespace locpriv::core::lp {
namespace {

Problem make(std::size_t vars, std::vector<double> objective,
             std::vector<Constraint> constraints) {
  Problem p;
  p.variable_count = vars;
  p.objective = std::move(objective);
  p.constraints = std::move(constraints);
  return p;
}

TEST(Lp, SolvesTextbookMaximization) {
  // max 3a + 5b s.t. a <= 4, 2b <= 12, 3a + 2b <= 18 (as min of the
  // negation): the classic optimum a = 2, b = 6, objective 36.
  const Problem p = make(2, {-3.0, -5.0},
                         {{{1.0, 0.0}, Relation::kLessEqual, 4.0},
                          {{0.0, 2.0}, Relation::kLessEqual, 12.0},
                          {{3.0, 2.0}, Relation::kLessEqual, 18.0}});
  const Solution s = solve(p);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.objective, -36.0, 1e-9);
  EXPECT_NEAR(s.x[0], 2.0, 1e-9);
  EXPECT_NEAR(s.x[1], 6.0, 1e-9);
}

TEST(Lp, SolvesEqualityAndGreaterConstraints) {
  // min 2a + 3b s.t. a + b = 10, a >= 4  ->  a = 10, b = 0 is
  // infeasible for b >= 0? No: a=10,b=0 satisfies both; objective 20.
  const Problem p = make(2, {2.0, 3.0},
                         {{{1.0, 1.0}, Relation::kEqual, 10.0},
                          {{1.0, 0.0}, Relation::kGreaterEqual, 4.0}});
  const Solution s = solve(p);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.objective, 20.0, 1e-9);
  EXPECT_NEAR(s.x[0], 10.0, 1e-9);
  EXPECT_NEAR(s.x[1], 0.0, 1e-9);
}

TEST(Lp, HandlesNegativeRhs) {
  // -a <= -3 is a >= 3; min a -> 3.
  const Problem p = make(1, {1.0}, {{{-1.0}, Relation::kLessEqual, -3.0}});
  const Solution s = solve(p);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.x[0], 3.0, 1e-9);
}

TEST(Lp, DetectsInfeasibility) {
  const Problem p = make(1, {1.0},
                         {{{1.0}, Relation::kLessEqual, 1.0},
                          {{1.0}, Relation::kGreaterEqual, 2.0}});
  EXPECT_EQ(solve(p).status, Status::kInfeasible);
}

TEST(Lp, DetectsUnboundedness) {
  const Problem p = make(1, {-1.0}, {{{1.0}, Relation::kGreaterEqual, 1.0}});
  EXPECT_EQ(solve(p).status, Status::kUnbounded);
}

TEST(Lp, HandlesDegeneracyWithBlandsRule) {
  // A classically degenerate problem (Beale-style cycling examples need
  // most-negative pivoting; Bland must terminate regardless).
  const Problem p = make(4, {-0.75, 150.0, -0.02, 6.0},
                         {{{0.25, -60.0, -0.04, 9.0}, Relation::kLessEqual, 0.0},
                          {{0.5, -90.0, -0.02, 3.0}, Relation::kLessEqual, 0.0},
                          {{0.0, 0.0, 1.0, 0.0}, Relation::kLessEqual, 1.0}});
  const Solution s = solve(p);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.objective, -0.05, 1e-9);
}

TEST(Lp, RedundantEqualitiesStayFeasible) {
  // Duplicate equality rows leave a zero-valued artificial in the
  // basis; the solution must still be exact.
  const Problem p = make(2, {1.0, 1.0},
                         {{{1.0, 1.0}, Relation::kEqual, 4.0},
                          {{1.0, 1.0}, Relation::kEqual, 4.0},
                          {{1.0, -1.0}, Relation::kEqual, 0.0}});
  const Solution s = solve(p);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.x[0], 2.0, 1e-9);
  EXPECT_NEAR(s.x[1], 2.0, 1e-9);
}

TEST(Lp, SolutionIsDeterministic) {
  const Problem p = make(3, {1.0, 2.0, 3.0},
                         {{{1.0, 1.0, 1.0}, Relation::kGreaterEqual, 6.0},
                          {{2.0, 1.0, 0.0}, Relation::kGreaterEqual, 4.0}});
  const Solution a = solve(p);
  const Solution b = solve(p);
  ASSERT_EQ(a.status, Status::kOptimal);
  EXPECT_EQ(a.x, b.x);  // bitwise equality, not approximate
  EXPECT_EQ(a.iterations, b.iterations);
}

TEST(Lp, ValidatesShapes) {
  Problem p = make(2, {1.0}, {});
  EXPECT_THROW(solve(p), std::invalid_argument);
  p = make(1, {1.0}, {{{1.0, 2.0}, Relation::kLessEqual, 1.0}});
  EXPECT_THROW(solve(p), std::invalid_argument);
}

}  // namespace
}  // namespace locpriv::core::lp
