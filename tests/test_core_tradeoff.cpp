#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "core/tradeoff.h"

namespace locpriv::core {
namespace {

SweepResult retrieval_sweep() {
  SweepResult s;
  s.privacy_metric = "poi-retrieval";
  s.utility_metric = "area-coverage-f1";
  s.privacy_direction = metrics::Direction::kLowerIsMorePrivate;
  s.utility_direction = metrics::Direction::kHigherIsMoreUseful;
  // Classic trade-off: retrieval and coverage both rise with eps.
  s.points.push_back({0.001, 0.0, 0.0, 0.2, 0.0});
  s.points.push_back({0.01, 0.1, 0.0, 0.5, 0.0});
  s.points.push_back({0.1, 0.5, 0.0, 0.9, 0.0});
  s.points.push_back({1.0, 1.0, 0.0, 1.0, 0.0});
  return s;
}

TEST(Tradeoff, DirectionsOrientGoodness) {
  const auto points = to_tradeoff_points(retrieval_sweep());
  ASSERT_EQ(points.size(), 4u);
  // Lower retrieval = more private -> negated.
  EXPECT_DOUBLE_EQ(points[0].privacy_goodness, 0.0);
  EXPECT_DOUBLE_EQ(points[3].privacy_goodness, -1.0);
  EXPECT_DOUBLE_EQ(points[0].utility_goodness, 0.2);
}

TEST(Tradeoff, ParetoFrontOnMonotoneCurveKeepsEverything) {
  // A strict trade-off curve: every point is Pareto-optimal.
  const auto points = to_tradeoff_points(retrieval_sweep());
  const auto front = pareto_front(points);
  EXPECT_EQ(front.size(), 4u);
  // Ascending utility order.
  for (std::size_t i = 1; i < front.size(); ++i) {
    EXPECT_GT(front[i].utility_goodness, front[i - 1].utility_goodness);
    EXPECT_LT(front[i].privacy_goodness, front[i - 1].privacy_goodness);
  }
}

TEST(Tradeoff, DominatedPointsRemoved) {
  std::vector<TradeoffPoint> points{
      {1, 0.9, 0.1},
      {2, 0.5, 0.5},
      {3, 0.4, 0.4},  // dominated by point 2
      {4, 0.1, 0.9},
      {5, 0.05, 0.05},  // dominated by everything
  };
  const auto front = pareto_front(points);
  ASSERT_EQ(front.size(), 3u);
  EXPECT_DOUBLE_EQ(front[0].privacy_goodness, 0.9);
  EXPECT_DOUBLE_EQ(front[1].privacy_goodness, 0.5);
  EXPECT_DOUBLE_EQ(front[2].privacy_goodness, 0.1);
}

TEST(Tradeoff, TiesOnUtilityKeepBestPrivacy) {
  std::vector<TradeoffPoint> points{{1, 0.9, 0.5}, {2, 0.3, 0.5}};
  const auto front = pareto_front(points);
  ASSERT_EQ(front.size(), 1u);
  EXPECT_DOUBLE_EQ(front[0].privacy_goodness, 0.9);
}

TEST(Tradeoff, AucBoundsAndOrdering) {
  // An ideal mechanism (a point with both = max) scores higher than a
  // strict diagonal trade-off.
  std::vector<TradeoffPoint> diagonal{{1, 1.0, 0.0}, {2, 0.5, 0.5}, {3, 0.0, 1.0}};
  std::vector<TradeoffPoint> ideal{{1, 1.0, 0.0}, {2, 1.0, 1.0}, {3, 0.0, 1.0}};
  const std::vector<double> auc = tradeoff_auc({diagonal, ideal});
  const double auc_diag = auc[0];
  const double auc_ideal = auc[1];
  EXPECT_GT(auc_ideal, auc_diag);
  EXPECT_GE(auc_diag, 0.0);
  EXPECT_LE(auc_ideal, 1.0);
  // Ideal front: full square.
  EXPECT_NEAR(auc_ideal, 1.0, 1e-9);
}

TEST(Tradeoff, AucValidation) {
  EXPECT_THROW((void)tradeoff_auc({}), std::invalid_argument);
  std::vector<TradeoffPoint> flat{{1, 0.5, 0.1}, {2, 0.5, 0.9}};
  EXPECT_THROW((void)tradeoff_auc({flat}), std::invalid_argument);  // zero privacy spread
}

TEST(Tradeoff, AucFromRealisticSweepShape) {
  const auto points = to_tradeoff_points(retrieval_sweep());
  const double auc = tradeoff_auc({points})[0];
  EXPECT_GT(auc, 0.0);
  EXPECT_LT(auc, 1.0);
}

/// A Pr/Ut sweep from (Pr, Ut) rows, in the retrieval/coverage directions.
SweepResult sweep_of(const std::vector<std::pair<double, double>>& rows) {
  SweepResult s = retrieval_sweep();
  s.points.clear();
  for (const auto& [pr, ut] : rows) s.points.push_back({0.0, pr, 0.0, ut, 0.0});
  return s;
}

TEST(Tradeoff, SharedFrameRanksTheDominatingCurveFirst) {
  // Planar Laplace and a grid mechanism with 1 km cells on one fleet,
  // the same ten epsilons. Every grid point is dominated by a Laplace
  // point (Pr no higher, Ut higher), but the grid curve's own range is
  // narrow: Ut 0.020-0.030 against Laplace's 0.057-0.637. Normalized
  // each to its own range, the grid curve would score higher.
  const auto laplace = to_tradeoff_points(
      sweep_of({{0.000, 0.057}, {0.000, 0.083}, {0.000, 0.134}, {0.000, 0.168}, {0.014, 0.204},
                {0.123, 0.237}, {0.317, 0.278}, {0.688, 0.351}, {0.953, 0.479}, {1.000, 0.637}}));
  const auto grid = to_tradeoff_points(
      sweep_of({{0.000, 0.020}, {0.000, 0.024}, {0.208, 0.028}, {0.246, 0.029}, {0.246, 0.030},
                {0.246, 0.030}, {0.246, 0.030}, {0.246, 0.030}, {0.246, 0.030}, {0.246, 0.030}}));
  const std::vector<double> auc = tradeoff_auc({laplace, grid});
  ASSERT_EQ(auc.size(), 2u);
  EXPECT_GT(auc[0], auc[1]);
  EXPECT_LT(auc[1], 0.05);  // its 0.246 plateau reaches no further than Ut 0.030
  // A curve's score does not depend on where it sits in the list.
  const std::vector<double> swapped = tradeoff_auc({grid, laplace});
  EXPECT_DOUBLE_EQ(swapped[0], auc[1]);
  EXPECT_DOUBLE_EQ(swapped[1], auc[0]);
  EXPECT_THROW((void)tradeoff_auc({laplace, {}}), std::invalid_argument);
}

}  // namespace
}  // namespace locpriv::core
