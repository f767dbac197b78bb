#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/experiment.h"
#include "core/system_definition.h"
#include "geo/bbox.h"
#include "geo/grid.h"
#include "geo/point.h"
#include "lppm/optimal_geo_ind.h"
#include "lppm/optimal_matrix.h"
#include "lppm/registry.h"
#include "metrics/area_coverage.h"
#include "metrics/poi_retrieval.h"
#include "oracles/lp.h"
#include "test_util.h"

namespace locpriv::lppm {
namespace {

std::vector<geo::Point> grid_centers(int cols, int rows, double cell) {
  std::vector<geo::Point> pts;
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) pts.push_back({(c + 0.5) * cell, (r + 0.5) * cell});
  }
  return pts;
}

/// Reference optimum via the simplex core: minimize the uniform-prior
/// expected loss subject to row-stochasticity and the dense pairwise
/// geo-ind constraint set. Small instances only (dense tableau).
double lp_optimal_loss(const std::vector<geo::Point>& centers, double eps) {
  const std::size_t n = centers.size();
  core::lp::Problem p;
  p.variable_count = n * n;
  p.objective.assign(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      p.objective[i * n + j] = geo::distance(centers[i], centers[j]) / static_cast<double>(n);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    core::lp::Constraint c;
    c.coeffs.assign(n * n, 0.0);
    for (std::size_t j = 0; j < n; ++j) c.coeffs[i * n + j] = 1.0;
    c.relation = core::lp::Relation::kEqual;
    c.rhs = 1.0;
    p.constraints.push_back(std::move(c));
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < n; ++k) {
      if (k == i) continue;
      const double bound = std::exp(eps * geo::distance(centers[i], centers[k]));
      for (std::size_t j = 0; j < n; ++j) {
        core::lp::Constraint c;
        c.coeffs.assign(n * n, 0.0);
        c.coeffs[i * n + j] = 1.0;
        c.coeffs[k * n + j] = -bound;
        c.relation = core::lp::Relation::kLessEqual;
        c.rhs = 0.0;
        p.constraints.push_back(std::move(c));
      }
    }
  }
  const core::lp::Solution s = core::lp::solve(p);
  EXPECT_EQ(s.status, core::lp::Status::kOptimal);
  return s.objective;
}

double dense_margin(const std::vector<double>& x, const std::vector<geo::Point>& centers,
                    double eps) {
  const std::size_t n = centers.size();
  double margin = 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < n; ++k) {
      if (k == i) continue;
      const double bound = std::exp(eps * geo::distance(centers[i], centers[k]));
      for (std::size_t j = 0; j < n; ++j) {
        margin = std::min(margin, bound * x[k * n + j] - x[i * n + j]);
      }
    }
  }
  return margin;
}

bool traces_equal(const trace::Trace& a, const trace::Trace& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i])) return false;
  }
  return true;
}

TEST(OptimalGeoIndRegistry, RegisteredWithStochasticFlag) {
  const std::vector<std::string> names = mechanism_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "optimal-geo-ind"), names.end());
  const std::unique_ptr<Mechanism> mech = create_mechanism("optimal-geo-ind");
  ASSERT_NE(mech, nullptr);
  EXPECT_EQ(mech->name(), "optimal-geo-ind");
  EXPECT_FALSE(mech->deterministic());
  EXPECT_FALSE(mechanism_is_deterministic("optimal-geo-ind"));
  EXPECT_TRUE(mechanism_is_deterministic("grid-cloaking"));
  EXPECT_THROW((void)mechanism_is_deterministic("no-such-mechanism"), std::invalid_argument);
}

// The registry flag must match observed behavior: a mechanism declaring
// deterministic() must produce seed-independent output. (The reverse —
// stochastic mechanisms must react to the seed — is asserted for the
// noise mechanisms where a collision is impossible in practice.)
TEST(OptimalGeoIndRegistry, DeterministicFlagMatchesObservedBehavior) {
  const trace::Trace input =
      testutil::line_trace("u0", {-2000.0, -1500.0}, {2000.0, 1500.0}, 3600);
  for (const std::string& name : mechanism_names()) {
    const std::unique_ptr<Mechanism> mech = create_mechanism(name);
    const trace::Trace a = mech->protect(input, 11);
    const trace::Trace b = mech->protect(input, 12);
    if (mechanism_is_deterministic(name)) {
      EXPECT_TRUE(traces_equal(a, b)) << name << " declares deterministic but reacts to the seed";
    }
  }
  for (const std::string& name :
       {"geo-indistinguishability", "gaussian-perturbation", "optimal-geo-ind"}) {
    const std::unique_ptr<Mechanism> mech = create_mechanism(name);
    // A small epsilon spreads the optimal mechanism's reporting rows;
    // at the default, nearly all mass sits on the true cell and two
    // seeds can legitimately coincide on a short trace.
    for (const ParameterSpec& spec : mech->parameters()) {
      if (spec.name == "epsilon") mech->set_parameter(spec.name, 1e-3);
    }
    const trace::Trace a = mech->protect(input, 11);
    const trace::Trace b = mech->protect(input, 12);
    EXPECT_FALSE(traces_equal(a, b)) << name << " ignored the seed despite a stochastic flag";
  }
}

TEST(OptimalMatrix, ExactSolverNearLpOptimumAndFeasible) {
  const std::vector<geo::Point> centers = grid_centers(3, 2, 500.0);
  for (const double eps : {0.0005, 0.002}) {
    const double reference = lp_optimal_loss(centers, eps);
    OptimalMatrixConfig config;
    config.epsilon = eps;
    config.delta = 1.0;
    const OptimalMatrixResult result = build_optimal_matrix(centers, config);
    EXPECT_EQ(result.cells, centers.size());
    // Never below the LP optimum (it is an optimum), and within the
    // documented heuristic band above it.
    EXPECT_GE(result.expected_loss, reference - 1e-6) << "eps=" << eps;
    EXPECT_LE(result.expected_loss, reference * 1.08) << "eps=" << eps;
    EXPECT_LE(result.residual, 1e-9);
    EXPECT_GE(dense_margin(result.matrix, centers, eps), -1e-9);
    for (std::size_t i = 0; i < result.cells; ++i) {
      double sum = 0.0;
      for (std::size_t j = 0; j < result.cells; ++j) sum += result.matrix[i * result.cells + j];
      EXPECT_NEAR(sum, 1.0, 1e-9);
    }
  }
}

// The spanner relaxation solves a pruned constraint set at eps/delta;
// its loss must sit between the exact LP optimum at eps and (within the
// heuristic band) the LP optimum at eps/delta — and the resulting
// matrix must still satisfy the FULL dense constraint set at eps.
TEST(OptimalMatrix, SpannerLossSandwichedAndStillFeasible) {
  const std::vector<geo::Point> centers = grid_centers(3, 2, 500.0);
  const double eps = 0.002;
  const double delta = 1.1;
  OptimalMatrixConfig config;
  config.epsilon = eps;
  config.delta = delta;
  const OptimalMatrixResult result = build_optimal_matrix(centers, config);
  EXPECT_GT(result.spanner_edges, 0u);
  EXPECT_LT(result.spanner_edges, centers.size() * (centers.size() - 1) / 2);
  EXPECT_LE(result.spanner_dilation, delta + 1e-12);
  EXPECT_GE(result.expected_loss, lp_optimal_loss(centers, eps) - 1e-6);
  EXPECT_LE(result.expected_loss, lp_optimal_loss(centers, eps / delta) * 1.08);
  EXPECT_GE(dense_margin(result.matrix, centers, eps), -1e-9);
}

TEST(OptimalMatrix, ValidatesArguments) {
  const std::vector<geo::Point> centers = grid_centers(2, 2, 500.0);
  OptimalMatrixConfig config;
  EXPECT_THROW((void)build_optimal_matrix({}, config), std::invalid_argument);
  config.epsilon = 0.0;
  EXPECT_THROW((void)build_optimal_matrix(centers, config), std::invalid_argument);
  config.epsilon = 0.01;
  config.delta = 0.5;
  EXPECT_THROW((void)build_optimal_matrix(centers, config), std::invalid_argument);
  config.delta = 1.0;
  config.max_iterations = 0;
  EXPECT_THROW((void)build_optimal_matrix(centers, config), std::invalid_argument);
  const std::vector<geo::Point> too_many(kMaxOptimalCells + 1, geo::Point{0.0, 0.0});
  EXPECT_THROW((void)build_optimal_matrix(too_many, OptimalMatrixConfig{}),
               std::invalid_argument);
}

TEST(OptimalGeoIndMechanism, ServesCellCentersAndClamps) {
  OptimalGeoInd mech(0.01);
  mech.set_parameter(OptimalGeoInd::kCellSize, 1000.0);
  mech.set_parameter(OptimalGeoInd::kHalfExtent, 2000.0);

  trace::Trace input("u0");
  input.append({0, {150.0, -300.0}});
  input.append({60, {99999.0, -99999.0}});  // far outside: clamped, still served
  input.append({120, {-1999.0, 1999.0}});
  const trace::Trace out = mech.protect(input, 5);
  ASSERT_EQ(out.size(), input.size());

  const geo::GridExtent extent(geo::BoundingBox(geo::Point{-2000.0, -2000.0},
                                                geo::Point{2000.0, 2000.0}),
                               1000.0);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].time, input[i].time);
    bool is_center = false;
    for (std::size_t row = 0; row < extent.rows() && !is_center; ++row) {
      for (std::size_t col = 0; col < extent.cols() && !is_center; ++col) {
        const geo::Point c = extent.cell_center(
            {static_cast<std::int64_t>(col), static_cast<std::int64_t>(row)});
        is_center = out[i].location.x == c.x && out[i].location.y == c.y;
      }
    }
    EXPECT_TRUE(is_center) << "event " << i << " not on a cell center";
  }

  const trace::Trace empty("u1");
  EXPECT_EQ(mech.protect(empty, 5).size(), 0u);
}

TEST(OptimalGeoIndMechanism, RejectsCellCountBeyondCap) {
  OptimalGeoInd mech;
  mech.set_parameter(OptimalGeoInd::kCellSize, 50.0);
  mech.set_parameter(OptimalGeoInd::kHalfExtent, 50000.0);
  const trace::Trace input = testutil::stationary_trace("u0", {0.0, 0.0}, 60);
  EXPECT_THROW((void)mech.protect(input, 1), std::invalid_argument);
}

// Serving goes through per-row alias tables; the empirical draw
// distribution must match the solved matrix row. Chi-square with a
// fixed seed — a regression gate, not a statistical coin flip.
TEST(OptimalGeoIndMechanism, AliasDrawsMatchSolvedMatrixRow) {
  OptimalGeoInd mech(0.002, 1.0);
  mech.set_parameter(OptimalGeoInd::kCellSize, 1000.0);
  mech.set_parameter(OptimalGeoInd::kHalfExtent, 2000.0);
  const OptimalMatrixResult& solution = mech.solution();
  const std::size_t n = solution.cells;
  ASSERT_EQ(n, 16u);

  const geo::Point where{-1500.0, -1500.0};  // center of linear cell 0
  const geo::GridExtent extent(geo::BoundingBox(geo::Point{-2000.0, -2000.0},
                                                geo::Point{2000.0, 2000.0}),
                               1000.0);
  const std::size_t cell = extent.linear_index(where);
  ASSERT_EQ(cell, 0u);

  const std::size_t draws = 20000;
  const trace::Trace input =
      testutil::stationary_trace("u0", where, static_cast<trace::Timestamp>((draws - 1) * 60));
  ASSERT_EQ(input.size(), draws);
  const trace::Trace out = mech.protect(input, 3);

  std::vector<std::size_t> counts(n, 0);
  for (std::size_t i = 0; i < out.size(); ++i) ++counts[extent.linear_index(out[i].location)];

  // Merge outcomes with expected count < 5 into one rest bucket (the
  // usual chi-square validity rule), then test at roughly p = 0.001.
  double chi2 = 0.0;
  double rest_expected = 0.0;
  std::size_t rest_observed = 0;
  std::size_t bins = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const double expected = solution.matrix[cell * n + j] * static_cast<double>(draws);
    if (expected < 5.0) {
      rest_expected += expected;
      rest_observed += counts[j];
      continue;
    }
    const double diff = static_cast<double>(counts[j]) - expected;
    chi2 += diff * diff / expected;
    ++bins;
  }
  if (rest_expected > 0.0) {
    const double diff = static_cast<double>(rest_observed) - rest_expected;
    chi2 += diff * diff / std::max(rest_expected, 1e-9);
    ++bins;
  }
  ASSERT_GE(bins, 2u);
  const double dof = static_cast<double>(bins - 1);
  EXPECT_LT(chi2, 3.1 * dof + 16.0);
}

// The acceptance bar for sweeps: bit-identical results at 1 and 8
// worker threads, memcmp over the packed per-point means.
TEST(OptimalGeoIndMechanism, SweepBitIdenticalAcrossThreadCounts) {
  core::SystemDefinition def;
  def.mechanism_factory = [] {
    auto mech = std::make_unique<OptimalGeoInd>();
    mech->set_parameter(OptimalGeoInd::kCellSize, 1000.0);
    mech->set_parameter(OptimalGeoInd::kHalfExtent, 2500.0);
    return mech;
  };
  def.sweep = {OptimalGeoInd::kEpsilon, 1e-3, 5e-2, 3, Scale::kLog};
  def.privacy = std::make_shared<metrics::PoiRetrieval>();
  def.utility = std::make_shared<metrics::AreaCoverage>();
  const trace::Dataset data = testutil::two_stop_dataset(2);

  core::ExperimentConfig serial;
  serial.threads = 1;
  serial.trials = 2;
  core::ExperimentConfig parallel;
  parallel.threads = 8;
  parallel.trials = 2;
  const core::SweepResult a = core::run_sweep(def, data, serial);
  const core::SweepResult b = core::run_sweep(def, data, parallel);
  ASSERT_EQ(a.points.size(), b.points.size());

  const auto packed = [](const core::SweepResult& r) {
    std::vector<double> values;
    for (const core::SweepPoint& p : r.points) {
      values.push_back(p.parameter_value);
      values.push_back(p.privacy_mean);
      values.push_back(p.utility_mean);
    }
    return values;
  };
  const std::vector<double> pa = packed(a);
  const std::vector<double> pb = packed(b);
  ASSERT_EQ(pa.size(), pb.size());
  EXPECT_EQ(std::memcmp(pa.data(), pb.data(), pa.size() * sizeof(double)), 0);
}

// protect() is const and the plan cache is mutex-guarded: concurrent
// first-use from many threads must be safe (TSan lane) and identical to
// the serial result for the same seed.
TEST(OptimalGeoIndMechanism, ConcurrentProtectSharesOnePlan) {
  OptimalGeoInd mech(0.01);
  mech.set_parameter(OptimalGeoInd::kCellSize, 1000.0);
  mech.set_parameter(OptimalGeoInd::kHalfExtent, 2000.0);
  const trace::Trace input = testutil::line_trace("u0", {-1500.0, 0.0}, {1500.0, 500.0}, 1800);

  std::vector<trace::Trace> outputs(8, trace::Trace(""));
  {
    std::vector<std::thread> workers;
    workers.reserve(outputs.size());
    for (std::size_t t = 0; t < outputs.size(); ++t) {
      workers.emplace_back([&, t] { outputs[t] = mech.protect(input, 77); });
    }
    for (std::thread& w : workers) w.join();
  }
  const trace::Trace reference = mech.protect(input, 77);
  for (const trace::Trace& out : outputs) EXPECT_TRUE(traces_equal(out, reference));
}

TEST(OptimalGeoIndMechanism, SolutionExposesDiagnostics) {
  OptimalGeoInd mech(0.005, 1.1);
  mech.set_parameter(OptimalGeoInd::kCellSize, 1000.0);
  mech.set_parameter(OptimalGeoInd::kHalfExtent, 2500.0);
  const OptimalMatrixResult& s = mech.solution();
  EXPECT_EQ(s.cells, 25u);
  EXPECT_EQ(s.matrix.size(), s.cells * s.cells);
  EXPECT_TRUE(std::isfinite(s.loss_exponential));
  EXPECT_TRUE(std::isfinite(s.loss_best_column));
  EXPECT_TRUE(std::isfinite(s.expected_loss));
  EXPECT_GT(s.spanner_edges, 0u);
  EXPECT_LE(s.spanner_dilation, 1.1 + 1e-12);
  EXPECT_GE(s.constraint_margin, -1e-9);
}

}  // namespace
}  // namespace locpriv::lppm
