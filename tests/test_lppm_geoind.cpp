#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "lppm/geo_ind.h"
#include "oracles/ks_test.h"
#include "stats/online.h"
#include "stats/rng.h"
#include "test_util.h"

namespace locpriv::lppm {
namespace {

TEST(GeoInd, DeclaresEpsilonParameter) {
  const GeoIndistinguishability mech;
  ASSERT_EQ(mech.parameters().size(), 1u);
  const ParameterSpec& spec = mech.parameters()[0];
  EXPECT_EQ(spec.name, "epsilon");
  EXPECT_EQ(spec.scale, Scale::kLog);
  EXPECT_EQ(spec.unit, "1/m");
  EXPECT_DOUBLE_EQ(mech.epsilon(), spec.default_value);
}

TEST(GeoInd, SetParameterValidation) {
  GeoIndistinguishability mech;
  mech.set_parameter("epsilon", 0.5);
  EXPECT_DOUBLE_EQ(mech.epsilon(), 0.5);
  EXPECT_THROW(mech.set_parameter("epsilon", 100.0), std::out_of_range);
  EXPECT_THROW(mech.set_parameter("sigma", 1.0), std::invalid_argument);
  EXPECT_THROW((void)mech.parameter("nope"), std::invalid_argument);
  EXPECT_THROW(GeoIndistinguishability(-1.0), std::out_of_range);
}

TEST(GeoInd, PreservesStructure) {
  const GeoIndistinguishability mech(0.01);
  const trace::Trace input = testutil::line_trace("u", {0, 0}, {5000, 0}, 3600);
  const trace::Trace out = mech.protect(input, 42);
  ASSERT_EQ(out.size(), input.size());
  EXPECT_EQ(out.user_id(), "u");
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].time, input[i].time);  // timestamps untouched
    EXPECT_NE(out[i].location, input[i].location);  // locations perturbed
  }
}

TEST(GeoInd, DeterministicInSeed) {
  const GeoIndistinguishability mech(0.01);
  const trace::Trace input = testutil::stationary_trace("u", {0, 0}, 600);
  EXPECT_EQ(mech.protect(input, 7), mech.protect(input, 7));
  EXPECT_NE(mech.protect(input, 7), mech.protect(input, 8));
}

TEST(GeoInd, MeanDisplacementIsTwoOverEpsilon) {
  for (const double eps : {0.005, 0.01, 0.05}) {
    const GeoIndistinguishability mech(eps);
    const trace::Trace input = testutil::stationary_trace("u", {0, 0}, 60'000, 10);
    const trace::Trace out = mech.protect(input, 99);
    stats::OnlineMoments disp;
    for (std::size_t i = 0; i < out.size(); ++i) {
      disp.add(geo::distance(out[i].location, input[i].location));
    }
    EXPECT_NEAR(disp.mean(), 2.0 / eps, 0.06 * (2.0 / eps)) << "eps = " << eps;
  }
}

TEST(GeoInd, NoiseIsUnbiased) {
  const GeoIndistinguishability mech(0.02);
  const trace::Trace input = testutil::stationary_trace("u", {500, -500}, 120'000, 10);
  const trace::Trace out = mech.protect(input, 3);
  stats::OnlineMoments dx;
  stats::OnlineMoments dy;
  for (std::size_t i = 0; i < out.size(); ++i) {
    dx.add(out[i].location.x - input[i].location.x);
    dy.add(out[i].location.y - input[i].location.y);
  }
  // Mean offset ~0 vs noise scale 100 m.
  EXPECT_NEAR(dx.mean(), 0.0, 4.0);
  EXPECT_NEAR(dy.mean(), 0.0, 4.0);
}

TEST(GeoInd, LowerEpsilonMeansMoreNoise) {
  const trace::Trace input = testutil::stationary_trace("u", {0, 0}, 30'000, 10);
  double prev_mean = 0.0;
  for (const double eps : {0.1, 0.01, 0.001}) {
    const GeoIndistinguishability mech(eps);
    const trace::Trace out = mech.protect(input, 5);
    stats::OnlineMoments disp;
    for (std::size_t i = 0; i < out.size(); ++i) {
      disp.add(geo::distance(out[i].location, input[i].location));
    }
    EXPECT_GT(disp.mean(), prev_mean);
    prev_mean = disp.mean();
  }
}

TEST(GeoInd, ProtectDatasetDerivesPerUserSeeds) {
  const GeoIndistinguishability mech(0.01);
  trace::Dataset d;
  // Two identical users: per-user seed derivation must give them
  // different noise.
  d.add(testutil::stationary_trace("a", {0, 0}, 600));
  d.add(testutil::stationary_trace("b", {0, 0}, 600));
  const trace::Dataset out = mech.protect_dataset(d, 1);
  const bool same_coords = std::ranges::equal(out[0].xs(), out[1].xs()) &&
                           std::ranges::equal(out[0].ys(), out[1].ys());
  EXPECT_FALSE(same_coords);
  EXPECT_EQ(out[0].user_id(), "a");
}

TEST(GeoInd, EmptyTraceHandled) {
  const GeoIndistinguishability mech(0.01);
  const trace::Trace out = mech.protect(trace::Trace("u"), 1);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(out.user_id(), "u");
}

// Parameterized sanity sweep: displacement quantiles follow the analytic
// radius CDF across epsilons.
class GeoIndQuantileSweep : public ::testing::TestWithParam<double> {};

TEST_P(GeoIndQuantileSweep, MedianDisplacementMatchesAnalyticQuantile) {
  const double eps = GetParam();
  const GeoIndistinguishability mech(eps);
  const trace::Trace input = testutil::stationary_trace("u", {0, 0}, 80'000, 10);
  const trace::Trace out = mech.protect(input, 1234);
  std::vector<double> disp;
  disp.reserve(out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    disp.push_back(geo::distance(out[i].location, input[i].location));
  }
  std::nth_element(disp.begin(), disp.begin() + disp.size() / 2, disp.end());
  const double median = disp[disp.size() / 2];
  const double analytic = stats::planar_laplace_radius_quantile(eps, 0.5);
  EXPECT_NEAR(median, analytic, 0.08 * analytic) << "eps = " << eps;
}

INSTANTIATE_TEST_SUITE_P(EpsilonRange, GeoIndQuantileSweep,
                         ::testing::Values(0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.5));

// ----------------------- statistical goodness-of-fit (fixed seeds) -----
//
// The tests below are full-distribution checks, not moment checks: the
// sampled displacements must pass a Kolmogorov–Smirnov test against the
// analytic planar-Laplace law. Seeds are fixed, so each test is a
// deterministic regression, not a flaky coin flip: the sampler either
// reproduces the distribution for this seed (p-value comfortably above
// the 0.01 floor; see docs/TESTING.md) or it is broken.

constexpr double kKsPValueFloor = 0.01;
constexpr std::uint64_t kKsSeed = 20160317;  // fixed: see docs/TESTING.md

/// Per-report displacement vectors of a stationary trace, one sample per
/// report. `n` reports at 10 s spacing.
std::vector<geo::Point> displacement_sample(double eps, std::size_t n, std::uint64_t seed) {
  const GeoIndistinguishability mech(eps);
  const trace::Trace input =
      testutil::stationary_trace("u", {0, 0}, static_cast<trace::Timestamp>(10 * (n - 1)), 10);
  const trace::Trace out = mech.protect(input, seed);
  std::vector<geo::Point> d;
  d.reserve(out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    d.push_back({out[i].location.x - input[i].location.x,
                 out[i].location.y - input[i].location.y});
  }
  return d;
}

TEST(GeoIndStatistical, RadialDisplacementPassesKsAgainstAnalyticCdf) {
  for (const double eps : {0.005, 0.02, 0.1}) {
    const std::vector<geo::Point> d = displacement_sample(eps, 8000, kKsSeed);
    std::vector<double> radii;
    radii.reserve(d.size());
    for (const geo::Point& p : d) radii.push_back(std::hypot(p.x, p.y));
    const stats::KsResult ks = stats::ks_test(
        radii, [eps](double r) { return stats::planar_laplace_radius_cdf(eps, r); });
    EXPECT_GT(ks.p_value, kKsPValueFloor)
        << "eps = " << eps << ": radial CDF mismatch, KS D = " << ks.statistic;
  }
}

TEST(GeoIndStatistical, DisplacementAngleIsUniformOnTheCircle) {
  const std::vector<geo::Point> d = displacement_sample(0.02, 8000, kKsSeed + 1);
  std::vector<double> angles;
  angles.reserve(d.size());
  for (const geo::Point& p : d) angles.push_back(std::atan2(p.y, p.x));
  constexpr double kPi = 3.14159265358979323846;
  const stats::KsResult ks = stats::ks_test(
      angles, [kPi](double theta) { return (theta + kPi) / (2.0 * kPi); });
  EXPECT_GT(ks.p_value, kKsPValueFloor)
      << "angular bias in the planar Laplace sampler, KS D = " << ks.statistic;
}

TEST(GeoIndStatistical, EpsilonScalingCollapsesToTheUnitDistribution) {
  // Geo-I's defining scale-invariance: if R ~ PlanarLaplace(eps) then
  // eps * R ~ PlanarLaplace(1). Testing the rescaled radii of several
  // epsilons against the single unit CDF checks that epsilon enters the
  // sampler exactly as an inverse length scale — a miscalibration that
  // per-epsilon CDF tests could miss if it cancelled.
  for (const double eps : {0.002, 0.05, 0.5}) {
    const std::vector<geo::Point> d = displacement_sample(eps, 8000, kKsSeed + 2);
    std::vector<double> scaled;
    scaled.reserve(d.size());
    for (const geo::Point& p : d) scaled.push_back(eps * std::hypot(p.x, p.y));
    const stats::KsResult ks = stats::ks_test(
        scaled, [](double r) { return stats::planar_laplace_radius_cdf(1.0, r); });
    EXPECT_GT(ks.p_value, kKsPValueFloor)
        << "eps = " << eps << " does not rescale to the unit law, KS D = " << ks.statistic;
  }
}

TEST(GeoIndStatistical, KsCatchesAWrongDistribution) {
  // Negative control for the harness itself: radii tested against a
  // deliberately wrong CDF (epsilon off by 20%) must fail decisively,
  // proving the p-value floor has teeth at this sample size.
  const std::vector<geo::Point> d = displacement_sample(0.02, 8000, kKsSeed);
  std::vector<double> radii;
  radii.reserve(d.size());
  for (const geo::Point& p : d) radii.push_back(std::hypot(p.x, p.y));
  const stats::KsResult ks = stats::ks_test(
      radii, [](double r) { return stats::planar_laplace_radius_cdf(0.024, r); });
  EXPECT_LT(ks.p_value, 1e-6) << "KS harness cannot distinguish a 20% epsilon error";
}

}  // namespace
}  // namespace locpriv::lppm
