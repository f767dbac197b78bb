#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "oracles/ks_test.h"
#include "oracles/planar_laplace.h"
#include "stats/rng.h"

namespace locpriv::stats {
namespace {

double uniform_cdf(double x) { return std::clamp(x, 0.0, 1.0); }

TEST(KsTest, UniformSampleAgainstUniformCdfPasses) {
  Rng rng(3);
  std::vector<double> sample;
  for (int i = 0; i < 2000; ++i) sample.push_back(rng.uniform());
  const KsResult r = ks_test(sample, uniform_cdf);
  EXPECT_LT(r.statistic, 0.05);
  EXPECT_GT(r.p_value, 0.01);
}

TEST(KsTest, WrongDistributionRejected) {
  // Squared uniforms are Beta(1/2,1)-ish, far from uniform.
  Rng rng(5);
  std::vector<double> sample;
  for (int i = 0; i < 2000; ++i) {
    const double u = rng.uniform();
    sample.push_back(u * u);
  }
  const KsResult r = ks_test(sample, uniform_cdf);
  EXPECT_GT(r.statistic, 0.2);
  EXPECT_LT(r.p_value, 1e-6);
}

TEST(KsTest, PlanarLaplaceRadiiMatchAnalyticCdf) {
  // The library's core sampling claim, tested formally.
  Rng rng(7);
  const double eps = 0.01;
  std::vector<double> radii;
  for (int i = 0; i < 5000; ++i) radii.push_back(sample_planar_laplace(rng, eps).norm());
  const KsResult r = ks_test(radii, [&](double x) { return planar_laplace_radius_cdf(eps, x); });
  EXPECT_GT(r.p_value, 0.01) << "D = " << r.statistic;
}

TEST(KsTest, GaussianVsLaplaceDistinguished) {
  // Normal radii against the planar-Laplace radius CDF: must reject.
  Rng rng(9);
  const double eps = 0.01;
  std::vector<double> radii;
  for (int i = 0; i < 5000; ++i) {
    radii.push_back(std::abs(rng.normal(0.0, 2.0 / eps)));
  }
  const KsResult r = ks_test(radii, [&](double x) { return planar_laplace_radius_cdf(eps, x); });
  EXPECT_LT(r.p_value, 1e-6);
}

TEST(KsTest, Validation) {
  EXPECT_THROW((void)ks_test({}, uniform_cdf), std::invalid_argument);
  const std::vector<double> one{0.5};
  EXPECT_THROW((void)ks_test(one, nullptr), std::invalid_argument);
}

TEST(KsTest, StatisticBounds) {
  const std::vector<double> sample{0.5};
  const KsResult r = ks_test(sample, uniform_cdf);
  EXPECT_GE(r.statistic, 0.0);
  EXPECT_LE(r.statistic, 1.0);
  EXPECT_GE(r.p_value, 0.0);
  EXPECT_LE(r.p_value, 1.0);
}

}  // namespace
}  // namespace locpriv::stats
