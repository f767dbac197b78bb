#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "oracles/ks_test.h"
#include "oracles/planar_laplace.h"
#include "stats/descriptive.h"
#include "stats/online.h"
#include "stats/rng.h"

namespace locpriv::stats {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a() == b() ? 1 : 0;
  EXPECT_LT(same, 3);
}

TEST(Rng, DeriveSeedDecorrelatesStreams) {
  const std::uint64_t root = 42;
  EXPECT_NE(derive_seed(root, 0), derive_seed(root, 1));
  EXPECT_NE(derive_seed(root, 0), derive_seed(root + 1, 0));
  // Derived seeds should not collide across a realistic stream count.
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t s = 0; s < 10'000; ++s) seeds.push_back(derive_seed(root, s));
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  OnlineMoments m;
  for (int i = 0; i < 20'000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    m.add(u);
  }
  EXPECT_NEAR(m.mean(), 0.5, 0.01);
  EXPECT_NEAR(m.variance(), 1.0 / 12.0, 0.005);
}

TEST(Rng, UniformRangeAndValidation) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-2.0, 3.0);
    ASSERT_GE(v, -2.0);
    ASSERT_LT(v, 3.0);
  }
  EXPECT_THROW((void)rng.uniform(1.0, 0.0), std::invalid_argument);
}

TEST(Rng, UniformOpen0NeverZero) {
  Rng rng(99);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform_open0();
    ASSERT_GT(u, 0.0);
    ASSERT_LE(u, 1.0);
  }
}

TEST(Rng, UniformIndexBoundsAndCoverage) {
  Rng rng(11);
  std::vector<int> counts(7, 0);
  for (int i = 0; i < 7000; ++i) ++counts[rng.uniform_index(7)];
  for (const int c : counts) EXPECT_GT(c, 700);  // each bucket ~1000
  EXPECT_THROW((void)rng.uniform_index(0), std::invalid_argument);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(5);
  OnlineMoments m;
  for (int i = 0; i < 50'000; ++i) m.add(rng.normal(10.0, 3.0));
  EXPECT_NEAR(m.mean(), 10.0, 0.05);
  EXPECT_NEAR(m.stddev(), 3.0, 0.05);
}

TEST(Rng, ExponentialMeanAndValidation) {
  Rng rng(5);
  OnlineMoments m;
  for (int i = 0; i < 50'000; ++i) m.add(rng.exponential(0.5));
  EXPECT_NEAR(m.mean(), 2.0, 0.05);
  EXPECT_THROW((void)rng.exponential(0.0), std::invalid_argument);
}

TEST(Rng, LaplaceMomentsMatch) {
  Rng rng(5);
  OnlineMoments m;
  for (int i = 0; i < 50'000; ++i) m.add(rng.laplace(1.0, 2.0));
  EXPECT_NEAR(m.mean(), 1.0, 0.06);
  // Var = 2 b^2 = 8.
  EXPECT_NEAR(m.variance(), 8.0, 0.4);
  EXPECT_THROW((void)rng.laplace(0.0, 0.0), std::invalid_argument);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 20'000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 20'000.0, 0.3, 0.02);
  EXPECT_THROW((void)rng.bernoulli(1.5), std::invalid_argument);
}

TEST(Rng, UniformDiskStaysInDiskAndFillsIt) {
  Rng rng(17);
  OnlineMoments radius;
  for (int i = 0; i < 20'000; ++i) {
    const geo::Point p = rng.uniform_disk(10.0);
    const double r = p.norm();
    ASSERT_LE(r, 10.0 + 1e-9);
    radius.add(r);
  }
  // E[r] for uniform disk = 2R/3.
  EXPECT_NEAR(radius.mean(), 20.0 / 3.0, 0.1);
}

TEST(PlanarLaplace, RadiusCdfProperties) {
  EXPECT_DOUBLE_EQ(planar_laplace_radius_cdf(0.01, 0.0), 0.0);
  EXPECT_NEAR(planar_laplace_radius_cdf(0.01, 1e6), 1.0, 1e-9);
  // Monotone increasing.
  double prev = 0.0;
  for (double r = 10.0; r <= 1000.0; r += 10.0) {
    const double c = planar_laplace_radius_cdf(0.01, r);
    EXPECT_GE(c, prev);
    prev = c;
  }
}

TEST(PlanarLaplace, QuantileInvertsCdf) {
  const double eps = 0.02;
  for (const double p : {0.01, 0.1, 0.5, 0.9, 0.99}) {
    const double r = planar_laplace_radius_quantile(eps, p);
    EXPECT_NEAR(planar_laplace_radius_cdf(eps, r), p, 1e-9) << "p = " << p;
  }
  EXPECT_DOUBLE_EQ(planar_laplace_radius_quantile(eps, 0.0), 0.0);
  EXPECT_THROW((void)planar_laplace_radius_quantile(eps, 1.0), std::invalid_argument);
  EXPECT_THROW((void)planar_laplace_radius_quantile(0.0, 0.5), std::invalid_argument);
}

TEST(PlanarLaplace, MeanRadiusIsTwoOverEps) {
  // E[r] = 2/eps for the planar Laplace radius.
  Rng rng(23);
  const double eps = 0.01;
  OnlineMoments m;
  for (int i = 0; i < 50'000; ++i) m.add(sample_planar_laplace(rng, eps).norm());
  EXPECT_NEAR(m.mean(), 2.0 / eps, 4.0);  // 200 m +- 4 m
}

TEST(PlanarLaplace, DirectionIsUniform) {
  Rng rng(29);
  int quadrant[4] = {0, 0, 0, 0};
  const int n = 40'000;
  for (int i = 0; i < n; ++i) {
    const geo::Point p = sample_planar_laplace(rng, 0.05);
    const int q = (p.x >= 0 ? 0 : 1) + (p.y >= 0 ? 0 : 2);
    ++quadrant[q];
  }
  for (const int c : quadrant) EXPECT_NEAR(c / static_cast<double>(n), 0.25, 0.01);
}

TEST(PlanarLaplace, RadiusDistributionMatchesCdf) {
  // Empirical CDF at a few radii should match the analytic CDF.
  Rng rng(31);
  const double eps = 0.02;
  const int n = 40'000;
  std::vector<double> radii;
  radii.reserve(n);
  for (int i = 0; i < n; ++i) radii.push_back(sample_planar_laplace(rng, eps).norm());
  for (const double r : {25.0, 50.0, 100.0, 200.0, 400.0}) {
    const double empirical =
        static_cast<double>(std::count_if(radii.begin(), radii.end(),
                                          [&](double v) { return v <= r; })) /
        n;
    EXPECT_NEAR(empirical, planar_laplace_radius_cdf(eps, r), 0.01) << "r = " << r;
  }
}

TEST(PlanarLaplace, RejectsNonPositiveAndNanEpsilon) {
  Rng rng(37);
  for (const double eps : {0.0, -0.0, -0.01, -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW((void)sample_planar_laplace(rng, eps), std::invalid_argument) << "eps = " << eps;
  }
}

TEST(PlanarLaplace, RadiusAndAngleAreIndependent) {
  // The sampler derives both the radius and the direction from one
  // (u, v) pair, so a fault there would couple them while each marginal
  // could still look right. The radius law must hold within every angle
  // octant, and the uniform angle within every radius tercile.
  constexpr double kPi = 3.14159265358979323846;
  const double eps = 0.02;
  const int n = 2'000'000;
  const double tercile_1 = planar_laplace_radius_quantile(eps, 1.0 / 3.0);
  const double tercile_2 = planar_laplace_radius_quantile(eps, 2.0 / 3.0);
  std::vector<std::vector<double>> radius_by_octant(8);
  std::vector<std::vector<double>> angle_by_tercile(3);
  Rng rng(20160317);
  for (int i = 0; i < n; ++i) {
    const geo::Point p = sample_planar_laplace(rng, eps);
    const double r = std::hypot(p.x, p.y);
    const double theta = std::atan2(p.y, p.x);  // [-pi, pi]
    const auto octant =
        std::min<std::size_t>(7, static_cast<std::size_t>((theta + kPi) / (kPi / 4)));
    radius_by_octant[octant].push_back(r);
    angle_by_tercile[r < tercile_1 ? 0 : r < tercile_2 ? 1 : 2].push_back(theta);
  }
  for (std::size_t o = 0; o < radius_by_octant.size(); ++o) {
    const KsResult ks = ks_test(radius_by_octant[o],
                                [eps](double r) { return planar_laplace_radius_cdf(eps, r); });
    EXPECT_GT(ks.p_value, 0.01) << "radius law in octant " << o << ", KS D = " << ks.statistic;
  }
  for (std::size_t t = 0; t < angle_by_tercile.size(); ++t) {
    const KsResult ks = ks_test(angle_by_tercile[t],
                                [kPi](double theta) { return (theta + kPi) / (2.0 * kPi); });
    EXPECT_GT(ks.p_value, 0.01) << "angle law in radius tercile " << t
                                << ", KS D = " << ks.statistic;
  }
}

// The defining property: for nearby x, x', the output densities differ by
// at most e^{eps d(x,x')}. We verify the discretized likelihood ratio on
// a coarse grid via Monte Carlo — a statistical, not formal, check.
TEST(PlanarLaplace, EpsilonGeoIndistinguishabilityHolds) {
  const double eps = 0.01;
  const geo::Point x1{0, 0};
  const geo::Point x2{100, 0};  // d = 100 m -> ratio bound e^{1} ≈ 2.72
  const double cell = 100.0;
  const int n = 200'000;
  auto cell_counts = [&](geo::Point origin, std::uint64_t seed) {
    std::map<std::pair<long, long>, int> counts;
    Rng rng(seed);
    for (int i = 0; i < n; ++i) {
      const geo::Point z = origin + sample_planar_laplace(rng, eps);
      counts[{std::lround(z.x / cell), std::lround(z.y / cell)}]++;
    }
    return counts;
  };
  const auto c1 = cell_counts(x1, 101);
  const auto c2 = cell_counts(x2, 202);
  const double bound = std::exp(eps * 100.0);
  int checked = 0;
  for (const auto& [cell_id, count1] : c1) {
    const auto it = c2.find(cell_id);
    if (it == c2.end() || count1 < 500 || it->second < 500) continue;  // skip noisy cells
    const double ratio = static_cast<double>(count1) / it->second;
    EXPECT_LT(ratio, bound * 1.25) << "cell (" << cell_id.first << "," << cell_id.second << ")";
    EXPECT_GT(ratio, 1.0 / (bound * 1.25));
    ++checked;
  }
  EXPECT_GT(checked, 5);  // the test actually exercised some cells
}

}  // namespace
}  // namespace locpriv::stats
