#include <gtest/gtest.h>

#include <stdexcept>

#include "lppm/geo_ind_variants.h"
#include "stats/online.h"
#include "test_util.h"

namespace locpriv::lppm {
namespace {

TEST(ElasticGeoInd, MoreNoiseInSparseAreas) {
  // Dense cluster of sites at the origin, nothing at (10 km, 0).
  std::vector<geo::Point> sites;
  for (int i = 0; i < 15; ++i) sites.push_back({i * 50.0, 0.0});
  ElasticGeoInd mech(sites, 0.01);

  const double eps_dense = mech.effective_epsilon({0, 0});
  const double eps_sparse = mech.effective_epsilon({10'000, 0});
  EXPECT_DOUBLE_EQ(eps_dense, 0.01);  // >= kDenseCount sites within 1 km
  EXPECT_NEAR(eps_sparse, 0.01 / ElasticGeoInd::kMaxStretch, 1e-12);
  EXPECT_GT(eps_dense, eps_sparse);
}

TEST(ElasticGeoInd, EffectiveEpsilonInterpolates) {
  // 5 of the 10 "dense" sites in range: stretch halfway between 1 and max.
  std::vector<geo::Point> sites;
  for (int i = 0; i < 5; ++i) sites.push_back({i * 10.0, 0.0});
  sites.push_back({50'000, 0});  // out-of-range filler
  ElasticGeoInd mech(sites, 0.02);
  const double expected_stretch =
      ElasticGeoInd::kMaxStretch - (ElasticGeoInd::kMaxStretch - 1.0) * 0.5;
  EXPECT_NEAR(mech.effective_epsilon({0, 0}), 0.02 / expected_stretch, 1e-12);
}

TEST(ElasticGeoInd, NoiseScaleFollowsEffectiveEpsilon) {
  std::vector<geo::Point> sites;
  for (int i = 0; i < 15; ++i) sites.push_back({i * 50.0, 0.0});
  const ElasticGeoInd mech(sites, 0.01);

  auto mean_displacement = [&](geo::Point where) {
    const trace::Trace input = testutil::stationary_trace("u", where, 40'000, 10);
    const trace::Trace out = mech.protect(input, 7);
    stats::OnlineMoments disp;
    for (std::size_t i = 0; i < out.size(); ++i) {
      disp.add(geo::distance(out[i].location, input[i].location));
    }
    return disp.mean();
  };
  const double dense = mean_displacement({0, 0});         // eps 0.01 -> ~200 m
  const double sparse = mean_displacement({20'000, 0});   // eps/8 -> ~1600 m
  EXPECT_NEAR(dense, 200.0, 20.0);
  EXPECT_NEAR(sparse, 1600.0, 160.0);
}

TEST(ElasticGeoInd, DeclaresTwoParameters) {
  std::vector<geo::Point> sites{{0, 0}};
  const ElasticGeoInd mech(sites);
  EXPECT_EQ(mech.parameters().size(), 2u);
  EXPECT_THROW(ElasticGeoInd(std::vector<geo::Point>{}), std::invalid_argument);
}

TEST(ElasticGeoInd, DeterministicInSeed) {
  std::vector<geo::Point> sites{{0, 0}, {100, 0}};
  const ElasticGeoInd mech(sites, 0.02);
  const trace::Trace input = testutil::two_stop_trace("u", {0, 0}, {0, 2000});
  EXPECT_EQ(mech.protect(input, 11), mech.protect(input, 11));
  EXPECT_NE(mech.protect(input, 11), mech.protect(input, 12));
}

}  // namespace
}  // namespace locpriv::lppm
