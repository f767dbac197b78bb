#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "geo/grid.h"
#include "geo/polyline.h"
#include "lppm/dropout.h"
#include "lppm/gaussian.h"
#include "lppm/grid_cloaking.h"
#include "lppm/noop.h"
#include "lppm/promesse.h"
#include "lppm/registry.h"
#include "lppm/temporal_cloaking.h"
#include "stats/online.h"
#include "test_util.h"

namespace locpriv::lppm {
namespace {

TEST(Noop, IdentityTransform) {
  const NoopMechanism mech;
  const trace::Trace input = testutil::two_stop_trace("u", {0, 0}, {0, 2000});
  EXPECT_EQ(mech.protect(input, 1), input);
  EXPECT_TRUE(mech.parameters().empty());
}

TEST(Gaussian, NoiseMatchesSigma) {
  const GaussianPerturbation mech(50.0);
  const trace::Trace input = testutil::stationary_trace("u", {0, 0}, 60'000, 10);
  const trace::Trace out = mech.protect(input, 7);
  stats::OnlineMoments dx;
  for (std::size_t i = 0; i < out.size(); ++i) {
    dx.add(out[i].location.x - input[i].location.x);
  }
  EXPECT_NEAR(dx.mean(), 0.0, 2.5);
  EXPECT_NEAR(dx.stddev(), 50.0, 2.0);
}

TEST(Gaussian, DeterministicInSeed) {
  const GaussianPerturbation mech(50.0);
  const trace::Trace input = testutil::stationary_trace("u", {0, 0}, 600);
  EXPECT_EQ(mech.protect(input, 3), mech.protect(input, 3));
  EXPECT_NE(mech.protect(input, 3), mech.protect(input, 4));
}

TEST(GridCloaking, SnapsToCellCenters) {
  const GridCloaking mech(200.0);
  const trace::Trace input = testutil::line_trace("u", {0, 0}, {1000, 0}, 600);
  const trace::Trace out = mech.protect(input, 1);
  const geo::Grid grid(200.0);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].location, grid.snap(input[i].location));
  }
}

TEST(GridCloaking, SeedIrrelevant) {
  const GridCloaking mech(200.0);
  const trace::Trace input = testutil::line_trace("u", {0, 0}, {1000, 0}, 600);
  EXPECT_EQ(mech.protect(input, 1), mech.protect(input, 999));
}

TEST(GridCloaking, LargerCellsCoarser) {
  const trace::Trace input = testutil::line_trace("u", {0, 0}, {5000, 0}, 3600);
  const GridCloaking fine(100.0);
  const GridCloaking coarse(2000.0);
  auto distinct = [](const trace::Trace& t) {
    const geo::Grid g(1.0);
    return g.covered_cells(t.xs(), t.ys()).size();
  };
  EXPECT_GT(distinct(fine.protect(input, 1)), distinct(coarse.protect(input, 1)));
}

TEST(TemporalCloaking, RoundsTimestampsDown) {
  const TemporalCloaking mech(900.0);
  trace::Trace input("u");
  input.append({0, {0, 0}});
  input.append({899, {1, 0}});
  input.append({900, {2, 0}});
  input.append({1799, {3, 0}});
  const trace::Trace out = mech.protect(input, 1);
  EXPECT_EQ(out[0].time, 0);
  EXPECT_EQ(out[1].time, 0);
  EXPECT_EQ(out[2].time, 900);
  EXPECT_EQ(out[3].time, 900);
  // Locations untouched.
  EXPECT_EQ(out[2].location, (geo::Point{2, 0}));
}

TEST(TemporalCloaking, NegativeTimestampsFloorCorrectly) {
  const TemporalCloaking mech(100.0);
  trace::Trace input("u");
  input.append({-150, {0, 0}});
  const trace::Trace out = mech.protect(input, 1);
  EXPECT_EQ(out[0].time, -200);
}

TEST(Promesse, ErasesStops) {
  // A trace with a 30-minute stop: after Promesse, no dwell remains —
  // consecutive events are alpha apart in space and uniformly spaced in
  // time.
  const Promesse mech(100.0);
  const trace::Trace input = testutil::two_stop_trace("u", {0, 0}, {0, 2000});
  const trace::Trace out = mech.protect(input, 1);
  ASSERT_GT(out.size(), 2u);
  for (std::size_t i = 1; i + 1 < out.size(); ++i) {
    EXPECT_NEAR(geo::distance(out[i - 1].location, out[i].location), 100.0, 1.0);
  }
  // Time span preserved.
  EXPECT_EQ(out.front().time, input.front().time);
  EXPECT_NEAR(static_cast<double>(out.back().time), static_cast<double>(input.back().time), 2.0);
}

TEST(Promesse, PathShapePreserved) {
  const Promesse mech(50.0);
  const trace::Trace input = testutil::line_trace("u", {0, 0}, {3000, 0}, 1800);
  const trace::Trace out = mech.protect(input, 1);
  for (const trace::Event& e : out) {
    EXPECT_NEAR(e.location.y, 0.0, 1e-6);
    EXPECT_GE(e.location.x, -1e-6);
    EXPECT_LE(e.location.x, 3000.0 + 1e-6);
  }
}

TEST(Promesse, TinyTracesPassThrough) {
  const Promesse mech(100.0);
  trace::Trace one("u");
  one.append({0, {5, 5}});
  EXPECT_EQ(mech.protect(one, 1), one);
  EXPECT_TRUE(mech.protect(trace::Trace("u"), 1).empty());
}

TEST(ParameterizedMechanism, RangeEnforcement) {
  GaussianPerturbation mech;
  EXPECT_THROW(mech.set_parameter("sigma", 0.0), std::out_of_range);
  EXPECT_THROW(mech.set_parameter("sigma", 1e7), std::out_of_range);
  mech.set_parameter("sigma", 123.0);
  EXPECT_DOUBLE_EQ(mech.parameter("sigma"), 123.0);
}

TEST(Dropout, KeepsRoughlyTheConfiguredFraction) {
  const ReleaseDropout mech(0.3);
  const trace::Trace input = testutil::stationary_trace("u", {0, 0}, 60'000, 10);
  const trace::Trace out = mech.protect(input, 5);
  const double kept = static_cast<double>(out.size()) / static_cast<double>(input.size());
  EXPECT_NEAR(kept, 0.3, 0.03);
  // Kept events are a subsequence: each exists in the input.
  for (const trace::Event& e : out) {
    EXPECT_EQ(e.location, input[static_cast<std::size_t>(e.time / 10)].location);
  }
}

TEST(Dropout, KeepOneGuaranteesNonEmptyRelease) {
  const ReleaseDropout mech(0.02);
  trace::Trace tiny("u");
  tiny.append({0, {1, 2}});
  const trace::Trace out = mech.protect(tiny, 1);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].location, (geo::Point{1, 2}));
}

TEST(Dropout, FullKeepIsIdentity) {
  const ReleaseDropout mech(1.0);
  const trace::Trace input = testutil::two_stop_trace("u", {0, 0}, {0, 2000});
  EXPECT_EQ(mech.protect(input, 3), input);
}

TEST(Dropout, DeclaresLinearScale) {
  const ReleaseDropout mech;
  ASSERT_EQ(mech.parameters().size(), 1u);
  EXPECT_EQ(mech.parameters()[0].scale, Scale::kLinear);
}

TEST(Registry, ListsAllMechanisms) {
  const std::vector<std::string> names = mechanism_names();
  EXPECT_EQ(names.size(), 8u);
  for (const char* expected :
       {"geo-indistinguishability", "gaussian-perturbation", "grid-cloaking", "temporal-cloaking",
        "promesse", "release-dropout", "path-simplification", "noop"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end()) << expected;
  }
}

TEST(Registry, CreatesWorkingInstances) {
  for (const std::string& name : mechanism_names()) {
    const auto mech = create_mechanism(name);
    ASSERT_NE(mech, nullptr);
    EXPECT_EQ(mech->name(), name);
    const trace::Trace input = testutil::two_stop_trace("u", {0, 0}, {0, 2000});
    const trace::Trace out = mech->protect(input, 1);
    EXPECT_EQ(out.user_id(), "u");
    EXPECT_FALSE(out.empty());
  }
}

TEST(Registry, UnknownNameThrowsWithSuggestions) {
  try {
    (void)create_mechanism("bogus");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("geo-indistinguishability"), std::string::npos);
  }
}

// Property sweep: every mechanism is deterministic in its seed and
// preserves the user id.
class MechanismContract : public ::testing::TestWithParam<std::string> {};

TEST_P(MechanismContract, DeterministicAndIdPreserving) {
  const auto mech = create_mechanism(GetParam());
  const trace::Trace input = testutil::two_stop_trace("user-x", {100, 100}, {100, 2100});
  const trace::Trace a = mech->protect(input, 42);
  const trace::Trace b = mech->protect(input, 42);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.user_id(), "user-x");
}

TEST_P(MechanismContract, TimestampsStayOrdered) {
  const auto mech = create_mechanism(GetParam());
  const trace::Trace input = testutil::two_stop_trace("u", {0, 0}, {0, 2000});
  const trace::Trace out = mech->protect(input, 7);
  for (std::size_t i = 1; i < out.size(); ++i) {
    EXPECT_LE(out[i - 1].time, out[i].time);
  }
}

INSTANTIATE_TEST_SUITE_P(AllMechanisms, MechanismContract,
                         ::testing::ValuesIn(mechanism_names()));

}  // namespace
}  // namespace locpriv::lppm
