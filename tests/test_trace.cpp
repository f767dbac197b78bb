#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "test_util.h"
#include "trace/dataset.h"
#include "trace/features.h"
#include "trace/store.h"
#include "trace/trace.h"

namespace locpriv::trace {
namespace {

TEST(Trace, AppendKeepsOrderInvariant) {
  Trace t("u");
  t.append({10, {0, 0}});
  t.append({10, {1, 1}});  // equal timestamps allowed
  t.append({20, {2, 2}});
  EXPECT_EQ(t.size(), 3u);
  EXPECT_THROW(t.append({5, {0, 0}}), std::invalid_argument);
}

TEST(Trace, InsertSortsOutOfOrderArrivals) {
  Trace t("u");
  t.insert({20, {2, 0}});
  t.insert({10, {1, 0}});
  t.insert({30, {3, 0}});
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0].time, 10);
  EXPECT_EQ(t[2].time, 30);
}

TEST(Trace, BulkConstructorSorts) {
  const Trace t("u", {{30, {3, 0}}, {10, {1, 0}}, {20, {2, 0}}});
  EXPECT_EQ(t.front().time, 10);
  EXPECT_EQ(t.back().time, 30);
}

TEST(Trace, BulkConstructorStableForTies) {
  const Trace t("u", {{10, {1, 0}}, {10, {2, 0}}});
  EXPECT_EQ(t[0].location.x, 1.0);
  EXPECT_EQ(t[1].location.x, 2.0);
}

TEST(Trace, DurationAndBounds) {
  const Trace t("u", {{0, {0, 0}}, {100, {10, 20}}});
  EXPECT_EQ(t.duration(), 100);
  EXPECT_EQ(Trace("u").duration(), 0);
  const geo::BoundingBox box = t.bounds();
  EXPECT_TRUE(box.contains({5, 10}));
  EXPECT_DOUBLE_EQ(box.width(), 10.0);
}

TEST(Trace, BetweenInclusive) {
  const Trace t("u", {{0, {0, 0}}, {10, {1, 0}}, {20, {2, 0}}, {30, {3, 0}}});
  const Trace mid = t.between(10, 20);
  ASSERT_EQ(mid.size(), 2u);
  EXPECT_EQ(mid.front().time, 10);
  EXPECT_EQ(mid.back().time, 20);
  EXPECT_EQ(mid.user_id(), "u");
}

TEST(Trace, MapLocationsKeepsTimes) {
  const Trace t("u", {{0, {1, 1}}, {10, {2, 2}}});
  const Trace shifted = t.map_locations([](const Event& e) {
    return e.location + geo::Point{100, 0};
  });
  EXPECT_EQ(shifted.size(), 2u);
  EXPECT_EQ(shifted[0].time, 0);
  EXPECT_EQ(shifted[0].location, (geo::Point{101, 1}));
}

TEST(Dataset, AddAndFind) {
  Dataset d;
  d.add(Trace("a", {{0, {0, 0}}}));
  d.add(Trace("b", {{0, {1, 1}}}));
  EXPECT_EQ(d.size(), 2u);
  ASSERT_NE(d.find("a"), nullptr);
  EXPECT_EQ(d.find("a")->user_id(), "a");
  EXPECT_EQ(d.find("zzz"), nullptr);
  EXPECT_THROW(d.add(Trace("a")), std::invalid_argument);

  // The check still sees the first id after many adds.
  for (int i = 0; i < 1000; ++i) d.add(Trace("u" + std::to_string(i)));
  EXPECT_THROW(d.add(Trace("a")), std::invalid_argument);
  EXPECT_EQ(d.size(), 1002u);

  // An arena-backed dataset knows the ids its arena brought.
  Dataset arena(TraceStore::from_dataset(d));
  ASSERT_TRUE(arena.columnar());
  EXPECT_THROW(arena.add(Trace("b")), std::invalid_argument);
  EXPECT_THROW(arena.add(Trace("u999")), std::invalid_argument);
  arena.add(Trace("c", {{0, {2, 2}}}));
  EXPECT_EQ(arena.size(), 1003u);
  ASSERT_NE(arena.find("c"), nullptr);
  EXPECT_EQ(arena.find("c")->user_id(), "c");
  EXPECT_THROW(arena.add(Trace("c")), std::invalid_argument);
}

TEST(Dataset, TotalEventsAndBounds) {
  Dataset d;
  d.add(Trace("a", {{0, {0, 0}}, {10, {5, 5}}}));
  d.add(Trace("b", {{0, {-5, 2}}}));
  EXPECT_EQ(d.total_events(), 3u);
  EXPECT_TRUE(d.bounds().contains({0, 0}));
  EXPECT_TRUE(d.bounds().contains({-5, 2}));
}

TEST(Dataset, MapAppliesPerTrace) {
  Dataset d;
  d.add(Trace("a", {{0, {0, 0}}}));
  const Dataset mapped = d.map([](const Trace& t) {
    return t.map_locations([](const Event& e) { return e.location + geo::Point{1, 1}; });
  });
  EXPECT_EQ(mapped[0][0].location, (geo::Point{1, 1}));
}

TEST(Features, StationaryTrace) {
  const Trace t = testutil::stationary_trace("u", {100, 100}, 3600);
  const TraceFeatures f = compute_features(t);
  EXPECT_EQ(f.event_count, 61u);
  EXPECT_DOUBLE_EQ(f.duration_s, 3600.0);
  EXPECT_DOUBLE_EQ(f.path_length_m, 0.0);
  EXPECT_DOUBLE_EQ(f.radius_of_gyration_m, 0.0);
  EXPECT_DOUBLE_EQ(f.stationary_ratio, 1.0);
  EXPECT_DOUBLE_EQ(f.median_interval_s, 60.0);
}

TEST(Features, MovingTrace) {
  // 3600 s from (0,0) to (7200,0): 2 m/s.
  const Trace t = testutil::line_trace("u", {0, 0}, {7200, 0}, 3600);
  const TraceFeatures f = compute_features(t);
  EXPECT_NEAR(f.path_length_m, 7200.0, 1e-6);
  EXPECT_NEAR(f.mean_speed_mps, 2.0, 1e-6);
  EXPECT_DOUBLE_EQ(f.stationary_ratio, 0.0);
  EXPECT_GT(f.extent_diagonal_m, 7000.0);
}

TEST(Features, EmptyTraceAllZero) {
  const TraceFeatures f = compute_features(Trace("u"));
  EXPECT_EQ(f.event_count, 0u);
  EXPECT_DOUBLE_EQ(f.duration_s, 0.0);
}

}  // namespace
}  // namespace locpriv::trace
