// Cross-cutting randomized property tests (seeded, deterministic).
// Where unit tests pin behaviour on fixtures, these sweep invariants
// over randomized inputs: the contracts the rest of the system builds on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/model_store.h"
#include "geo/grid.h"
#include "geo/point.h"
#include "geo/polyline.h"
#include "geo/projection.h"
#include "io/json.h"
#include "lppm/online.h"
#include "lppm/registry.h"
#include "metrics/registry.h"
#include "stats/rng.h"
#include "trace/cleaning.h"
#include "synth/faults.h"
#include "synth/scenario.h"
#include "test_util.h"

namespace locpriv {
namespace {

class SeededProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeededProperty, ProjectionRoundTripsRandomCoordinates) {
  stats::Rng rng(GetParam());
  const geo::LatLng ref{rng.uniform(-60.0, 60.0), rng.uniform(-179.0, 179.0)};
  const geo::LocalProjection proj(ref);
  for (int i = 0; i < 200; ++i) {
    // Points within ~50 km of the reference.
    const geo::LatLng c{ref.lat + rng.uniform(-0.4, 0.4), ref.lng + rng.uniform(-0.4, 0.4)};
    const geo::LatLng back = proj.to_geo(proj.to_plane(c));
    EXPECT_NEAR(back.lat, c.lat, 1e-9);
    EXPECT_NEAR(back.lng, c.lng, 1e-9);
  }
}

TEST_P(SeededProperty, GridSnapIsIdempotentAndStaysInCell) {
  stats::Rng rng(GetParam());
  const double cell = rng.uniform(1.0, 500.0);
  const geo::Grid grid(cell);
  for (int i = 0; i < 300; ++i) {
    const geo::Point p{rng.uniform(-1e5, 1e5), rng.uniform(-1e5, 1e5)};
    const geo::Point snapped = grid.snap(p);
    EXPECT_EQ(grid.snap(snapped), snapped);
    EXPECT_EQ(grid.cell_of(snapped), grid.cell_of(p));
    EXPECT_LE(geo::distance(p, snapped), cell * std::sqrt(2.0) / 2.0 + 1e-9);
  }
}

TEST_P(SeededProperty, WithinDistanceMatchesHypotComparison) {
  // within_distance may skip the hypot call but never change its answer:
  // random pairs at random (and negated) radii, radii within 4 ulps of
  // the exact distance, and the NaN, infinite, subnormal and overflowing
  // differences its fast path must hand back to hypot.
  stats::Rng rng(GetParam());
  const double inf = std::numeric_limits<double>::infinity();
  const auto expect_same = [](geo::Point a, geo::Point b, double r) {
    EXPECT_EQ(geo::within_distance(a, b, r), geo::distance(a, b) <= r)
        << a << " " << b << " r=" << r;
  };
  for (int i = 0; i < 2000; ++i) {
    const double scale = std::pow(10.0, rng.uniform(-3.0, 6.0));
    const geo::Point a{rng.uniform(-scale, scale), rng.uniform(-scale, scale)};
    const geo::Point b{rng.uniform(-scale, scale), rng.uniform(-scale, scale)};
    const double r = rng.uniform(0.0, 2.0 * scale);
    expect_same(a, b, r);
    expect_same(a, b, -r);  // no point is within a negative distance
    const double d = geo::distance(a, b);
    expect_same(a, b, d);
    double up = d;
    double down = d;
    for (int k = 1; k <= 4; ++k) {
      up = std::nextafter(up, inf);
      down = std::nextafter(down, -inf);
      expect_same(a, b, up);
      expect_same(a, b, down);
    }
  }
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> coords{0.0,   tiny,    -tiny,   1e-160, 1e-300, 1.0,  1e154,
                                   1e200, -1e200, 1.7e308, -1.7e308, inf,  -inf, nan};
  const std::vector<double> radii{0.0,   -1.0, tiny, 1e-160, 1e-300, 1.0, 1e154,
                                  1e200, 1e308, inf, -inf,   nan};
  for (const double x : coords) {
    for (const double y : coords) {
      for (const double r : radii) {
        expect_same({x, y}, {0.0, 0.0}, r);
        expect_same({x, 1.0}, {-x, 1.0}, r);
      }
    }
  }
}

TEST_P(SeededProperty, SimplifyKeepsEveryPointWithinTolerance) {
  // The Douglas-Peucker guarantee: each dropped point lies within the
  // tolerance of the kept polyline.
  stats::Rng rng(GetParam());
  std::vector<geo::Point> pts;
  geo::Point cursor{0, 0};
  for (int i = 0; i < 120; ++i) {
    cursor += {rng.uniform(-80.0, 120.0), rng.uniform(-100.0, 100.0)};
    pts.push_back(cursor);
  }
  const double tolerance = rng.uniform(10.0, 200.0);
  const std::vector<std::size_t> keep = geo::simplify_indices(pts, tolerance);
  ASSERT_GE(keep.size(), 2u);
  for (std::size_t k = 1; k < keep.size(); ++k) {
    for (std::size_t i = keep[k - 1] + 1; i < keep[k]; ++i) {
      EXPECT_LE(geo::point_segment_distance(pts[i], pts[keep[k - 1]], pts[keep[k]]),
                tolerance + 1e-9)
          << "point " << i << " between kept " << keep[k - 1] << " and " << keep[k];
    }
  }
}

TEST_P(SeededProperty, FractionMetricsStayInUnitInterval) {
  stats::Rng rng(GetParam());
  const trace::Dataset d = testutil::two_stop_dataset(3);
  const auto mechanisms = lppm::mechanism_names();
  const std::string mech_name = mechanisms[rng.uniform_index(mechanisms.size())];
  const auto mech = lppm::create_mechanism(mech_name);
  const trace::Dataset p = mech->protect_dataset(d, GetParam());
  for (const char* name : {"poi-retrieval", "area-coverage-f1", "area-coverage-jaccard",
                           "cell-hit-ratio", "reidentification-rate", "home-inference-rate"}) {
    const double v = metrics::create_metric(name)->evaluate(metrics::EvalContext(d, p));
    EXPECT_GE(v, 0.0) << name << " under " << mech_name;
    EXPECT_LE(v, 1.0) << name << " under " << mech_name;
  }
}

TEST_P(SeededProperty, MechanismsPreserveInvariantsOnSynthData) {
  stats::Rng rng(GetParam());
  synth::TaxiScenarioConfig cfg;
  cfg.driver_count = 2;
  cfg.taxi.shift_duration_s = 2 * 3600;
  const trace::Dataset d = synth::make_taxi_dataset(cfg, GetParam());
  for (const std::string& name : lppm::mechanism_names()) {
    const auto mech = lppm::create_mechanism(name);
    const trace::Dataset p = mech->protect_dataset(d, rng());
    ASSERT_EQ(p.size(), d.size()) << name;
    for (std::size_t u = 0; u < p.size(); ++u) {
      EXPECT_EQ(p[u].user_id(), d[u].user_id()) << name;
      EXPECT_FALSE(p[u].empty()) << name;
      for (std::size_t i = 1; i < p[u].size(); ++i) {
        ASSERT_LE(p[u][i - 1].time, p[u][i].time) << name;
      }
      for (const trace::Event& e : p[u]) {
        ASSERT_TRUE(std::isfinite(e.location.x) && std::isfinite(e.location.y)) << name;
      }
    }
  }
}

TEST_P(SeededProperty, StreamingEqualsBatchForDeterministicMechanisms) {
  // For mechanisms without randomness, the stream of per-event outputs
  // must equal the batch protection exactly, event by event.
  const trace::Trace input = testutil::two_stop_trace("u", {37, -12}, {37, 2988});
  for (const char* name : {"grid-cloaking", "temporal-cloaking", "noop"}) {
    const auto mech = lppm::create_mechanism(name);
    const trace::Trace batch = mech->protect(input, GetParam());
    const auto session = lppm::make_stream_session(*mech, GetParam());
    ASSERT_EQ(batch.size(), input.size()) << name;
    for (std::size_t i = 0; i < input.size(); ++i) {
      const auto out = session->report(input[i]);
      ASSERT_TRUE(out.has_value()) << name;
      EXPECT_EQ(*out, batch[i]) << name << " event " << i;
    }
  }
}

TEST_P(SeededProperty, CleaningIsIdempotent) {
  stats::Rng rng(GetParam());
  const trace::Trace original = testutil::two_stop_trace("u", {0, 0}, {0, 3000});
  synth::FaultConfig faults;
  faults.glitch_probability = 0.05;
  faults.duplicate_probability = 0.05;
  const trace::Trace dirty = synth::inject_faults(original, faults, GetParam());
  const trace::CleaningConfig cfg;
  const trace::Trace once = trace::clean_trace(dirty, cfg);
  const trace::Trace twice = trace::clean_trace(once, cfg);
  EXPECT_EQ(once, twice);
}

TEST_P(SeededProperty, SweepJsonRoundTripsRandomData) {
  stats::Rng rng(GetParam());
  core::SweepResult sweep;
  sweep.mechanism_name = "geo-indistinguishability";
  sweep.parameter = "epsilon";
  sweep.scale = rng.bernoulli(0.5) ? lppm::Scale::kLog : lppm::Scale::kLinear;
  sweep.privacy_metric = "poi-retrieval";
  sweep.utility_metric = "area-coverage-f1";
  const int n = 3 + static_cast<int>(rng.uniform_index(20));
  for (int i = 0; i < n; ++i) {
    sweep.points.push_back({rng.uniform(1e-5, 10.0), rng.uniform(), rng.uniform(0.0, 0.2),
                            rng.uniform(), rng.uniform(0.0, 0.2)});
  }
  const core::SweepResult back = core::sweep_from_json(
      io::parse_json(io::to_json(core::sweep_to_json(sweep))));
  ASSERT_EQ(back.points.size(), sweep.points.size());
  for (std::size_t i = 0; i < sweep.points.size(); ++i) {
    EXPECT_DOUBLE_EQ(back.points[i].parameter_value, sweep.points[i].parameter_value);
    EXPECT_DOUBLE_EQ(back.points[i].privacy_mean, sweep.points[i].privacy_mean);
    EXPECT_DOUBLE_EQ(back.points[i].utility_stddev, sweep.points[i].utility_stddev);
  }
  EXPECT_EQ(back.scale, sweep.scale);
}

TEST_P(SeededProperty, SweepValuesMonotoneAndInRange) {
  stats::Rng rng(GetParam());
  core::SweepSpec spec;
  spec.parameter = "p";
  spec.scale = rng.bernoulli(0.5) ? lppm::Scale::kLog : lppm::Scale::kLinear;
  spec.min_value = spec.scale == lppm::Scale::kLog ? rng.uniform(1e-6, 1e-2)
                                                   : rng.uniform(-100.0, 0.0);
  spec.max_value = spec.min_value + rng.uniform(0.5, 100.0);
  spec.point_count = 2 + rng.uniform_index(40);
  const std::vector<double> values = core::sweep_values(spec);
  ASSERT_EQ(values.size(), spec.point_count);
  EXPECT_DOUBLE_EQ(values.front(), spec.min_value);
  EXPECT_DOUBLE_EQ(values.back(), spec.max_value);
  for (std::size_t i = 1; i < values.size(); ++i) EXPECT_GT(values[i], values[i - 1]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

}  // namespace
}  // namespace locpriv
