// Fault-injection tests: corrupted GPS feeds must degrade the pipeline
// gracefully, never crash it or silently invert its conclusions.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "core/pipeline.h"
#include "metrics/poi_retrieval.h"
#include "poi/staypoint.h"
#include "synth/faults.h"
#include "synth/scenario.h"
#include "test_util.h"

namespace locpriv::synth {
namespace {

TEST(Faults, NoFaultsIsIdentity) {
  const trace::Trace t = testutil::two_stop_trace("u", {0, 0}, {0, 3000});
  EXPECT_EQ(inject_faults(t, FaultConfig{}, 1), t);
}

TEST(Faults, GlitchesReplacePositions) {
  const trace::Trace t = testutil::stationary_trace("u", {0, 0}, 60'000, 10);
  FaultConfig cfg;
  cfg.glitch_probability = 0.2;
  const trace::Trace out = inject_faults(t, cfg, 3);
  ASSERT_EQ(out.size(), t.size());
  std::size_t glitched = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (geo::distance(out[i].location, t[i].location) > 1.0) ++glitched;
  }
  EXPECT_NEAR(static_cast<double>(glitched) / static_cast<double>(t.size()), 0.2, 0.03);
}

TEST(Faults, OutagesDropContiguousSpans) {
  const trace::Trace t = testutil::stationary_trace("u", {0, 0}, 60'000, 10);
  FaultConfig cfg;
  cfg.outage_probability = 0.005;
  cfg.outage_duration_s = 600;
  const trace::Trace out = inject_faults(t, cfg, 5);
  EXPECT_LT(out.size(), t.size());
  // Chronological order preserved.
  for (std::size_t i = 1; i < out.size(); ++i) EXPECT_LE(out[i - 1].time, out[i].time);
}

TEST(Faults, DuplicatesRepeatFixes) {
  const trace::Trace t = testutil::stationary_trace("u", {0, 0}, 30'000, 10);
  FaultConfig cfg;
  cfg.duplicate_probability = 0.3;
  const trace::Trace out = inject_faults(t, cfg, 7);
  EXPECT_GT(out.size(), t.size());
  // Duplicates share timestamp and location with their original.
  for (std::size_t i = 1; i < out.size(); ++i) {
    if (out[i].time == out[i - 1].time) {
      EXPECT_EQ(out[i].location, out[i - 1].location);
    }
  }
}

TEST(Faults, Validation) {
  const trace::Trace t = testutil::stationary_trace("u", {0, 0}, 600);
  FaultConfig bad;
  bad.glitch_probability = 1.5;
  EXPECT_THROW((void)inject_faults(t, bad, 1), std::invalid_argument);
  bad = {};
  bad.outage_probability = 0.1;
  bad.outage_duration_s = 0;
  EXPECT_THROW((void)inject_faults(t, bad, 1), std::invalid_argument);
  bad = {};
  bad.glitch_probability = 0.1;
  bad.glitch_radius_m = 0.0;
  EXPECT_THROW((void)inject_faults(t, bad, 1), std::invalid_argument);
}

TEST(Faults, DeterministicInSeed) {
  const trace::Trace t = testutil::two_stop_trace("u", {0, 0}, {0, 3000});
  FaultConfig cfg;
  cfg.glitch_probability = 0.1;
  cfg.duplicate_probability = 0.1;
  EXPECT_EQ(inject_faults(t, cfg, 9), inject_faults(t, cfg, 9));
  EXPECT_NE(inject_faults(t, cfg, 9), inject_faults(t, cfg, 10));
}

// --- Robustness: the pipeline on dirty data. ---

TEST(FaultRobustness, PoiExtractionSurvivesGlitches) {
  // Isolated teleports must not create phantom POIs (a glitch is a
  // single point: no dwell) nor erase the real ones.
  const trace::Trace clean = testutil::two_stop_trace("u", {0, 0}, {0, 3000});
  FaultConfig cfg;
  cfg.glitch_probability = 0.05;
  const trace::Trace dirty = inject_faults(clean, cfg, 11);
  const auto pois = poi::extract_pois(dirty, poi::ExtractorConfig{});
  EXPECT_GE(pois.size(), 1u);
  EXPECT_LE(pois.size(), 3u);
  for (const poi::Poi& p : pois) {
    EXPECT_LT(std::min(geo::distance(p.center, {0, 0}), geo::distance(p.center, {0, 3000})),
              500.0);
  }
}

TEST(FaultRobustness, SweepPipelineRunsOnDirtyDataset) {
  synth::TaxiScenarioConfig scenario;
  scenario.driver_count = 4;
  scenario.taxi.shift_duration_s = 4 * 3600;
  const trace::Dataset clean = make_taxi_dataset(scenario, 21);
  FaultConfig cfg;
  cfg.glitch_probability = 0.02;
  cfg.outage_probability = 0.002;
  cfg.duplicate_probability = 0.02;
  const trace::Dataset dirty = inject_faults(clean, cfg, 22);

  core::Framework framework(core::make_geo_i_system(11));
  core::ExperimentConfig exp;
  exp.trials = 1;
  const core::LppmModel& model = framework.model_phase(dirty, exp);
  // The qualitative structure must survive dirt: privacy still responds
  // positively to epsilon.
  EXPECT_GT(model.privacy.fit.slope, 0.0);
  EXPECT_TRUE(std::isfinite(model.privacy.fit.r_squared));
}

TEST(FaultRobustness, MetricsStayFiniteOnOutageHeavyData) {
  const trace::Dataset clean = testutil::two_stop_dataset(3);
  FaultConfig cfg;
  cfg.outage_probability = 0.05;
  cfg.outage_duration_s = 900;
  const trace::Dataset dirty = inject_faults(clean, cfg, 33);
  // Pair dirty-actual with clean-protected shapes: evaluate a metric
  // where protected data has different cardinality than actual.
  const metrics::PoiRetrieval metric;
  const trace::Dataset copied = dirty.map([](const trace::Trace& t) { return t; });
  const double v = metric.evaluate(metrics::EvalContext(clean, copied));
  EXPECT_TRUE(std::isfinite(v));
  EXPECT_GE(v, 0.0);
  EXPECT_LE(v, 1.0);
}

}  // namespace
}  // namespace locpriv::synth
