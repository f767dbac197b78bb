#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "core/loglinear_model.h"
#include "core/refinement.h"
#include "synth/scenario.h"
#include "test_util.h"

namespace locpriv::core {
namespace {

RefinementConfig fast(std::size_t rounds) {
  RefinementConfig cfg;
  cfg.experiment.trials = 1;
  cfg.experiment.seed = 5;
  cfg.rounds = rounds;
  return cfg;
}

TEST(Refinement, ZeroRoundsEqualsPlainSweep) {
  const SystemDefinition def = make_geo_i_system(9);
  const trace::Dataset data = testutil::two_stop_dataset(3);
  const RefinedSweep refined = run_refined_sweep(def, data, fast(0));
  ExperimentConfig exp;
  exp.trials = 1;
  exp.seed = 5;
  const SweepResult plain = run_sweep(def, data, exp);
  ASSERT_EQ(refined.merged.points.size(), plain.points.size());
  for (std::size_t i = 0; i < plain.points.size(); ++i) {
    EXPECT_DOUBLE_EQ(refined.merged.points[i].privacy_mean, plain.points[i].privacy_mean);
  }
  EXPECT_EQ(refined.total_evaluations, plain.points.size());
}

TEST(Refinement, ZoomsIntoTheActiveInterval) {
  const SystemDefinition def = make_geo_i_system(11);
  const trace::Dataset data = testutil::two_stop_dataset(3);
  const RefinedSweep refined = run_refined_sweep(def, data, fast(1));
  // The re-swept interval shrinks at least on the saturated low end
  // (the utility metric can respond all the way up to the range top, so
  // the high end may legitimately stay at the boundary).
  EXPECT_GT(refined.final_low, def.sweep.min_value);
  EXPECT_LE(refined.final_high, def.sweep.max_value);
  // Merged points cover both rounds.
  EXPECT_GT(refined.merged.points.size(), 11u);
  EXPECT_EQ(refined.final_round.points.size(), 11u);
  // Merged stays sorted and unique.
  for (std::size_t i = 1; i < refined.merged.points.size(); ++i) {
    EXPECT_GT(refined.merged.points[i].parameter_value,
              refined.merged.points[i - 1].parameter_value);
  }
}

TEST(Refinement, ImprovesTransitionResolution) {
  // After refinement the transition zone holds more measured points than
  // the uniform sweep put there.
  const SystemDefinition def = make_geo_i_system(11);
  const trace::Dataset data = testutil::two_stop_dataset(4);
  const RefinedSweep refined = run_refined_sweep(def, data, fast(1));

  auto points_in = [&](const SweepResult& s, double lo, double hi) {
    std::size_t n = 0;
    for (const SweepPoint& p : s.points) {
      if (p.parameter_value >= lo && p.parameter_value <= hi) ++n;
    }
    return n;
  };
  ExperimentConfig exp;
  exp.trials = 1;
  exp.seed = 5;
  const SweepResult plain = run_sweep(def, data, exp);
  EXPECT_GT(points_in(refined.merged, refined.final_low, refined.final_high),
            points_in(plain, refined.final_low, refined.final_high));
}

TEST(Refinement, MergedSweepStillFits) {
  // Merging rounds puts points a few percent apart in ε next to each
  // other; one-trial noise between them must not hide the transition
  // from the saturation detector. Asserted as a fit rate over a fixed
  // seed range, not at one seed: the plain sweep and the final round
  // each fit at every seed here, and the merged sweep must nearly so.
  const SystemDefinition def = make_geo_i_system(11);
  synth::TaxiScenarioConfig scenario;
  scenario.driver_count = 4;
  scenario.taxi.shift_duration_s = 4 * 3600;
  const trace::Dataset data = synth::make_taxi_dataset(scenario, 3);
  int fitted = 0;
  std::string unfitted;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    RefinementConfig cfg = fast(2);
    cfg.experiment.seed = seed;
    const RefinedSweep refined = run_refined_sweep(def, data, cfg);
    try {
      const LppmModel model = fit_loglinear_model(refined.merged);
      EXPECT_GT(model.privacy.fit.slope, 0.0) << "seed " << seed;
      EXPECT_TRUE(std::isfinite(model.privacy.fit.r_squared)) << "seed " << seed;
      ++fitted;
    } catch (const std::runtime_error&) {
      unfitted += " " + std::to_string(seed);
    }
  }
  EXPECT_GE(fitted, 45) << "merged sweeps that did not fit, by seed:" << unfitted;
}

TEST(Refinement, EvaluationAccountingAddsUp) {
  const SystemDefinition def = make_geo_i_system(9);
  const trace::Dataset data = testutil::two_stop_dataset(2);
  const RefinedSweep refined = run_refined_sweep(def, data, fast(1));
  // 9 coarse + 9 refined points, 1 trial each.
  EXPECT_EQ(refined.total_evaluations, 18u);
}

}  // namespace
}  // namespace locpriv::core
