#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/experiment.h"
#include "core/greedy.h"
#include "metrics/distortion.h"
#include "test_util.h"

namespace locpriv::core {
namespace {

SystemDefinition narrow_system() {
  SystemDefinition def = make_geo_i_system(10);
  // Search over the responsive region so the walk has signal.
  def.sweep.min_value = 1e-4;
  def.sweep.max_value = 1.0;
  return def;
}

TEST(Greedy, MeetsPrivacyObjective) {
  const SystemDefinition def = narrow_system();
  const trace::Dataset data = testutil::two_stop_dataset(3);
  const std::vector<Objective> objectives{{Axis::kPrivacy, Sense::kAtMost, 0.30}};
  GreedyConfig cfg;
  cfg.max_iterations = 12;
  const GreedyResult r = greedy_configure(def, data, objectives, cfg);
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.privacy, 0.30 + 1e-9);
  EXPECT_GE(r.evaluations, 1u);
  EXPECT_EQ(r.evaluations, r.history.size());
}

TEST(Greedy, MeetsJointObjectives) {
  const SystemDefinition def = narrow_system();
  const trace::Dataset data = testutil::two_stop_dataset(3);
  // On this dataset Pr <= 0.50 holds in expectation up to ε ≈ 0.019 and
  // Ut >= 0.20 from ε ≈ 0.0135, so the joint window is about
  // 0.0135-0.019 (per-user recall moves in sixths).
  const std::vector<Objective> objectives{
      {Axis::kPrivacy, Sense::kAtMost, 0.50},
      {Axis::kUtility, Sense::kAtLeast, 0.20},
  };
  // The premise first: the window's middle meets both objectives in
  // expectation, measured over many trials rather than one draw.
  const SweepPoint inside = evaluate_point(def, data, 0.016, 200, 7);
  ASSERT_LE(inside.privacy_mean, 0.50);
  ASSERT_GE(inside.utility_mean, 0.20);

  // Then the search, one noisy trial per evaluation, from many seeds:
  // a pinned seed could converge by luck.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    GreedyConfig cfg;
    cfg.max_iterations = 15;
    cfg.seed = seed;
    const GreedyResult r = greedy_configure(def, data, objectives, cfg);
    EXPECT_TRUE(r.converged) << "seed " << seed << ": best pr=" << r.privacy
                             << " ut=" << r.utility;
    EXPECT_LE(r.privacy, 0.50 + 1e-9) << "seed " << seed;
    EXPECT_GE(r.utility, 0.20 - 1e-9) << "seed " << seed;
  }
}

TEST(Greedy, ImpossibleObjectiveDoesNotConverge) {
  const SystemDefinition def = narrow_system();
  const trace::Dataset data = testutil::two_stop_dataset(2);
  // Perfect utility and perfect privacy simultaneously: impossible.
  const std::vector<Objective> objectives{
      {Axis::kPrivacy, Sense::kAtMost, 0.0},
      {Axis::kUtility, Sense::kAtLeast, 0.999},
  };
  GreedyConfig cfg;
  cfg.max_iterations = 8;
  const GreedyResult r = greedy_configure(def, data, objectives, cfg);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.evaluations, 8u);  // exhausted its budget
}

TEST(Greedy, EvaluationBudgetRespected) {
  const SystemDefinition def = narrow_system();
  const trace::Dataset data = testutil::two_stop_dataset(2);
  const std::vector<Objective> objectives{{Axis::kPrivacy, Sense::kAtMost, 0.0}};
  GreedyConfig cfg;
  cfg.max_iterations = 5;
  const GreedyResult r = greedy_configure(def, data, objectives, cfg);
  EXPECT_LE(r.evaluations, 5u);
  EXPECT_THROW((void)greedy_configure(def, data, objectives, {.max_iterations = 0}),
               std::invalid_argument);
}

TEST(Greedy, DeterministicInSeed) {
  const SystemDefinition def = narrow_system();
  const trace::Dataset data = testutil::two_stop_dataset(2);
  const std::vector<Objective> objectives{{Axis::kPrivacy, Sense::kAtMost, 0.4}};
  GreedyConfig cfg;
  cfg.max_iterations = 6;
  const GreedyResult a = greedy_configure(def, data, objectives, cfg);
  const GreedyResult b = greedy_configure(def, data, objectives, cfg);
  EXPECT_EQ(a.parameter_value, b.parameter_value);
  EXPECT_EQ(a.evaluations, b.evaluations);
}

TEST(Greedy, HistoryRecordsWalk) {
  const SystemDefinition def = narrow_system();
  const trace::Dataset data = testutil::two_stop_dataset(2);
  const std::vector<Objective> objectives{{Axis::kPrivacy, Sense::kAtMost, 0.3}};
  GreedyConfig cfg;
  cfg.max_iterations = 10;
  const GreedyResult r = greedy_configure(def, data, objectives, cfg);
  ASSERT_FALSE(r.history.empty());
  for (const GreedyStep& step : r.history) {
    EXPECT_GE(step.parameter_value, def.sweep.min_value);
    EXPECT_LE(step.parameter_value, def.sweep.max_value);
  }
  if (r.converged) {
    EXPECT_TRUE(r.history.back().objectives_met);
  }
}

}  // namespace
}  // namespace locpriv::core
