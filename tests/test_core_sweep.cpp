#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "core/experiment.h"
#include "core/sweep.h"
#include "core/system_definition.h"
#include "lppm/geo_ind.h"
#include "metrics/area_coverage.h"
#include "metrics/registry.h"
#include "stats/rng.h"
#include "metrics/distortion.h"
#include "metrics/poi_retrieval.h"
#include "test_util.h"

namespace locpriv::core {
namespace {

TEST(SweepValues, LinearSpacing) {
  const SweepSpec spec{"p", 0.0, 10.0, 6, lppm::Scale::kLinear};
  const auto v = sweep_values(spec);
  ASSERT_EQ(v.size(), 6u);
  EXPECT_DOUBLE_EQ(v[0], 0.0);
  EXPECT_DOUBLE_EQ(v[1], 2.0);
  EXPECT_DOUBLE_EQ(v[5], 10.0);
}

TEST(SweepValues, LogSpacing) {
  const SweepSpec spec{"p", 1e-4, 1.0, 5, lppm::Scale::kLog};
  const auto v = sweep_values(spec);
  ASSERT_EQ(v.size(), 5u);
  EXPECT_DOUBLE_EQ(v[0], 1e-4);
  EXPECT_NEAR(v[1], 1e-3, 1e-12);
  EXPECT_NEAR(v[2], 1e-2, 1e-11);
  EXPECT_DOUBLE_EQ(v[4], 1.0);
}

TEST(SweepValues, Validation) {
  EXPECT_THROW(sweep_values({"p", 1.0, 1.0, 5, lppm::Scale::kLinear}), std::invalid_argument);
  EXPECT_THROW(sweep_values({"p", 0.0, 1.0, 5, lppm::Scale::kLog}), std::invalid_argument);
  EXPECT_THROW(sweep_values({"p", 0.1, 1.0, 1, lppm::Scale::kLog}), std::invalid_argument);
}

TEST(ModelX, LogAndLinearTransforms) {
  EXPECT_DOUBLE_EQ(model_x(std::exp(2.0), lppm::Scale::kLog), 2.0);
  EXPECT_DOUBLE_EQ(model_x(5.0, lppm::Scale::kLinear), 5.0);
  EXPECT_DOUBLE_EQ(from_model_x(2.0, lppm::Scale::kLog), std::exp(2.0));
  EXPECT_DOUBLE_EQ(from_model_x(5.0, lppm::Scale::kLinear), 5.0);
  EXPECT_THROW((void)model_x(0.0, lppm::Scale::kLog), std::domain_error);
}

TEST(FullRangeSweep, UsesDeclaredBounds) {
  const lppm::GeoIndistinguishability mech;
  const SweepSpec spec = full_range_sweep(mech, "epsilon", 10);
  EXPECT_DOUBLE_EQ(spec.min_value, 1e-5);
  EXPECT_DOUBLE_EQ(spec.max_value, 10.0);
  EXPECT_EQ(spec.scale, lppm::Scale::kLog);
  EXPECT_THROW((void)full_range_sweep(mech, "nope", 10), std::invalid_argument);
}

/// Stub with a log-scale parameter whose declared minimum is 0 — legal
/// as a declaration (0 can be a meaningful "off" value) but unusable as
/// a log sweep bound.
class ZeroMinLogMechanism final : public lppm::ParameterizedMechanism {
 public:
  explicit ZeroMinLogMechanism(double max_value = 100.0)
      : ParameterizedMechanism({{"noise", 0.0, max_value, max_value / 2.0, lppm::Scale::kLog, "m",
                                 "stub log knob"}}) {}
  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] trace::Trace protect(const trace::Trace& input, std::uint64_t) const override {
    return input;
  }

 private:
  std::string name_ = "zero-min-log";
};

TEST(FullRangeSweep, ClampsZeroMinimumOfLogParameters) {
  // Regression: a log parameter declared with min_value == 0 used to
  // produce a SweepSpec that sweep_values rejects (ln 0). The sweep
  // bound must clamp to max(kLogSweepFloor, max * kLogSweepRelativeFloor).
  const ZeroMinLogMechanism mech(100.0);
  const SweepSpec spec = full_range_sweep(mech, "noise", 8);
  EXPECT_DOUBLE_EQ(spec.min_value, 100.0 * kLogSweepRelativeFloor);
  EXPECT_DOUBLE_EQ(spec.max_value, 100.0);
  EXPECT_EQ(spec.scale, lppm::Scale::kLog);
  const auto values = sweep_values(spec);  // must not throw
  ASSERT_EQ(values.size(), 8u);
  EXPECT_GT(values.front(), 0.0);
  EXPECT_DOUBLE_EQ(values.front(), spec.min_value);
  EXPECT_DOUBLE_EQ(values.back(), 100.0);
}

TEST(FullRangeSweep, ZeroMinimumClampNeverDropsBelowAbsoluteFloor) {
  // Tiny ranges hit the absolute floor instead of the relative one.
  const ZeroMinLogMechanism tiny(1e-5);
  const SweepSpec spec = full_range_sweep(tiny, "noise", 5);
  EXPECT_DOUBLE_EQ(spec.min_value, kLogSweepFloor);
  EXPECT_NO_THROW((void)sweep_values(spec));
}

TEST(ParameterSpec, LogScaleRejectsZeroEvenWhenDeclaredMinIsZero) {
  const ZeroMinLogMechanism mech;
  const lppm::ParameterSpec& spec = mech.parameters().front();
  EXPECT_FALSE(spec.in_range(0.0));
  EXPECT_TRUE(spec.in_range(1e-9));
  EXPECT_TRUE(spec.in_range(100.0));
  EXPECT_THROW(ZeroMinLogMechanism(50.0).set_parameter("noise", 0.0), std::out_of_range);
}

TEST(SystemDefinition, ValidateCatchesMistakes) {
  SystemDefinition def = make_geo_i_system();
  EXPECT_NO_THROW(def.validate());

  SystemDefinition no_factory = make_geo_i_system();
  no_factory.mechanism_factory = nullptr;
  EXPECT_THROW(no_factory.validate(), std::invalid_argument);

  SystemDefinition swapped = make_geo_i_system();
  std::swap(swapped.privacy, swapped.utility);
  EXPECT_THROW(swapped.validate(), std::invalid_argument);

  SystemDefinition bad_param = make_geo_i_system();
  bad_param.sweep.parameter = "sigma";
  EXPECT_THROW(bad_param.validate(), std::invalid_argument);

  SystemDefinition out_of_bounds = make_geo_i_system();
  out_of_bounds.sweep.max_value = 100.0;  // epsilon max is 10
  EXPECT_THROW(out_of_bounds.validate(), std::invalid_argument);
}

TEST(EvaluatePoint, DistortionTracksEpsilon) {
  SystemDefinition def = make_geo_i_system();
  def.utility = std::make_shared<metrics::MeanDistortion>();
  const trace::Dataset data = testutil::two_stop_dataset(3);
  const SweepPoint p = evaluate_point(def, data, 0.01, 2, 7);
  EXPECT_DOUBLE_EQ(p.parameter_value, 0.01);
  EXPECT_NEAR(p.utility_mean, 200.0, 60.0);  // 2/eps
  EXPECT_GE(p.privacy_mean, 0.0);
  EXPECT_LE(p.privacy_mean, 1.0);
  EXPECT_THROW((void)evaluate_point(def, data, 0.01, 0, 7), std::invalid_argument);
}

TEST(EvaluatePointPerUser, BreakdownAveragesToDatasetMean) {
  SystemDefinition def = make_geo_i_system();
  const trace::Dataset data = testutil::two_stop_dataset(4);
  // evaluate_point derives its trial-0 seed from (seed, 0); match it so
  // the protection pass is identical.
  const auto breakdown = evaluate_point_per_user(def, data, 0.01, stats::derive_seed(7, 0));
  ASSERT_EQ(breakdown.size(), 4u);
  double pr_sum = 0.0;
  double ut_sum = 0.0;
  for (std::size_t i = 0; i < breakdown.size(); ++i) {
    EXPECT_EQ(breakdown[i].user_id, data[i].user_id());
    pr_sum += breakdown[i].privacy;
    ut_sum += breakdown[i].utility;
  }
  // One trial with the same seed: both run the same per-user loop and
  // sum in user order, so the per-user mean equals evaluate_point bit
  // for bit.
  const SweepPoint point = evaluate_point(def, data, 0.01, 1, 7);
  EXPECT_EQ(pr_sum / 4.0, point.privacy_mean);
  EXPECT_EQ(ut_sum / 4.0, point.utility_mean);
}

TEST(EvaluatePointPerUser, RejectsDatasetLevelMetrics) {
  SystemDefinition def = make_geo_i_system();
  def.privacy = std::shared_ptr<const metrics::Metric>(
      metrics::create_metric("reidentification-rate"));
  const trace::Dataset data = testutil::two_stop_dataset(3);
  EXPECT_THROW((void)evaluate_point_per_user(def, data, 0.01, 7), std::invalid_argument);
}

TEST(RunSweep, ShapeAndMetadata) {
  SystemDefinition def = make_geo_i_system(6);
  def.sweep.point_count = 6;
  const trace::Dataset data = testutil::two_stop_dataset(2);
  ExperimentConfig cfg;
  cfg.trials = 2;
  const SweepResult r = run_sweep(def, data, cfg);
  EXPECT_EQ(r.mechanism_name, "geo-indistinguishability");
  EXPECT_EQ(r.parameter, "epsilon");
  EXPECT_EQ(r.privacy_metric, "poi-retrieval");
  EXPECT_EQ(r.utility_metric, "area-coverage-f1");
  ASSERT_EQ(r.points.size(), 6u);
  // Points ordered by ascending parameter.
  for (std::size_t i = 1; i < r.points.size(); ++i) {
    EXPECT_GT(r.points[i].parameter_value, r.points[i - 1].parameter_value);
  }
  EXPECT_EQ(r.model_xs().size(), 6u);
  EXPECT_DOUBLE_EQ(r.model_xs()[0], std::log(1e-4));
}

TEST(RunSweep, DeterministicAcrossThreadCounts) {
  SystemDefinition def = make_geo_i_system(5);
  const trace::Dataset data = testutil::two_stop_dataset(2);
  ExperimentConfig serial;
  serial.threads = 1;
  serial.trials = 2;
  ExperimentConfig parallel;
  parallel.threads = 4;
  parallel.trials = 2;
  const SweepResult a = run_sweep(def, data, serial);
  const SweepResult b = run_sweep(def, data, parallel);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.points[i].privacy_mean, b.points[i].privacy_mean) << i;
    EXPECT_DOUBLE_EQ(a.points[i].utility_mean, b.points[i].utility_mean) << i;
  }
}

TEST(RunSweep, SeedChangesResults) {
  SystemDefinition def = make_geo_i_system(4);
  // Narrow the sweep to the sensitive region so noise actually matters.
  def.sweep.min_value = 0.005;
  def.sweep.max_value = 0.05;
  const trace::Dataset data = testutil::two_stop_dataset(2);
  ExperimentConfig c1;
  c1.seed = 1;
  ExperimentConfig c2;
  c2.seed = 2;
  const SweepResult a = run_sweep(def, data, c1);
  const SweepResult b = run_sweep(def, data, c2);
  bool any_differ = false;
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    any_differ = any_differ || a.points[i].privacy_mean != b.points[i].privacy_mean ||
                 a.points[i].utility_mean != b.points[i].utility_mean;
  }
  EXPECT_TRUE(any_differ);
}

TEST(RunSweep, EmptyDatasetThrows) {
  const SystemDefinition def = make_geo_i_system(4);
  EXPECT_THROW(run_sweep(def, trace::Dataset{}, {}), std::invalid_argument);
  // Zero trials is rejected up front too, under run_sweep's own name.
  ExperimentConfig no_trials;
  no_trials.trials = 0;
  try {
    (void)run_sweep(def, testutil::two_stop_dataset(2), no_trials);
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("run_sweep"), std::string::npos) << e.what();
  }
}

TEST(RunSweep, PrivacyIncreasesWithEpsilonOverall) {
  SystemDefinition def = make_geo_i_system(7);
  const trace::Dataset data = testutil::two_stop_dataset(3);
  ExperimentConfig cfg;
  cfg.trials = 2;
  const SweepResult r = run_sweep(def, data, cfg);
  // Endpoint behavior: saturated low (no retrieval) to high retrieval.
  EXPECT_LT(r.points.front().privacy_mean, 0.3);
  EXPECT_GT(r.points.back().privacy_mean, 0.7);
  EXPECT_LT(r.points.front().utility_mean, r.points.back().utility_mean);
}

}  // namespace
}  // namespace locpriv::core
