// Determinism regressions: the experiment pipeline and the streaming
// gateway must be bit-reproducible — not "statistically equal", but
// identical down to the last bit of every double — regardless of the
// number of threads doing the work. These tests compare raw bit
// patterns (memcmp), so even a -0.0/0.0 flip or a different summation
// order in a parallel reduction fails loudly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/sweep.h"
#include "metrics/eval_context.h"
#include "obs/tracer.h"
#include "core/system_definition.h"
#include "service/gateway.h"
#include "service/load_driver.h"
#include "test_util.h"

namespace locpriv {
namespace {

bool bit_equal(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

// ------------------------------------------------------------- run_sweep

core::SweepResult sweep_with_threads(std::size_t threads, bool use_cache = true) {
  core::SystemDefinition def = core::make_geo_i_system(5);
  const trace::Dataset data = testutil::two_stop_dataset(3);
  core::ExperimentConfig cfg;
  cfg.trials = 3;
  cfg.seed = 2016;
  cfg.threads = threads;
  cfg.use_artifact_cache = use_cache;
  return core::run_sweep(def, data, cfg);
}

void expect_bit_identical(const core::SweepResult& a, const core::SweepResult& b,
                          const char* what) {
  ASSERT_EQ(a.points.size(), b.points.size()) << what;
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    const core::SweepPoint& pa = a.points[i];
    const core::SweepPoint& pb = b.points[i];
    EXPECT_TRUE(bit_equal(pa.parameter_value, pb.parameter_value)) << what << " point " << i;
    EXPECT_TRUE(bit_equal(pa.privacy_mean, pb.privacy_mean)) << what << " point " << i;
    EXPECT_TRUE(bit_equal(pa.utility_mean, pb.utility_mean)) << what << " point " << i;
    // The stddevs are the sharpest probe: they aggregate across trials,
    // so any trial-order-dependent reduction shows up here first.
    EXPECT_TRUE(bit_equal(pa.privacy_stddev, pb.privacy_stddev)) << what << " point " << i;
    EXPECT_TRUE(bit_equal(pa.utility_stddev, pb.utility_stddev)) << what << " point " << i;
  }
}

TEST(SweepDeterminism, OneThreadAndEightThreadsAreBitIdentical) {
  const core::SweepResult serial = sweep_with_threads(1);
  const core::SweepResult parallel = sweep_with_threads(8);
  expect_bit_identical(serial, parallel, "threads=1 vs threads=8");
}

TEST(SweepDeterminism, RepeatedRunsAreBitIdentical) {
  const core::SweepResult a = sweep_with_threads(4);
  const core::SweepResult b = sweep_with_threads(4);
  expect_bit_identical(a, b, "same config, two runs");
}

// The artifact cache is a pure memoization layer: a hit returns the
// exact object a miss would have built, so turning it off (or varying
// the thread count that populates it) must not move a single bit.
TEST(SweepDeterminism, CacheOnAndOffAreBitIdentical) {
  const core::SweepResult cached = sweep_with_threads(1, /*use_cache=*/true);
  const core::SweepResult uncached = sweep_with_threads(1, /*use_cache=*/false);
  expect_bit_identical(cached, uncached, "cache on vs off, threads=1");
}

TEST(SweepDeterminism, CacheAndThreadCrossProductIsBitIdentical) {
  const core::SweepResult baseline = sweep_with_threads(1, /*use_cache=*/false);
  expect_bit_identical(baseline, sweep_with_threads(1, true), "uncached/1 vs cached/1");
  expect_bit_identical(baseline, sweep_with_threads(8, false), "uncached/1 vs uncached/8");
  expect_bit_identical(baseline, sweep_with_threads(8, true), "uncached/1 vs cached/8");
}

// Tracing observes the computation but must never perturb it: spans
// only read the clock and buffer records, counters only bump atomics.
// The sweep bits with tracing enabled — including under full thread
// fan-out — must match the untraced run exactly.
TEST(SweepDeterminism, TracingOnAndOffAreBitIdentical) {
  const core::SweepResult untraced = sweep_with_threads(4);
  obs::Tracer::instance().enable();
  const core::SweepResult traced = sweep_with_threads(4);
  const core::SweepResult traced_wide = sweep_with_threads(8);
  obs::Tracer::instance().disable();
  obs::Tracer::instance().flush_this_thread();
  // The run really was traced — otherwise this test proves nothing.
  EXPECT_GT(obs::Tracer::instance().collected_spans(), 0u);
  obs::Tracer::instance().reset();
  expect_bit_identical(untraced, traced, "tracing off vs on, threads=4");
  expect_bit_identical(untraced, traced_wide, "tracing off vs on, threads=8");
}

// evaluate_point is the single-point primitive (greedy, refinement,
// cross-validation all bottom out here); its trial-parallel form must be
// bit-identical to the sequential one, with and without a shared
// actual-side cache.
TEST(SweepDeterminism, EvaluatePointThreadsOneAndEightAreBitIdentical) {
  const core::SystemDefinition def = core::make_geo_i_system(5);
  const trace::Dataset data = testutil::two_stop_dataset(3);
  const double value = core::sweep_values(def.sweep).front();
  for (const bool with_cache : {false, true}) {
    const auto cache =
        with_cache ? std::make_shared<metrics::ArtifactCache>() : nullptr;
    const core::SweepPoint serial =
        core::evaluate_point(def, data, value, /*trials=*/6, /*seed=*/2016, cache, /*threads=*/1);
    const core::SweepPoint wide =
        core::evaluate_point(def, data, value, /*trials=*/6, /*seed=*/2016, cache, /*threads=*/8);
    EXPECT_TRUE(bit_equal(serial.privacy_mean, wide.privacy_mean)) << with_cache;
    EXPECT_TRUE(bit_equal(serial.utility_mean, wide.utility_mean)) << with_cache;
    EXPECT_TRUE(bit_equal(serial.privacy_stddev, wide.privacy_stddev)) << with_cache;
    EXPECT_TRUE(bit_equal(serial.utility_stddev, wide.utility_stddev)) << with_cache;
  }
}

TEST(SweepDeterminism, ExternallySuppliedWarmCacheIsBitIdentical) {
  // A caller-provided cache already warmed by a previous sweep over the
  // same dataset must serve hits that reproduce the cold-run bits.
  core::SystemDefinition def = core::make_geo_i_system(5);
  const trace::Dataset data = testutil::two_stop_dataset(3);
  core::ExperimentConfig cfg;
  cfg.trials = 3;
  cfg.seed = 2016;
  cfg.threads = 4;
  cfg.artifact_cache = std::make_shared<metrics::ArtifactCache>();
  const core::SweepResult cold = core::run_sweep(def, data, cfg);
  EXPECT_GT(cfg.artifact_cache->stats().misses, 0u);
  const core::SweepResult warm = core::run_sweep(def, data, cfg);
  expect_bit_identical(cold, warm, "cold vs warm external cache");
}

// -------------------------------------------------- split-mode sweeps

core::SweepResult split_sweep(std::size_t threads, bool use_cache, core::SplitMode mode) {
  core::SystemDefinition def = core::make_geo_i_system(5);
  const trace::Dataset data = testutil::two_stop_dataset(5);
  core::ExperimentConfig cfg;
  cfg.trials = 3;
  cfg.seed = 2016;
  cfg.threads = threads;
  cfg.use_artifact_cache = use_cache;
  cfg.split.mode = mode;
  cfg.split.test_fraction = 0.4;
  cfg.split.folds = 3;
  cfg.split.seed = 7;
  return core::run_sweep(def, data, cfg);
}

void expect_split_bit_identical(const core::SweepResult& a, const core::SweepResult& b,
                                const char* what) {
  expect_bit_identical(a, b, what);
  ASSERT_EQ(a.split_train_users, b.split_train_users) << what;
  ASSERT_EQ(a.split_test_users, b.split_test_users) << what;
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].has_split, b.points[i].has_split) << what << " point " << i;
    EXPECT_TRUE(bit_equal(a.points[i].privacy_train_mean, b.points[i].privacy_train_mean))
        << what << " point " << i;
    EXPECT_TRUE(bit_equal(a.points[i].privacy_train_stddev, b.points[i].privacy_train_stddev))
        << what << " point " << i;
  }
}

// The partition is a pure function of (user_count, spec): same split
// seed ⇒ the same train/test membership and the same per-split Pr bits
// at any thread count, cache on or off, tracing on or off.
TEST(SplitDeterminism, HoldoutSweepBitIdenticalAcrossThreadsCacheAndTracing) {
  const core::SweepResult baseline = split_sweep(1, false, core::SplitMode::kHoldout);
  EXPECT_TRUE(baseline.split.enabled());
  EXPECT_GT(baseline.split_train_users, 0u);
  EXPECT_GT(baseline.split_test_users, 0u);
  expect_split_bit_identical(baseline, split_sweep(8, false, core::SplitMode::kHoldout),
                             "holdout threads 1 vs 8");
  expect_split_bit_identical(baseline, split_sweep(1, true, core::SplitMode::kHoldout),
                             "holdout cache off vs on");
  obs::Tracer::instance().enable();
  const core::SweepResult traced = split_sweep(8, true, core::SplitMode::kHoldout);
  obs::Tracer::instance().disable();
  EXPECT_GT(obs::Tracer::instance().collected_spans(), 0u);
  obs::Tracer::instance().reset();
  expect_split_bit_identical(baseline, traced, "holdout traced/8/cached vs untraced/1/uncached");
}

TEST(SplitDeterminism, KFoldSweepBitIdenticalAcrossThreads) {
  const core::SweepResult serial = split_sweep(1, true, core::SplitMode::kKFold);
  const core::SweepResult parallel = split_sweep(8, true, core::SplitMode::kKFold);
  // K-fold covers every user on both sides across the rotations.
  EXPECT_EQ(serial.split_train_users, 5u);
  EXPECT_EQ(serial.split_test_users, 5u);
  expect_split_bit_identical(serial, parallel, "kfold threads 1 vs 8");
}

// The no-split default must remain memcmp-identical to the pre-split
// engine: an explicit kNone spec (whatever its other fields say) and
// the historical default config produce the same bits, with no split
// reporting attached.
TEST(SplitDeterminism, DisabledSplitIsBitIdenticalToLegacyDefault) {
  const core::SweepResult legacy = sweep_with_threads(4);
  core::SystemDefinition def = core::make_geo_i_system(5);
  const trace::Dataset data = testutil::two_stop_dataset(3);
  core::ExperimentConfig cfg;
  cfg.trials = 3;
  cfg.seed = 2016;
  cfg.threads = 4;
  cfg.split.mode = core::SplitMode::kNone;
  cfg.split.test_fraction = 0.25;  // ignored fields must stay inert
  cfg.split.seed = 99;
  const core::SweepResult with_none = core::run_sweep(def, data, cfg);
  expect_bit_identical(legacy, with_none, "default vs explicit kNone");
  EXPECT_FALSE(with_none.split.enabled());
  EXPECT_EQ(with_none.split_train_users, 0u);
  EXPECT_EQ(with_none.split_test_users, 0u);
  for (const core::SweepPoint& p : with_none.points) {
    EXPECT_FALSE(p.has_split);
    EXPECT_TRUE(bit_equal(p.privacy_train_mean, 0.0));
  }
}

// UserSplit primitives: the partition machinery the sweeps above lean on.
TEST(SplitDeterminism, PartitionsAreSeededDisjointAndCovering) {
  const core::UserSplit a = core::make_holdout_split(10, 0.3, 5);
  const core::UserSplit b = core::make_holdout_split(10, 0.3, 5);
  EXPECT_EQ(a.train, b.train);
  EXPECT_EQ(a.test, b.test);
  EXPECT_EQ(a.id(), b.id());
  EXPECT_EQ(a.test.size(), 3u);
  EXPECT_EQ(a.train.size(), 7u);
  EXPECT_TRUE(std::is_sorted(a.train.begin(), a.train.end()));
  EXPECT_TRUE(std::is_sorted(a.test.begin(), a.test.end()));
  const core::UserSplit c = core::make_holdout_split(10, 0.3, 6);
  EXPECT_NE(a.id(), c.id()) << "different seeds should (virtually always) differ";

  const std::vector<core::UserSplit> folds = core::make_kfold_splits(10, 3, 5);
  ASSERT_EQ(folds.size(), 3u);
  std::vector<int> scored(10, 0);
  for (const core::UserSplit& f : folds) {
    for (const std::size_t u : f.test) ++scored[u];
    // Within one fold, train and test are disjoint and cover everyone.
    std::vector<bool> seen(10, false);
    for (const std::size_t u : f.train) seen[u] = true;
    for (const std::size_t u : f.test) {
      EXPECT_FALSE(seen[u]) << "user " << u << " on both sides";
      seen[u] = true;
    }
    EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool s) { return s; }));
  }
  for (int s : scored) EXPECT_EQ(s, 1) << "k-fold must score every user exactly once";

  EXPECT_THROW((void)core::make_holdout_split(1, 0.3, 1), std::invalid_argument);
  EXPECT_THROW((void)core::make_holdout_split(10, 0.0, 1), std::invalid_argument);
  EXPECT_THROW((void)core::make_kfold_splits(3, 4, 1), std::invalid_argument);
}

// ------------------------------------------------- gateway under faults

struct Capture {
  std::mutex mutex;
  std::map<std::string, std::vector<service::ProtectedReport>> by_user;

  service::Gateway::Sink sink() {
    return [this](const service::ProtectedReport& r) {
      std::lock_guard lock(mutex);
      by_user[r.user_id].push_back(r);
    };
  }

  /// Merge inline rejections (answered on the submit thread, racing the
  /// worker answers in arrival order only) back into submission order.
  void sort_by_seq() {
    for (auto& [user, reports] : by_user) {
      std::sort(reports.begin(), reports.end(),
                [](const service::ProtectedReport& a, const service::ProtectedReport& b) {
                  return a.seq < b.seq;
                });
    }
  }
};

service::GatewayConfig chaos_config(std::size_t workers) {
  service::GatewayConfig cfg;
  cfg.workers = workers;
  cfg.queue_capacity = 1 << 14;
  cfg.epsilon = 0.05;
  cfg.budget_eps = 0.5;
  cfg.budget_window_s = 1800;
  cfg.seed = 2016;
  cfg.faults = service::parse_fault_spec(
      "fail=0.25,latency_p=0.1,latency_us=200,stall_p=0.02,stall_us=500,"
      "skew_p=0.1,skew_s=300,burst_p=0.05,burst_len=8");
  // The per-worker circuit breaker is the one deliberately
  // worker-count-dependent piece of state (it aggregates across the
  // users a worker owns), so cross-worker-count identity is specified
  // with it disabled. Same-config replays keep it on elsewhere.
  cfg.resilience.breaker.failure_threshold = 0;
  cfg.resilience.sleep_for_real = false;
  return cfg;
}

void run_gateway(const service::GatewayConfig& cfg, const trace::Dataset& data,
                 Capture& capture) {
  {
    service::Gateway gateway(cfg, capture.sink());
    service::replay_dataset(data, gateway);
  }
  capture.sort_by_seq();
}

void expect_bit_identical(Capture& a, Capture& b, const char* what) {
  ASSERT_EQ(a.by_user.size(), b.by_user.size()) << what;
  for (auto& [user, ra] : a.by_user) {
    const auto it = b.by_user.find(user);
    ASSERT_NE(it, b.by_user.end()) << what << " user " << user;
    auto& rb = it->second;
    ASSERT_EQ(ra.size(), rb.size()) << what << " user " << user;
    for (std::size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i].seq, rb[i].seq) << what << " user " << user;
      EXPECT_EQ(ra[i].status, rb[i].status) << what << " user " << user << " seq " << ra[i].seq;
      EXPECT_EQ(ra[i].downstream_attempts, rb[i].downstream_attempts)
          << what << " user " << user << " seq " << ra[i].seq;
      ASSERT_EQ(ra[i].protected_event.has_value(), rb[i].protected_event.has_value())
          << what << " user " << user << " seq " << ra[i].seq;
      if (ra[i].protected_event.has_value()) {
        EXPECT_EQ(ra[i].protected_event->time, rb[i].protected_event->time)
            << what << " user " << user << " seq " << ra[i].seq;
        EXPECT_TRUE(bit_equal(ra[i].protected_event->location.x,
                              rb[i].protected_event->location.x))
            << what << " user " << user << " seq " << ra[i].seq;
        EXPECT_TRUE(bit_equal(ra[i].protected_event->location.y,
                              rb[i].protected_event->location.y))
            << what << " user " << user << " seq " << ra[i].seq;
      }
    }
  }
}

TEST(GatewayDeterminism, SameConfigReplaysBitIdenticallyUnderActiveFaultPlan) {
  const trace::Dataset data = testutil::two_stop_dataset(10);
  service::GatewayConfig cfg = chaos_config(4);
  cfg.resilience.breaker.failure_threshold = 5;  // same-config: breaker on
  Capture a, b;
  run_gateway(cfg, data, a);
  run_gateway(cfg, data, b);
  expect_bit_identical(a, b, "same config twice");
}

TEST(GatewayDeterminism, OneWorkerAndEightWorkersAreBitIdenticalWithBreakerOff) {
  const trace::Dataset data = testutil::two_stop_dataset(10);
  Capture one, eight;
  run_gateway(chaos_config(1), data, one);
  run_gateway(chaos_config(8), data, eight);
  expect_bit_identical(one, eight, "workers=1 vs workers=8");
}

TEST(GatewayDeterminism, TracingOnAndOffAreBitIdenticalUnderFaults) {
  const trace::Dataset data = testutil::two_stop_dataset(10);
  service::GatewayConfig cfg = chaos_config(4);
  cfg.resilience.breaker.failure_threshold = 5;  // same-config: breaker on
  Capture untraced, traced;
  run_gateway(cfg, data, untraced);
  obs::Tracer::instance().enable();
  run_gateway(cfg, data, traced);
  obs::Tracer::instance().disable();
  obs::Tracer::instance().flush_this_thread();
  EXPECT_GT(obs::Tracer::instance().collected_spans(), 0u);
  obs::Tracer::instance().reset();
  expect_bit_identical(untraced, traced, "gateway tracing off vs on");
}

}  // namespace
}  // namespace locpriv
