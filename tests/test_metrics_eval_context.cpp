// The EvalContext redesign's contract tests.
//
// 1. Parity: every registered metric must return BIT-IDENTICAL values
//    through a cached EvalContext (cold and warm) and an uncached one —
//    the cache is pure memoization, never semantics.
// 2. Accounting: warm passes add hits without adding misses, and the
//    POI-family metrics share their expensive derived artifacts.
// 3. Concurrency: 8 threads hammering one shared cache still reproduce
//    the serial bits (this test doubles as the TSan workout for the
//    cache's sharded locking).
// 4. Registry: typed ParamMap construction for metrics and mechanisms,
//    with spec-driven validation.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "lppm/geo_ind.h"
#include "lppm/registry.h"
#include "metrics/eval_context.h"
#include "metrics/metric.h"
#include "metrics/registry.h"
#include "test_util.h"
#include "trace/dataset.h"

namespace locpriv::metrics {
namespace {

bool bit_equal(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

struct DatasetPair {
  trace::Dataset actual;
  trace::Dataset protected_data;
};

/// A small commute dataset protected with enough planar-Laplace noise
/// (~200 m at eps=0.01) that every metric has something non-trivial to
/// measure.
DatasetPair make_pair() {
  DatasetPair p;
  p.actual = testutil::two_stop_dataset(3);
  lppm::GeoIndistinguishability mech(0.01);
  p.protected_data = mech.protect_dataset(p.actual, 2016);
  return p;
}

// ----------------------------------------------------------------- parity

TEST(EvalContextParity, EveryRegisteredMetricIsBitIdenticalCachedAndUncached) {
  const DatasetPair data = make_pair();
  const auto actual_cache = std::make_shared<ArtifactCache>();
  const auto protected_cache = std::make_shared<ArtifactCache>();
  const EvalContext cached(data.actual, data.protected_data, actual_cache, protected_cache);
  const EvalContext uncached(data.actual, data.protected_data);
  for (const std::string& name : metric_names()) {
    const auto metric = create_metric(name);
    const double bare = metric->evaluate(uncached);
    const double cold = metric->evaluate(cached);
    const double warm = metric->evaluate(cached);  // now served from cache
    EXPECT_TRUE(bit_equal(bare, cold)) << name << ": uncached context vs cold cache";
    EXPECT_TRUE(bit_equal(bare, warm)) << name << ": uncached context vs warm cache";
  }
  // The loop above must actually have exercised the cache.
  const ArtifactCache::Stats stats = actual_cache->stats();
  EXPECT_GT(stats.misses, 0u);
  EXPECT_GT(stats.hits, 0u);
}

// ------------------------------------------------------------- accounting

TEST(ArtifactCacheAccounting, WarmPassAddsHitsButNoMisses) {
  const DatasetPair data = make_pair();
  const auto actual_cache = std::make_shared<ArtifactCache>();
  const auto protected_cache = std::make_shared<ArtifactCache>();
  const EvalContext ctx(data.actual, data.protected_data, actual_cache, protected_cache);
  const auto metric = create_metric("poi-retrieval");

  (void)metric->evaluate(ctx);
  const ArtifactCache::Stats cold_actual = actual_cache->stats();
  const ArtifactCache::Stats cold_protected = protected_cache->stats();
  EXPECT_GT(cold_actual.misses, 0u);
  EXPECT_GT(cold_protected.misses, 0u);

  (void)metric->evaluate(ctx);
  const ArtifactCache::Stats warm_actual = actual_cache->stats();
  const ArtifactCache::Stats warm_protected = protected_cache->stats();
  EXPECT_EQ(warm_actual.misses, cold_actual.misses) << "warm pass rebuilt an actual artifact";
  EXPECT_EQ(warm_protected.misses, cold_protected.misses)
      << "warm pass rebuilt a protected artifact";
  EXPECT_GT(warm_actual.hits, cold_actual.hits);
  EXPECT_GT(warm_protected.hits, cold_protected.hits);
  EXPECT_GT(warm_actual.hit_rate(), 0.0);
  EXPECT_LE(warm_actual.hit_rate(), 1.0);
}

TEST(ArtifactCacheAccounting, PoiFamilyMetricsShareDerivedArtifacts) {
  // poi-retrieval, poi-preservation and reidentification-rate all derive
  // the same default-parameter "poi-set" artifacts; once one of them has
  // warmed the caches, the others must add zero misses.
  const DatasetPair data = make_pair();
  const auto actual_cache = std::make_shared<ArtifactCache>();
  const auto protected_cache = std::make_shared<ArtifactCache>();
  const EvalContext ctx(data.actual, data.protected_data, actual_cache, protected_cache);

  (void)create_metric("poi-retrieval")->evaluate(ctx);
  const std::uint64_t actual_misses = actual_cache->stats().misses;
  const std::uint64_t protected_misses = protected_cache->stats().misses;

  (void)create_metric("poi-preservation")->evaluate(ctx);
  (void)create_metric("reidentification-rate")->evaluate(ctx);
  EXPECT_EQ(actual_cache->stats().misses, actual_misses)
      << "a POI-family metric rebuilt an actual-side artifact";
  EXPECT_EQ(protected_cache->stats().misses, protected_misses)
      << "a POI-family metric rebuilt a protected-side artifact";
}

TEST(ArtifactCacheAccounting, ClearResetsContentsNotSemantics) {
  const DatasetPair data = make_pair();
  const auto cache = std::make_shared<ArtifactCache>();
  const EvalContext ctx(data.actual, data.protected_data, cache,
                        std::make_shared<ArtifactCache>());
  const auto metric = create_metric("area-coverage-f1");
  const double before = metric->evaluate(ctx);
  EXPECT_GT(cache->size(), 0u);
  cache->clear();
  EXPECT_EQ(cache->size(), 0u);
  const double after = metric->evaluate(ctx);
  EXPECT_TRUE(bit_equal(before, after));
}

// ------------------------------------------------------------ concurrency

TEST(EvalContextConcurrency, EightThreadsSharingOneCacheReproduceSerialBits) {
  const DatasetPair data = make_pair();
  const std::vector<std::string> names = metric_names();

  // Serial, uncached reference values.
  const EvalContext uncached(data.actual, data.protected_data);
  std::map<std::string, double> reference;
  for (const std::string& name : names) reference[name] = create_metric(name)->evaluate(uncached);

  const auto actual_cache = std::make_shared<ArtifactCache>();
  const auto protected_cache = std::make_shared<ArtifactCache>();
  const EvalContext ctx(data.actual, data.protected_data, actual_cache, protected_cache);

  constexpr std::size_t kThreads = 8;
  std::vector<std::map<std::string, double>> results(kThreads);
  {
    std::vector<std::thread> pool;
    pool.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      pool.emplace_back([&, t] {
        // Stagger each thread's metric order so threads race on
        // *different* artifacts, not in lockstep on the same one.
        for (std::size_t i = 0; i < names.size(); ++i) {
          const std::string& name = names[(i + t) % names.size()];
          results[t][name] = create_metric(name)->evaluate(ctx);
        }
      });
    }
    for (std::thread& th : pool) th.join();
  }

  for (std::size_t t = 0; t < kThreads; ++t) {
    for (const std::string& name : names) {
      EXPECT_TRUE(bit_equal(results[t][name], reference[name]))
          << name << " diverged on thread " << t;
    }
  }
  EXPECT_GT(actual_cache->stats().hits, 0u);
  EXPECT_GT(protected_cache->stats().hits, 0u);
}

// --------------------------------------------------------------- registry

TEST(MetricRegistry, ExposesParameterSpecs) {
  const std::vector<lppm::ParameterSpec>& poi = metric_parameters("poi-retrieval");
  ASSERT_EQ(poi.size(), 4u);
  EXPECT_EQ(poi[0].name, "match-radius-m");
  EXPECT_DOUBLE_EQ(poi[0].default_value, 200.0);
  EXPECT_TRUE(metric_parameters("mean-distortion").empty());
  EXPECT_THROW((void)metric_parameters("nope"), std::invalid_argument);
}

TEST(MetricRegistry, ParamMapOverridesChangeBehavior) {
  const DatasetPair data = make_pair();
  const EvalContext ctx(data.actual, data.protected_data);
  const double fine = create_metric("area-coverage-f1", {{"cell-size-m", 25.0}})->evaluate(ctx);
  const double coarse =
      create_metric("area-coverage-f1", {{"cell-size-m", 2500.0}})->evaluate(ctx);
  EXPECT_NE(fine, coarse) << "cell size override had no effect";

  // An empty map is exactly the defaults.
  const double defaulted = create_metric("poi-retrieval")->evaluate(ctx);
  const double empty_map = create_metric("poi-retrieval", lppm::ParamMap{})->evaluate(ctx);
  EXPECT_TRUE(bit_equal(defaulted, empty_map));
}

TEST(MetricRegistry, ParamMapValidation) {
  EXPECT_THROW((void)create_metric("poi-retrieval", {{"bogus", 1.0}}), std::invalid_argument);
  EXPECT_THROW((void)create_metric("mean-distortion", {{"anything", 1.0}}),
               std::invalid_argument);
  EXPECT_THROW((void)create_metric("poi-retrieval", {{"match-radius-m", 1e9}}),
               std::out_of_range);
  try {
    (void)create_metric("poi-retrieval", {{"bogus", 1.0}});
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("match-radius-m"), std::string::npos)
        << "error should list the valid parameter names: " << e.what();
  }
}

TEST(MechanismRegistry, ParamMapCreation) {
  const auto mech = lppm::create_mechanism("geo-indistinguishability", {{"epsilon", 0.5}});
  EXPECT_DOUBLE_EQ(mech->parameter("epsilon"), 0.5);
  EXPECT_THROW((void)lppm::create_mechanism("geo-indistinguishability", {{"bogus", 1.0}}),
               std::invalid_argument);
  EXPECT_THROW((void)lppm::create_mechanism("geo-indistinguishability", {{"epsilon", 1e6}}),
               std::out_of_range);
}

}  // namespace
}  // namespace locpriv::metrics
