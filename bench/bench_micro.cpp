// Microbenchmarks (google-benchmark): throughput of the primitives the
// sweep pipeline is built from — planar-Laplace sampling, trace
// protection, POI extraction, metric evaluation, and a full sweep point.
#include <benchmark/benchmark.h>

#include "attack/poi_attack.h"
#include "core/experiment.h"
#include "lppm/geo_ind.h"
#include "metrics/area_coverage.h"
#include "metrics/poi_retrieval.h"
#include "poi/staypoint.h"
#include "stats/rng.h"
#include "synth/scenario.h"

namespace {

using namespace locpriv;

trace::Dataset& cached_dataset() {
  static trace::Dataset data = [] {
    synth::TaxiScenarioConfig cfg;
    cfg.driver_count = 8;
    cfg.taxi.shift_duration_s = 6 * 3600;
    return synth::make_taxi_dataset(cfg, 7);
  }();
  return data;
}

void BM_PlanarLaplaceSample(benchmark::State& state) {
  stats::Rng rng(1);
  const double eps = 0.01;
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::sample_planar_laplace(rng, eps));
  }
}
BENCHMARK(BM_PlanarLaplaceSample);

void BM_GeoIndProtectTrace(benchmark::State& state) {
  const trace::Trace& t = cached_dataset()[0];
  const lppm::GeoIndistinguishability mech(0.01);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mech.protect(t, ++seed));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(t.size()));
}
BENCHMARK(BM_GeoIndProtectTrace);

void BM_StayPointExtraction(benchmark::State& state) {
  const trace::Trace& t = cached_dataset()[0];
  const poi::ExtractorConfig cfg;
  for (auto _ : state) {
    benchmark::DoNotOptimize(poi::extract_pois(t, cfg));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(t.size()));
}
BENCHMARK(BM_StayPointExtraction);

void BM_PoiAttack(benchmark::State& state) {
  const trace::Trace& t = cached_dataset()[0];
  const lppm::GeoIndistinguishability mech(0.01);
  const trace::Trace protected_t = mech.protect(t, 1);
  const attack::PoiAttackConfig cfg;
  const auto ground_truth = poi::extract_pois(t, cfg.ground_truth);
  for (auto _ : state) {
    benchmark::DoNotOptimize(attack::run_poi_attack(ground_truth, protected_t, cfg));
  }
}
BENCHMARK(BM_PoiAttack);

void BM_AreaCoverageMetric(benchmark::State& state) {
  const trace::Dataset& data = cached_dataset();
  const lppm::GeoIndistinguishability mech(0.01);
  const trace::Dataset protected_d = mech.protect_dataset(data, 1);
  const metrics::AreaCoverage metric;
  for (auto _ : state) {
    benchmark::DoNotOptimize(metric.evaluate(metrics::EvalContext(data, protected_d)));
  }
}
BENCHMARK(BM_AreaCoverageMetric);

void BM_PoiRetrievalMetric(benchmark::State& state) {
  const trace::Dataset& data = cached_dataset();
  const lppm::GeoIndistinguishability mech(0.01);
  const trace::Dataset protected_d = mech.protect_dataset(data, 1);
  const metrics::PoiRetrieval metric;
  for (auto _ : state) {
    benchmark::DoNotOptimize(metric.evaluate(metrics::EvalContext(data, protected_d)));
  }
}
BENCHMARK(BM_PoiRetrievalMetric);

void BM_FullSweepPoint(benchmark::State& state) {
  const trace::Dataset& data = cached_dataset();
  const core::SystemDefinition def = core::make_geo_i_system(10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::evaluate_point(def, data, 0.01, 1, 42));
  }
}
BENCHMARK(BM_FullSweepPoint);

}  // namespace
