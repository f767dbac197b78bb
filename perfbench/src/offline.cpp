// offline-configure: the paper's define -> model -> configure loop, run
// by one closed-loop caller. Every pass loads the fleet (mmap), sweeps
// Geo-I's ε over [1e-4, 1] (21 points x 3 trials, nproc threads, a fresh
// artifact cache), fits the log-linear model and inverts it against a
// fixed objective pair. Net and service do no work here.
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/configurator.h"
#include "core/experiment.h"
#include "core/loglinear_model.h"
#include "core/pipeline.h"
#include "core/system_definition.h"
#include "metrics/eval_context.h"
#include "metrics/poi_retrieval.h"
#include "poi/staypoint.h"
#include "procstat.h"
#include "stats/online.h"
#include "stats/rng.h"
#include "trace/store.h"
#include "trace/store_io.h"
#include "trace/trace_io.h"

namespace perfbench {

namespace {

using namespace locpriv;

constexpr std::size_t kSweepPoints = 21;
constexpr std::size_t kTrials = 3;
constexpr std::uint64_t kExperimentSeed = 42;
// Feasible on the synthetic fleet at every seed tried: the fitted privacy
// axis reaches 0.30 inside [1e-4, 1] and utility 0.20 stays below it.
const std::vector<core::Objective> kObjectives = {
    {core::Axis::kPrivacy, core::Sense::kAtMost, 0.30},
    {core::Axis::kUtility, core::Sense::kAtLeast, 0.20},
};

struct Pass {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double load_s = 0.0;
  double model_s = 0.0;
  double model_cpu_s = 0.0;
  double invert_s = 0.0;
  metrics::ArtifactCache::Stats cache;
  core::SweepResult sweep;
  core::Configuration config;
};

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool same_sweep(const core::SweepResult& a, const core::SweepResult& b) {
  if (a.points.size() != b.points.size()) return false;
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    const core::SweepPoint& p = a.points[i];
    const core::SweepPoint& q = b.points[i];
    if (!same_bits(p.parameter_value, q.parameter_value) ||
        !same_bits(p.privacy_mean, q.privacy_mean) ||
        !same_bits(p.privacy_stddev, q.privacy_stddev) ||
        !same_bits(p.utility_mean, q.utility_mean) ||
        !same_bits(p.utility_stddev, q.utility_stddev)) {
      return false;
    }
  }
  return true;
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// One load -> sweep -> fit -> invert pass at `threads` threads.
Pass run_pass(const std::string& path, std::size_t threads, SpanLog& spans) {
  SpanLog::Scope pass_span(spans, "pass");
  Pass p;
  const Clock::time_point t0 = Clock::now();
  const double cpu0 = self_cpu_seconds();
  trace::Dataset data;
  {
    SpanLog::Scope s(spans, "trace.load_dataset");
    data = trace::load_dataset(path);
  }
  const Clock::time_point t1 = Clock::now();
  const double cpu1 = self_cpu_seconds();
  core::Framework framework(core::make_geo_i_system(kSweepPoints));
  core::ExperimentConfig cfg;
  cfg.trials = kTrials;
  cfg.seed = kExperimentSeed;
  cfg.threads = threads;
  cfg.artifact_cache = std::make_shared<metrics::ArtifactCache>();
  {
    SpanLog::Scope s(spans, "core.model_phase");
    (void)framework.model_phase(data, cfg);
  }
  const Clock::time_point t2 = Clock::now();
  const double cpu2 = self_cpu_seconds();
  {
    SpanLog::Scope s(spans, "core.configure");
    p.config = framework.configure(kObjectives);
  }
  const Clock::time_point t3 = Clock::now();
  p.wall_s = seconds_between(t0, t3);
  p.cpu_s = self_cpu_seconds() - cpu0;
  p.load_s = seconds_between(t0, t1);
  p.model_s = seconds_between(t1, t2);
  p.model_cpu_s = cpu2 - cpu1;
  p.invert_s = seconds_between(t2, t3);
  p.cache = cfg.artifact_cache->stats();
  p.sweep = framework.sweep();
  return p;
}

/// Per-layer replay: every (point, trial) of the sweep at one thread
/// with the sweep's own derived seeds, timing each layer call. Returns
/// false when the replayed means and deviations differ from `reference`.
bool replay_layers(const std::string& path, const core::SweepResult& reference, Result& r,
                   SpanLog& spans) {
  SpanLog::Scope replay_span(spans, "replay");
  const trace::Dataset data = trace::load_dataset(path);
  const core::SystemDefinition system = core::make_geo_i_system(kSweepPoints);
  const std::vector<double> values = core::sweep_values(system.sweep);
  const auto actual_cache = std::make_shared<metrics::ArtifactCache>();
  double protect_s = 0.0;
  double privacy_s = 0.0;
  double utility_s = 0.0;
  bool same = values.size() == reference.points.size();
  for (std::size_t point = 0; point < values.size() && same; ++point) {
    const std::unique_ptr<lppm::Mechanism> mechanism = system.mechanism_factory();
    mechanism->set_parameter(system.sweep.parameter, values[point]);
    stats::OnlineMoments pr;
    stats::OnlineMoments ut;
    for (std::size_t trial = 0; trial < kTrials; ++trial) {
      const std::uint64_t seed =
          stats::derive_seed(stats::derive_seed(kExperimentSeed, point), trial);
      Clock::time_point t = Clock::now();
      trace::Dataset protected_data;
      {
        SpanLog::Scope s(spans, "lppm.protect_dataset");
        protected_data = mechanism->protect_dataset(data, seed);
      }
      protect_s += seconds_between(t, Clock::now());
      const metrics::EvalContext ctx(data, protected_data, actual_cache,
                                     std::make_shared<metrics::ArtifactCache>());
      t = Clock::now();
      {
        SpanLog::Scope s(spans, "metrics.privacy.evaluate");
        pr.add(system.privacy->evaluate(ctx));
      }
      privacy_s += seconds_between(t, Clock::now());
      t = Clock::now();
      {
        SpanLog::Scope s(spans, "metrics.utility.evaluate");
        ut.add(system.utility->evaluate(ctx));
      }
      utility_s += seconds_between(t, Clock::now());
    }
    const core::SweepPoint& ref = reference.points[point];
    same = same_bits(pr.mean(), ref.privacy_mean) && same_bits(pr.stddev(), ref.privacy_stddev) &&
           same_bits(ut.mean(), ref.utility_mean) && same_bits(ut.stddev(), ref.utility_stddev);
  }
  const double events = static_cast<double>(data.total_events());
  r.layer("lppm.protect_s", protect_s, "s");
  r.layer("lppm.protect_ns_per_event",
          protect_s * 1e9 / (events * static_cast<double>(values.size() * kTrials)), "ns");
  r.layer("metrics.privacy_eval_s", privacy_s, "s");
  r.layer("metrics.utility_eval_s", utility_s, "s");

  // The poi-retrieval metric's ground-truth extraction, over every actual
  // trace, without the cache in front of it.
  const auto* retrieval = dynamic_cast<const metrics::PoiRetrieval*>(system.privacy.get());
  const Clock::time_point t = Clock::now();
  std::size_t pois = 0;
  {
    SpanLog::Scope s(spans, "poi.extract_pois");
    for (const trace::Trace& tr : data) {
      pois += poi::extract_pois(tr, retrieval->config().ground_truth).size();
    }
  }
  r.layer("poi.extract_ms", seconds_between(t, Clock::now()) * 1e3, "ms");
  r.gate(pois > 0, "offline: the fleet has POIs to retrieve");
  return same;
}

}  // namespace

Result run_offline(const Options& opt, Host& host, SpanLog& spans) {
  Result r;
  const std::size_t drivers = opt.smoke ? 24 : 100;
  const std::size_t threads = static_cast<std::size_t>(host.nproc);
  const std::string path = "offline-" + std::to_string(opt.seed) + ".lpds";

  // Set-up: synthesize the seeded taxi fleet and write it as .lpds, a few
  // times over; the same seed must give the same bytes each time.
  std::vector<double> setup_times;
  std::string first_bytes;
  for (int i = 0; i < 11; ++i) {
    SpanLog::Scope s(spans, "setup");
    const Clock::time_point t0 = Clock::now();
    const trace::Dataset fleet = make_fleet(drivers, opt.seed);
    trace::save_store(path, *trace::TraceStore::from_dataset(fleet));
    setup_times.push_back(seconds_between(t0, Clock::now()));
    std::string bytes = file_bytes(path);
    if (i == 0) first_bytes = std::move(bytes);
    else r.gate(bytes == first_bytes, "offline: fleet synthesis is deterministic in the seed");
  }

  // Warm-up pass (page cache, allocator, lazy statics), then timed passes.
  const Pass warm = run_pass(path, threads, spans);
  r.gate(warm.config.feasible, "offline: objectives feasible (" + warm.config.diagnosis + ")");
  std::vector<Pass> passes;
  const Clock::time_point start = Clock::now();
  const std::size_t min_passes = opt.smoke ? 1 : 3;
  while (passes.size() < min_passes || seconds_between(start, Clock::now()) < opt.seconds) {
    passes.push_back(run_pass(path, threads, spans));
  }
  const double measured_s = seconds_between(start, Clock::now());
  const double peak_rss_mb = procstat::self_peak_rss_mb();

  std::vector<double> wall_ms, cpu_us, load_ms, model_s, invert_us, busy, hits, misses, hit_frac;
  for (const Pass& p : passes) {
    r.gate(same_sweep(p.sweep, warm.sweep), "offline: every pass sweeps bit-identically");
    r.gate(same_bits(p.config.recommended, warm.config.recommended),
           "offline: every pass recommends the same ε");
    wall_ms.push_back(p.wall_s * 1e3);
    cpu_us.push_back(p.cpu_s * 1e6);
    load_ms.push_back(p.load_s * 1e3);
    model_s.push_back(p.model_s);
    invert_us.push_back(p.invert_s * 1e6);
    busy.push_back(p.model_cpu_s / (p.model_s * static_cast<double>(threads)));
    hits.push_back(static_cast<double>(p.cache.hits));
    misses.push_back(static_cast<double>(p.cache.misses));
    hit_frac.push_back(p.cache.hit_rate());
  }

  // Gate: a 1-thread pass is bit-identical and recommends the same ε.
  const Pass single = run_pass(path, 1, spans);
  r.gate(same_sweep(single.sweep, warm.sweep), "offline: nproc-thread sweep equals 1-thread sweep");
  r.gate(same_bits(single.config.recommended, warm.config.recommended),
         "offline: 1-thread pass recommends the same ε");

  r.attempted = passes.size();
  r.failed = r.correct ? 0 : passes.size();
  r.e2e("setup_s", median(setup_times), "s");
  r.e2e("p50_ms", median(wall_ms), "ms");
  r.e2e("p99_ms", quantile(wall_ms, 0.99), "ms");
  r.e2e("cpu_us_per_op", median(cpu_us), "us");
  r.e2e("mem_mb", peak_rss_mb, "MB");
  std::printf("offline-configure: %zu drivers, %zu passes in %.2f s, recommended ε %.6g "
              "(predicted Pr %.4f, Ut %.4f)\n",
              drivers, passes.size(), measured_s, warm.config.recommended,
              warm.config.predicted_privacy, warm.config.predicted_utility);

  if (!opt.trace) return r;

  // Per-layer numbers for the traced run.
  const double fit_ms = [&] {
    std::vector<double> t;
    for (int i = 0; i < 200; ++i) {
      const Clock::time_point t0 = Clock::now();
      (void)core::fit_loglinear_model(warm.sweep);
      t.push_back(seconds_between(t0, Clock::now()) * 1e3);
    }
    return median(t);
  }();
  r.layer("trace.load_ms", median(load_ms), "ms");
  r.layer("core.sweep_s", median(model_s) - fit_ms / 1e3, "s");
  r.layer("core.fit_ms", fit_ms, "ms");
  r.layer("core.invert_us", median(invert_us), "us");
  r.layer("core.sweep_busy_frac", median(busy), "frac");
  r.layer("metrics.cache_hits", median(hits), "count");
  r.layer("metrics.cache_misses", median(misses), "count");
  r.layer("metrics.cache_hit_frac", median(hit_frac), "frac");
  r.layer("metrics.cache_redundant_builds",
          median(misses) - static_cast<double>(single.cache.misses), "count");
  r.gate(replay_layers(path, warm.sweep, r, spans),
         "offline: the 1-thread layer replay matches run_sweep");

  // Tracing overhead: spans were on for every timed pass; compare against
  // passes with the span log off.
  std::vector<double> untraced_ms;
  SpanLog off(false);
  for (std::size_t i = 0; i < std::min<std::size_t>(passes.size(), 3); ++i) {
    untraced_ms.push_back(run_pass(path, threads, off).wall_s * 1e3);
  }
  r.layer("tracing.overhead_frac", median(wall_ms) / median(untraced_ms) - 1.0, "frac");
  return r;
}

}  // namespace perfbench
