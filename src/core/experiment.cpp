#include "core/experiment.h"

#include <atomic>
#include <cmath>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/tracer.h"
#include "stats/online.h"
#include "stats/rng.h"

namespace locpriv::core {

std::vector<double> SweepResult::parameter_values() const {
  std::vector<double> v;
  v.reserve(points.size());
  for (const SweepPoint& p : points) v.push_back(p.parameter_value);
  return v;
}

std::vector<double> SweepResult::privacy_values() const {
  std::vector<double> v;
  v.reserve(points.size());
  for (const SweepPoint& p : points) v.push_back(p.privacy_mean);
  return v;
}

std::vector<double> SweepResult::utility_values() const {
  std::vector<double> v;
  v.reserve(points.size());
  for (const SweepPoint& p : points) v.push_back(p.utility_mean);
  return v;
}

std::vector<double> SweepResult::model_xs() const {
  std::vector<double> v;
  v.reserve(points.size());
  for (const SweepPoint& p : points) v.push_back(model_x(p.parameter_value, scale));
  return v;
}

namespace {

/// One trial's raw metric values — the unit the flattened scheduler
/// moves between threads before the ordered reduction.
struct TrialOutcome {
  double privacy = 0.0;       ///< whole-set Pr, or test-side Pr under a split
  double utility = 0.0;
  double privacy_train = 0.0; ///< train-side Pr; only written under a split
};

/// Protects and scores `data` one user at a time: user u's trace is
/// protected under derive_seed(seed, u), exactly as
/// Mechanism::protect_dataset does, scored for privacy and then utility
/// through a per-user context, handed to `on_user(u, privacy, utility)`
/// and dropped. So at most one protected trace is alive per call, while
/// `protected_cache` (if any) shares derivations between the two
/// metrics. Throws std::invalid_argument when the mechanism changes a
/// user id, as require_paired does on the whole-dataset path.
template <typename OnUser>
void score_users(const metrics::TraceMetric& privacy_metric,
                 const metrics::TraceMetric& utility_metric, const lppm::Mechanism& mechanism,
                 const trace::Dataset& data, std::uint64_t seed,
                 const std::shared_ptr<metrics::ArtifactCache>& actual_cache,
                 const std::shared_ptr<metrics::ArtifactCache>& protected_cache,
                 OnUser&& on_user) {
  for (std::size_t u = 0; u < data.size(); ++u) {
    const trace::Trace protected_trace = [&] {
      obs::Span protect_span("lppm", "protect_dataset");
      protect_span.arg("user", static_cast<double>(u));
      return mechanism.protect(data[u], stats::derive_seed(seed, u));
    }();
    if (protected_trace.user_id() != data[u].user_id()) {
      throw std::invalid_argument("metric: user mismatch at index " + std::to_string(u) + " ('" +
                                  data[u].user_id() + "' vs '" + protected_trace.user_id() +
                                  "')");
    }
    const metrics::EvalContext ctx(data, u, protected_trace, actual_cache, protected_cache);
    double privacy = 0.0;
    double utility = 0.0;
    {
      obs::Span eval_span("metrics", privacy_metric.name());
      privacy = privacy_metric.evaluate_trace(ctx, u);
    }
    {
      obs::Span eval_span("metrics", utility_metric.name());
      utility = utility_metric.evaluate_trace(ctx, u);
    }
    on_user(u, privacy, utility);
  }
}

/// Protects the dataset under `trial_seed` and scores both metrics.
/// Pure in (mechanism, data, trial_seed): safe to run concurrently for
/// different trials against a shared const mechanism and a shared
/// (thread-safe) actual-side cache.
///
/// With two trace-level metrics and no split the trial streams: it runs
/// score_users and takes each mean as sum / n in user order, the same
/// arithmetic as TraceMetric::evaluate, so results are bit-identical to
/// scoring a whole protected dataset while holding one protected trace.
///
/// Otherwise the trial protects the whole dataset first. With `splits`
/// non-empty, privacy is scored per side: the attacker fits on each
/// split's train users (metrics see the SplitView through the context)
/// and every side's value is the test/train-size-weighted mean over
/// folds — for trace-level metrics that equals scoring each user
/// exactly once while held out. The full dataset is still protected as
/// a whole, so per-user noise streams (and hence utility) are identical
/// with and without a split.
TrialOutcome run_trial(const SystemDefinition& system, const lppm::Mechanism& mechanism,
                       const trace::Dataset& data, std::uint64_t trial_seed,
                       std::size_t trial_index,
                       const std::shared_ptr<metrics::ArtifactCache>& actual_cache,
                       std::span<const UserSplit> splits) {
  obs::Span trial_span("core", "trial");
  trial_span.arg("trial", static_cast<double>(trial_index));
  // The protected data is unique to this trial, so its cache lives and
  // dies here — it only shares derivations between the two metrics.
  const std::shared_ptr<metrics::ArtifactCache> protected_cache =
      actual_cache != nullptr ? std::make_shared<metrics::ArtifactCache>() : nullptr;
  TrialOutcome out;
  const auto* privacy = dynamic_cast<const metrics::TraceMetric*>(system.privacy.get());
  const auto* utility = dynamic_cast<const metrics::TraceMetric*>(system.utility.get());
  if (splits.empty() && privacy != nullptr && utility != nullptr) {
    if (data.empty()) throw std::invalid_argument("metric: empty dataset");
    double privacy_sum = 0.0;
    double utility_sum = 0.0;
    score_users(*privacy, *utility, mechanism, data, trial_seed, actual_cache, protected_cache,
                [&](std::size_t, double pr, double ut) {
                  privacy_sum += pr;
                  utility_sum += ut;
                });
    out.privacy = privacy_sum / static_cast<double>(data.size());
    out.utility = utility_sum / static_cast<double>(data.size());
    return out;
  }
  const trace::Dataset protected_data = [&] {
    obs::Span protect_span("lppm", "protect_dataset");
    return mechanism.protect_dataset(data, trial_seed);
  }();
  const metrics::EvalContext ctx(data, protected_data, actual_cache, protected_cache);
  if (splits.empty()) {
    obs::Span eval_span("metrics", system.privacy->name());
    out.privacy = system.privacy->evaluate(ctx);
  } else {
    obs::Span eval_span("metrics", system.privacy->name());
    eval_span.arg("folds", static_cast<double>(splits.size()));
    double test_sum = 0.0;
    double train_sum = 0.0;
    std::size_t test_n = 0;
    std::size_t train_n = 0;
    for (const UserSplit& s : splits) {
      const metrics::SplitView view{s.train, s.test, s.id()};
      metrics::EvalContext split_ctx(data, protected_data, actual_cache, protected_cache);
      split_ctx.set_split(&view);
      test_sum += system.privacy->evaluate_on(split_ctx, s.test) *
                  static_cast<double>(s.test.size());
      train_sum += system.privacy->evaluate_on(split_ctx, s.train) *
                   static_cast<double>(s.train.size());
      test_n += s.test.size();
      train_n += s.train.size();
    }
    out.privacy = test_sum / static_cast<double>(test_n);
    out.privacy_train = train_sum / static_cast<double>(train_n);
  }
  {
    obs::Span eval_span("metrics", system.utility->name());
    out.utility = system.utility->evaluate(ctx);
  }
  return out;
}

/// Ordered reduction: trial outcomes fold into the Welford accumulators
/// in trial-index order regardless of which thread produced them, so
/// means and stddevs are bit-identical to a sequential run.
SweepPoint reduce_point(double parameter_value, std::span<const TrialOutcome> outcomes,
                        bool has_split) {
  stats::OnlineMoments pr;
  stats::OnlineMoments ut;
  stats::OnlineMoments pr_train;
  for (const TrialOutcome& t : outcomes) {
    pr.add(t.privacy);
    ut.add(t.utility);
    if (has_split) pr_train.add(t.privacy_train);
  }
  SweepPoint point;
  point.parameter_value = parameter_value;
  point.privacy_mean = pr.mean();
  point.privacy_stddev = outcomes.size() >= 2 ? pr.stddev() : 0.0;
  point.utility_mean = ut.mean();
  point.utility_stddev = outcomes.size() >= 2 ? ut.stddev() : 0.0;
  if (has_split) {
    point.has_split = true;
    point.privacy_train_mean = pr_train.mean();
    point.privacy_train_stddev = outcomes.size() >= 2 ? pr_train.stddev() : 0.0;
  }
  return point;
}

/// Runs `task_count` tasks on `threads` workers (work-stealing over an
/// atomic cursor), capturing the first exception. Slot writes keep the
/// outcome schedule-invariant; callers reduce in index order afterwards.
template <typename Task>
void run_task_pool(std::size_t task_count, std::size_t threads, Task&& task) {
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= task_count || failed.load()) return;
      try {
        task(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        failed.store(true);
        return;
      }
    }
  };
  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::jthread> pool;
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
  }
  if (first_error) std::rethrow_exception(first_error);
}

std::size_t resolve_threads(std::size_t requested, std::size_t task_count) {
  std::size_t threads = requested != 0 ? requested : std::thread::hardware_concurrency();
  if (threads == 0) threads = 1;
  return std::min(threads, task_count);
}

}  // namespace

SweepPoint evaluate_point(const SystemDefinition& system, const trace::Dataset& data,
                          double parameter_value, std::size_t trials, std::uint64_t seed,
                          const std::shared_ptr<metrics::ArtifactCache>& actual_cache,
                          std::size_t threads, std::span<const UserSplit> splits) {
  if (trials == 0) throw std::invalid_argument("evaluate_point: need at least one trial");
  obs::Span point_span("core", "evaluate_point");
  point_span.arg("value", parameter_value).arg("trials", static_cast<double>(trials));
  const std::unique_ptr<lppm::Mechanism> mechanism = system.mechanism_factory();
  mechanism->set_parameter(system.sweep.parameter, parameter_value);

  std::vector<TrialOutcome> outcomes(trials);
  run_task_pool(trials, resolve_threads(threads, trials), [&](std::size_t trial) {
    outcomes[trial] = run_trial(system, *mechanism, data, stats::derive_seed(seed, trial), trial,
                                actual_cache, splits);
  });
  return reduce_point(parameter_value, outcomes, !splits.empty());
}

std::vector<PerUserPoint> evaluate_point_per_user(const SystemDefinition& system,
                                                  const trace::Dataset& data,
                                                  double parameter_value, std::uint64_t seed) {
  const auto* privacy = dynamic_cast<const metrics::TraceMetric*>(system.privacy.get());
  const auto* utility = dynamic_cast<const metrics::TraceMetric*>(system.utility.get());
  if (privacy == nullptr || utility == nullptr) {
    throw std::invalid_argument(
        "evaluate_point_per_user: both metrics must be trace-level (per-user); "
        "dataset-level metrics have no per-user decomposition");
  }
  const std::unique_ptr<lppm::Mechanism> mechanism = system.mechanism_factory();
  mechanism->set_parameter(system.sweep.parameter, parameter_value);
  std::vector<PerUserPoint> out;
  out.reserve(data.size());
  score_users(*privacy, *utility, *mechanism, data, seed, nullptr, nullptr,
              [&](std::size_t u, double pr, double ut) {
                out.push_back({data[u].user_id(), pr, ut});
              });
  return out;
}

SweepResult run_sweep(const SystemDefinition& system, const trace::Dataset& data,
                      const ExperimentConfig& config) {
  system.validate();
  if (data.empty()) throw std::invalid_argument("run_sweep: empty dataset");
  if (config.trials == 0) throw std::invalid_argument("run_sweep: need at least one trial");

  const std::vector<double> values = sweep_values(system.sweep);
  obs::Span sweep_span("core", "run_sweep");
  sweep_span.arg("points", static_cast<double>(values.size()))
      .arg("parameter", system.sweep.parameter);

  SweepResult result;
  {
    const std::unique_ptr<lppm::Mechanism> probe = system.mechanism_factory();
    result.mechanism_name = probe->name();
  }
  result.parameter = system.sweep.parameter;
  result.scale = system.sweep.scale;
  result.privacy_metric = system.privacy->name();
  result.utility_metric = system.utility->name();
  result.privacy_direction = system.privacy->direction();
  result.utility_direction = system.utility->direction();
  result.points.resize(values.size());

  // Partition users up front (pure in (user count, spec)): every
  // (point, trial) task scores the same folds, so the split never
  // depends on scheduling. Empty when splits are off.
  const std::vector<UserSplit> splits = make_splits(data.size(), config.split);
  result.split = config.split;
  if (!splits.empty()) {
    std::vector<bool> in_train(data.size(), false);
    std::vector<bool> in_test(data.size(), false);
    for (const UserSplit& s : splits) {
      for (const std::size_t u : s.train) in_train[u] = true;
      for (const std::size_t u : s.test) in_test[u] = true;
    }
    for (std::size_t u = 0; u < data.size(); ++u) {
      result.split_train_users += in_train[u] ? 1 : 0;
      result.split_test_users += in_test[u] ? 1 : 0;
    }
  }

  // Flattened work units: one task per (point, trial), not per point.
  // With the old per-point units a 5-point sweep left most of an 8-core
  // pool idle; the flat grid keeps every worker busy until the tail.
  const std::size_t trials = config.trials;
  const std::size_t task_count = values.size() * trials;
  const std::size_t threads = resolve_threads(config.threads, task_count);
  sweep_span.arg("threads", static_cast<double>(threads))
      .arg("tasks", static_cast<double>(task_count));

  // One actual-side cache for the whole sweep: the actual dataset never
  // changes, so staypoints/POIs/rasters are derived once and shared by
  // every point, trial, metric, and worker thread.
  std::shared_ptr<metrics::ArtifactCache> actual_cache = config.artifact_cache;
  if (actual_cache == nullptr && config.use_artifact_cache) {
    actual_cache = std::make_shared<metrics::ArtifactCache>();
  }

  // One mechanism per point (same factory-call count as the old
  // per-point path), shared read-only by that point's trial tasks.
  std::vector<std::unique_ptr<lppm::Mechanism>> mechanisms;
  mechanisms.reserve(values.size());
  for (const double value : values) {
    mechanisms.push_back(system.mechanism_factory());
    mechanisms.back()->set_parameter(system.sweep.parameter, value);
  }

  // Each (point, trial) derives the seed the old nested loops produced —
  // derive_seed(derive_seed(root, point), trial) — and writes its own
  // slot, so the outcome is schedule-invariant.
  std::vector<TrialOutcome> outcomes(task_count);
  run_task_pool(task_count, threads, [&](std::size_t task) {
    const std::size_t point = task / trials;
    const std::size_t trial = task % trials;
    const std::uint64_t trial_seed =
        stats::derive_seed(stats::derive_seed(config.seed, point), trial);
    outcomes[task] =
        run_trial(system, *mechanisms[point], data, trial_seed, trial, actual_cache, splits);
  });

  // Ordered reduction, point by point, trials in index order.
  for (std::size_t i = 0; i < values.size(); ++i) {
    obs::Span point_span("core", "evaluate_point");
    point_span.arg("value", values[i]).arg("trials", static_cast<double>(trials));
    result.points[i] =
        reduce_point(values[i], std::span<const TrialOutcome>(outcomes).subspan(i * trials, trials),
                     !splits.empty());
  }
  return result;
}

}  // namespace locpriv::core
