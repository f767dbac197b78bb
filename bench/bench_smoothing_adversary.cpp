// Ablation E: adversary strength and the configuration it implies.
//
// The paper's privacy metric uses a naive POI adversary that extracts
// stay points directly from the noisy data. A smoothing adversary
// averages a window of reports first, attenuating Geo-I's independent
// noise by ~sqrt(window), and retrieves more at the same epsilon. The
// bench sweeps both adversaries and reports how much stricter (smaller)
// the epsilon satisfying a fixed retrieval bound becomes when the model
// is calibrated against the stronger adversary — the gap a designer
// silently absorbs if they calibrate against the weak one.
#include <iostream>
#include <vector>

#include "attack/adaptive.h"
#include "attack/smoothing.h"
#include "bench_common.h"
#include "core/loglinear_model.h"
#include "io/table.h"
#include "lppm/geo_ind.h"
#include "metrics/metric.h"
#include "metrics/poi_retrieval.h"
#include "metrics/worst_case.h"
#include "stats/rng.h"

namespace {

using namespace locpriv;

/// Privacy metric wrapping the smoothing adversary.
class SmoothedPoiRetrieval final : public metrics::TraceMetric {
 public:
  explicit SmoothedPoiRetrieval(std::size_t window) { cfg_.window = window; }
  const std::string& name() const override {
    static const std::string kName = "poi-retrieval-smoothing";
    return kName;
  }
  metrics::Direction direction() const override {
    return metrics::Direction::kLowerIsMorePrivate;
  }
  double evaluate_trace(const metrics::EvalContext& ctx, std::size_t user) const override {
    return attack::run_smoothing_attack(ctx.trace(metrics::Side::kActual, user),
                                        ctx.trace(metrics::Side::kProtected, user), cfg_)
        .match.recall;
  }

 private:
  attack::SmoothingAttackConfig cfg_;
};

/// Privacy metric wrapping the noise-adaptive adversary.
class AdaptivePoiRetrieval final : public metrics::TraceMetric {
 public:
  const std::string& name() const override {
    static const std::string kName = "poi-retrieval-adaptive";
    return kName;
  }
  metrics::Direction direction() const override {
    return metrics::Direction::kLowerIsMorePrivate;
  }
  double evaluate_trace(const metrics::EvalContext& ctx, std::size_t user) const override {
    return attack::run_adaptive_attack(ctx.trace(metrics::Side::kActual, user),
                                       ctx.trace(metrics::Side::kProtected, user),
                                       attack::AdaptiveAttackConfig{})
        .match.recall;
  }
};

}  // namespace

int main() {
  bench::Verdicts verdicts;
  std::cout << "=== Ablation E: naive vs smoothing vs adaptive POI adversary ===\n\n";

  const trace::Dataset data = bench::standard_taxi_dataset();

  struct Adversary {
    const char* label;
    std::shared_ptr<const metrics::Metric> metric;
  };
  const std::vector<Adversary> adversaries = {
      {"naive (paper's)", std::make_shared<metrics::PoiRetrieval>()},
      {"adaptive tolerance", std::make_shared<AdaptivePoiRetrieval>()},
      {"smoothing w=5", std::make_shared<SmoothedPoiRetrieval>(5)},
      {"smoothing w=15", std::make_shared<SmoothedPoiRetrieval>(15)},
      {"worst-case ensemble", std::make_shared<metrics::WorstCasePoiRetrieval>()},
  };

  io::Table table({"adversary", "Pr at eps=0.01", "Pr at eps=0.02", "eps for Pr<=0.5",
                   "model R^2"});
  std::vector<double> eps_bounds;
  for (const Adversary& adv : adversaries) {
    core::SystemDefinition def = bench::paper_system(21);
    def.privacy = adv.metric;
    core::ExperimentConfig cfg = bench::standard_experiment();
    cfg.trials = 2;
    const core::SweepResult sweep = core::run_sweep(def, data, cfg);
    const core::LppmModel model = core::fit_loglinear_model(sweep);

    auto pr_at = [&](double eps) {
      if (eps < model.privacy.param_low) return std::string("~0 (saturated)");
      if (eps > model.privacy.param_high) return std::string("sat.");
      return io::Table::num(model.privacy.predict(eps, model.scale), 3);
    };
    std::string eps_str = "-";
    if (model.privacy.metric_reachable(0.5)) {
      const double eps_bound = model.privacy.invert(0.5, model.scale);
      eps_bounds.push_back(eps_bound);
      eps_str = io::Table::num(eps_bound, 3);
    }
    table.add_row({adv.label, pr_at(0.01), pr_at(0.02), eps_str,
                   io::Table::num(model.privacy.fit.r_squared, 3)});
  }
  table.print(std::cout);

  std::cout << "\nreading: against a smoothing adversary the same retrieval bound\n"
               "requires a smaller epsilon (more noise). Calibrating with the naive\n"
               "metric and deploying against a smoothing adversary over-promises.\n";
  if (eps_bounds.size() >= 2) {
    std::cout << "epsilon tightening (naive -> strongest adversary): "
              << io::Table::num(eps_bounds.front(), 3) << " -> "
              << io::Table::num(eps_bounds.back(), 3) << " ("
              << io::Table::num(eps_bounds.front() / eps_bounds.back(), 3) << "x)\n";
    std::cout << "adversary-strength check (stronger adversaries tighten epsilon): "
              << verdicts.check(eps_bounds.back() <= eps_bounds.front() * 1.05) << "\n";
  }
  return verdicts.exit_code();
}
