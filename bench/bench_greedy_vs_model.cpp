// Ablation A: formal-model configuration (this paper) vs ALP-style
// greedy search (the prior art the paper contrasts itself with).
//
// The model approach pays one offline sweep, then answers every
// configuration query by algebraic inversion (zero further evaluations).
// The greedy baseline pays per query. The bench reports evaluation
// counts and achieved objectives for a batch of designer queries, and
// the break-even query count.
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "core/greedy.h"
#include "core/loglinear_model.h"
#include "io/table.h"

int main() {
  using namespace locpriv;
  bench::Verdicts verdicts;
  using core::Axis;
  using core::Sense;

  std::cout << "=== Ablation A: model inversion vs greedy (ALP-style) search ===\n\n";

  const trace::Dataset data = bench::standard_taxi_dataset();
  core::SystemDefinition system = bench::paper_system();

  // --- Offline phase of the model approach: one sweep. ---
  const core::ExperimentConfig exp_cfg = bench::standard_experiment();
  core::Framework framework(bench::paper_system());
  framework.model_phase(data, exp_cfg);
  const core::LppmModel& model = framework.model();
  const std::size_t sweep_evaluations = system.sweep.point_count;  // dataset protections (x trials)

  // --- A batch of designer queries spanning the fitted span. ---
  const double pr_lo = std::min(model.privacy.metric_at_low, model.privacy.metric_at_high);
  const double pr_hi = std::max(model.privacy.metric_at_low, model.privacy.metric_at_high);
  std::vector<double> query_targets;
  for (const double frac : {0.2, 0.35, 0.5, 0.65, 0.8}) {
    query_targets.push_back(pr_lo + frac * (pr_hi - pr_lo));
  }

  io::Table table({"query (Pr <=, Ut >=)", "model eps", "model evals", "greedy eps",
                   "greedy evals", "greedy met?"});
  std::size_t greedy_total = 0;
  for (const double target : query_targets) {
    // The model answers the privacy-only query and, for free, tells us
    // the best achievable utility. The greedy baseline must then find a
    // point meeting the *joint* objective (privacy bound + nearly that
    // utility) — the actual designer task; a privacy bound alone is
    // trivially met by over-noising.
    const std::vector<core::Objective> privacy_only{{Axis::kPrivacy, Sense::kAtMost, target}};
    const core::Configuration cfg = framework.configure(privacy_only);
    if (!cfg.feasible) continue;
    const double utility_floor = cfg.predicted_utility - 0.05;
    const std::vector<core::Objective> joint{
        {Axis::kPrivacy, Sense::kAtMost, target},
        {Axis::kUtility, Sense::kAtLeast, utility_floor},
    };

    core::GreedyConfig gcfg;
    gcfg.max_iterations = 20;
    gcfg.trials_per_evaluation = exp_cfg.trials;
    const core::GreedyResult greedy = core::greedy_configure(system, data, joint, gcfg);
    greedy_total += greedy.evaluations;

    table.add_row({io::Table::num(target, 3) + ", " + io::Table::num(utility_floor, 3),
                   io::Table::num(cfg.recommended, 3), "0",
                   io::Table::num(greedy.parameter_value, 3),
                   std::to_string(greedy.evaluations), greedy.converged ? "yes" : "no"});
  }
  table.print(std::cout);

  std::cout << "\nmodel approach: " << sweep_evaluations
            << " sweep evaluations once, then 0 per query\n";
  std::cout << "greedy approach: " << greedy_total << " evaluations for "
            << query_targets.size() << " queries ("
            << io::Table::num(static_cast<double>(greedy_total) /
                                  static_cast<double>(query_targets.size()),
                              3)
            << " per query)\n";
  const double breakeven = static_cast<double>(sweep_evaluations) /
                           (static_cast<double>(greedy_total) /
                            static_cast<double>(query_targets.size()));
  std::cout << "break-even: the sweep amortizes after ~" << io::Table::num(breakeven, 2)
            << " configuration queries\n";
  std::cout << "paper's claim (formal model beats per-query greedy once reused): "
            << verdicts.check(breakeven <= static_cast<double>(query_targets.size())) << "\n";
  return verdicts.exit_code();
}
