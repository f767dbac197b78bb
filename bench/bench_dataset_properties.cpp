// Ablation C (step 1 support): dataset properties d_i and their
// PCA-based selection, plus the multi-input response surface
// (Pr, Ut) = f(eps, d_1..d_m) of Eq. 1 fitted across datasets.
//
// Part 1 profiles heterogeneous synthetic datasets and ranks candidate
// properties by PCA importance. Part 2 fits one response surface over
// sweeps of several datasets and shows it transfers: inverting the
// surface for a held-out dataset's measured properties recovers a
// sensible epsilon without re-sweeping that dataset.
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "core/profiler.h"
#include "core/response_surface.h"
#include "io/table.h"

int main() {
  using namespace locpriv;
  bench::Verdicts verdicts;

  std::cout << "=== Ablation C: dataset properties, PCA selection, response surface ===\n\n";

  // --- Part 1: heterogeneous population, PCA ranking. ---
  synth::TaxiScenarioConfig taxi_cfg;
  taxi_cfg.driver_count = 10;
  const trace::Dataset taxis = synth::make_taxi_dataset(taxi_cfg, 1);

  synth::CommuterScenarioConfig commuter_cfg;
  commuter_cfg.user_count = 10;
  commuter_cfg.commuter.days = 1;
  const trace::Dataset commuters = synth::make_commuter_dataset(commuter_cfg, 2);

  trace::Dataset mixed;
  for (const trace::Trace& t : taxis) mixed.add(t);
  for (const trace::Trace& t : commuters) mixed.add(t);

  std::cout << "candidate per-user properties, ranked by PCA importance\n"
               "(mixed population: 10 taxis + 10 commuters):\n\n";
  io::Table ranking({"rank", "property", "importance"});
  const auto ranked = core::rank_properties(mixed);
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    ranking.add_row({std::to_string(i + 1), ranked[i].name,
                     io::Table::num(ranked[i].importance, 3)});
  }
  ranking.print(std::cout);

  // --- Part 2: response surface across datasets of varying density. ---
  std::cout << "\nresponse surface (Pr, Ut) = f(ln eps, site_density) across datasets:\n\n";

  // Datasets with different city densities -> different POI geometry.
  std::vector<trace::Dataset> datasets;
  std::vector<double> densities;
  for (const std::size_t sites : {20u, 60u, 140u}) {
    synth::TaxiScenarioConfig cfg;
    cfg.driver_count = 8;
    cfg.city.site_count = sites;
    datasets.push_back(synth::make_taxi_dataset(cfg, 100 + sites));
    densities.push_back(static_cast<double>(sites));
  }

  std::vector<core::SurfaceObservation> observations;
  core::ExperimentConfig exp = bench::standard_experiment();
  exp.trials = 2;
  for (std::size_t d = 0; d < datasets.size(); ++d) {
    core::SystemDefinition def = bench::paper_system(15);
    const core::SweepResult sweep = core::run_sweep(def, datasets[d], exp);
    for (const core::SweepPoint& p : sweep.points) {
      observations.push_back({p.parameter_value, {densities[d]}, p.privacy_mean, p.utility_mean});
    }
  }
  const core::ResponseSurface surface = core::fit_response_surface(
      observations, {"site_density"}, "epsilon", lppm::Scale::kLog);

  io::Table coef({"axis", "intercept", "ln(eps) coeff", "density coeff", "R^2"});
  coef.add_row({"privacy", io::Table::num(surface.privacy.beta[0], 3),
                io::Table::num(surface.privacy.beta[1], 3),
                io::Table::num(surface.privacy.beta[2], 4),
                io::Table::num(surface.privacy.r_squared, 3)});
  coef.add_row({"utility", io::Table::num(surface.utility.beta[0], 3),
                io::Table::num(surface.utility.beta[1], 3),
                io::Table::num(surface.utility.beta[2], 4),
                io::Table::num(surface.utility.r_squared, 3)});
  coef.print(std::cout);

  // Transfer test: held-out dataset (density 100), configure for a
  // mid-span privacy target via surface inversion, measure the reality.
  synth::TaxiScenarioConfig held_cfg;
  held_cfg.driver_count = 8;
  held_cfg.city.site_count = 100;
  const trace::Dataset held_out = synth::make_taxi_dataset(held_cfg, 777);

  const double target_pr = 0.5;
  const double eps = surface.invert(core::Axis::kPrivacy, target_pr, {100.0});
  core::SystemDefinition def = bench::paper_system(15);
  const core::SweepPoint measured = core::evaluate_point(def, held_out, eps, 3, 31337);

  std::cout << "\ntransfer to held-out dataset (density 100, never swept):\n";
  std::cout << "  target Pr = " << io::Table::num(target_pr, 3)
            << " -> surface gives eps = " << io::Table::num(eps, 3)
            << " -> measured Pr = " << io::Table::num(measured.privacy_mean, 3) << "\n";
  const bool transfer_ok = std::abs(measured.privacy_mean - target_pr) < 0.2;
  std::cout << "transfer check (|measured - target| < 0.2): " << verdicts.check(transfer_ok)
            << "\n";
  return verdicts.exit_code();
}
