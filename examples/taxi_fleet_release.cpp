// Scenario: a taxi company wants to publish a mobility dataset (the
// paper's San Francisco cab setting). Policy: an attacker must not
// recover drivers' recurring stops, but city-block-level coverage has to
// stay usable for traffic analysis.
//
// The example runs the whole release workflow:
//   - profile the raw dataset (step 1: dataset properties),
//   - calibrate Geo-I with the framework (steps 2-3),
//   - protect and export the dataset as CSV,
//   - audit the release with the POI and re-identification attacks.
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "attack/reident.h"
#include "core/pipeline.h"
#include "core/profiler.h"
#include "io/table.h"
#include "metrics/poi_retrieval.h"
#include "synth/scenario.h"
#include "trace/trace_io.h"

int main() {
  using namespace locpriv;

  // --- The raw fleet data (synthetic stand-in for cabspotting). ---
  synth::TaxiScenarioConfig scenario;
  scenario.driver_count = 10;
  const trace::Dataset raw = synth::make_taxi_dataset(scenario, 99);
  std::cout << "fleet: " << raw.size() << " drivers, " << raw.total_events() << " reports, "
            << "extent " << raw.bounds().diagonal() / 1000.0 << " km\n\n";

  // --- Step 1: what properties of this dataset matter? ---
  std::cout << "top dataset properties by PCA importance:\n";
  const auto ranked = core::rank_properties(raw);
  for (std::size_t i = 0; i < 3 && i < ranked.size(); ++i) {
    std::cout << "  " << (i + 1) << ". " << ranked[i].name << "\n";
  }

  // --- Steps 2-3: calibrate epsilon against release policy. ---
  core::Framework framework(core::make_geo_i_system(21));
  core::ExperimentConfig experiment;
  experiment.trials = 2;
  framework.model_phase(raw, experiment);

  const std::vector<core::Objective> policy{
      {core::Axis::kPrivacy, core::Sense::kAtMost, 0.30},  // <=30 % POIs retrievable
  };
  const core::Configuration cfg = framework.configure(policy);
  if (!cfg.feasible) {
    std::cerr << "release policy infeasible: " << cfg.diagnosis << "\n";
    return 1;
  }
  std::cout << "\ncalibrated epsilon = " << cfg.recommended << " (predicted retrieval "
            << cfg.predicted_privacy << ", coverage " << cfg.predicted_utility << ")\n";

  // --- Protect and export. ---
  const auto mechanism = framework.configure_mechanism(policy);
  const trace::Dataset release = mechanism->protect_dataset(raw, /*seed=*/20'16);
  std::ostringstream csv;
  trace::write_dataset_csv(csv, release);
  std::cout << "release CSV: " << csv.str().size() / 1024 << " KiB (schema user,timestamp,x,y)\n";

  // --- Audit the actual release with the attacks. ---
  const metrics::PoiRetrieval poi_metric;
  const double measured_retrieval = poi_metric.evaluate(metrics::EvalContext(raw, release));

  const attack::ReidentConfig reident_cfg;
  const double reident_rate = attack::run_reident_attack(raw, release, reident_cfg).accuracy;

  io::Table audit({"audit check", "value", "verdict"});
  audit.add_row({"POI retrieval (policy <= 0.30)", io::Table::num(measured_retrieval, 3),
                 measured_retrieval <= 0.30 + 0.1 ? "ok" : "VIOLATION"});
  audit.add_row({"re-identification rate", io::Table::num(reident_rate, 3),
                 reident_rate < 1.0 ? "reduced" : "UNPROTECTED"});
  audit.print(std::cout);

  std::cout << "\nrelease " << (measured_retrieval <= 0.40 ? "APPROVED" : "REJECTED")
            << " under the configured policy.\n";
  return 0;
}
