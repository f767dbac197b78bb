// Ablation B (the paper's "future work: testing other LPPMs"): the
// framework is mechanism-agnostic. Run the identical three-step pipeline
// over every spatial mechanism in the zoo, sweeping each one's own knob,
// and report the fitted invertible model per mechanism.
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/loglinear_model.h"
#include "core/tradeoff.h"
#include "io/table.h"
#include "lppm/registry.h"
#include "metrics/area_coverage.h"
#include "metrics/poi_retrieval.h"

int main() {
  using namespace locpriv;
  bench::Verdicts verdicts;

  std::cout << "=== Ablation B: the framework across different LPPMs ===\n\n";

  const trace::Dataset data = bench::standard_taxi_dataset();

  struct Target {
    const char* mechanism;
    const char* parameter;
    double lo, hi;  // responsive sweep range (within declared bounds)
    bool privacy_increases_with_param;  // expected slope sign for Pr
  };
  // For noise-style knobs (eps) privacy *retrieval* grows with the
  // parameter; for size-style knobs (cell, alpha, sigma) it shrinks.
  const Target targets[] = {
      {"geo-indistinguishability", "epsilon", 1e-4, 1.0, true},
      {"gaussian-perturbation", "sigma", 1.0, 20'000.0, false},
      {"grid-cloaking", "cell_size", 10.0, 20'000.0, false},
      {"promesse", "alpha", 10.0, 5'000.0, false},
  };

  // Rows wait for every sweep: the AUCs are scored in one frame, the
  // union of all the sweeps' points, so the column ranks mechanisms.
  std::vector<std::vector<std::string>> rows;
  std::vector<std::vector<core::TradeoffPoint>> curves;
  std::vector<std::size_t> curve_rows;
  bool all_signs_ok = true;
  for (const Target& t : targets) {
    core::SystemDefinition def;
    const std::string mech_name = t.mechanism;
    def.mechanism_factory = [mech_name] { return lppm::create_mechanism(mech_name); };
    def.sweep = {t.parameter, t.lo, t.hi, 21, lppm::Scale::kLog};
    def.privacy = std::make_shared<metrics::PoiRetrieval>();
    def.utility = std::make_shared<metrics::AreaCoverage>();

    core::ExperimentConfig cfg = bench::standard_experiment();
    cfg.trials = 2;
    try {
      const core::SweepResult sweep = core::run_sweep(def, data, cfg);
      // Scored even if the fit throws: the error row takes this index.
      curves.push_back(core::to_tradeoff_points(sweep));
      curve_rows.push_back(rows.size());
      const core::LppmModel model = core::fit_loglinear_model(sweep);
      const bool sign_ok =
          (model.privacy.fit.slope > 0.0) == t.privacy_increases_with_param;
      all_signs_ok = all_signs_ok && sign_ok;
      rows.push_back({t.mechanism, t.parameter, io::Table::num(model.privacy.fit.slope, 3),
                      io::Table::num(model.privacy.fit.r_squared, 3),
                      io::Table::num(model.utility.fit.slope, 3),
                      io::Table::num(model.utility.fit.r_squared, 3),
                      "[" + io::Table::num(model.param_low, 2) + ", " +
                          io::Table::num(model.param_high, 2) + "]",
                      "-", sign_ok ? "ok" : "UNEXPECTED"});
    } catch (const std::exception& e) {
      rows.push_back({t.mechanism, t.parameter, "-", "-", "-", "-", e.what(), "-", "-"});
      all_signs_ok = false;
    }
  }
  try {
    const std::vector<double> auc = core::tradeoff_auc(curves);
    for (std::size_t i = 0; i < auc.size(); ++i) {
      rows[curve_rows[i]][7] = io::Table::num(auc[i], 3);
    }
  } catch (const std::invalid_argument&) {
    // no sweep ran, or all are flat on one axis: no frame, AUCs stay "-"
  }
  io::Table table({"mechanism", "parameter", "Pr slope", "Pr R^2", "Ut slope", "Ut R^2",
                   "valid range", "tradeoff AUC", "slope sign"});
  for (std::vector<std::string>& row : rows) table.add_row(std::move(row));
  table.print(std::cout);

  std::cout << "\nreading: each mechanism gets its own invertible (Pr, Ut) = f(ln p) model\n"
               "from one generic pipeline — no mechanism-specific modeling code.\n";
  std::cout << "slope-direction check across mechanisms: " << verdicts.check(all_signs_ok)
            << "\n";
  return verdicts.exit_code();
}
