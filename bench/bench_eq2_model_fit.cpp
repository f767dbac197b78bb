// Equation 2 reproduction — the poster's "table": the coefficients of
// the invertible log-linear model fitted on the non-saturated interval,
//
//   Pr = a + b·ln(eps),   Ut = alpha + beta·ln(eps)
//   paper (cabspotting): a = 0.84, b = 0.17, alpha = 1.21, beta = 0.09
//
// Our absolute coefficients come from a synthetic workload, so they need
// not match the paper's numerically; what must hold is the structure:
// positive slopes, high R^2 on the active interval, and a consistent
// worked example (see bench_config_case_study).
#include <iostream>

#include "bench_common.h"
#include "core/loglinear_model.h"
#include "core/refinement.h"
#include "io/table.h"

int main() {
  using namespace locpriv;
  bench::Verdicts verdicts;

  std::cout << "=== Equation 2: fitted log-linear model coefficients ===\n\n";

  const trace::Dataset data = bench::standard_taxi_dataset();
  const core::SystemDefinition system = bench::paper_system();
  const core::SweepResult sweep = core::run_sweep(system, data, bench::standard_experiment());
  const core::LppmModel model = core::fit_loglinear_model(sweep);

  io::Table table({"coefficient", "meaning", "paper", "measured", "R^2"});
  table.add_row({"a", "Pr intercept", "0.84", io::Table::num(model.privacy.fit.intercept, 3),
                 io::Table::num(model.privacy.fit.r_squared, 3)});
  table.add_row({"b", "Pr slope vs ln(eps)", "0.17", io::Table::num(model.privacy.fit.slope, 3),
                 ""});
  table.add_row({"alpha", "Ut intercept", "1.21", io::Table::num(model.utility.fit.intercept, 3),
                 io::Table::num(model.utility.fit.r_squared, 3)});
  table.add_row({"beta", "Ut slope vs ln(eps)", "0.09", io::Table::num(model.utility.fit.slope, 3),
                 ""});
  table.print(std::cout);

  std::cout << "\nmodel validity (joint non-saturated interval): eps in ["
            << io::Table::num(model.param_low, 3) << ", " << io::Table::num(model.param_high, 3)
            << "]\n";
  std::cout << "paper interval: eps in [0.007, 0.08]\n\n";

  const bool slopes_positive = model.privacy.fit.slope > 0.0 && model.utility.fit.slope > 0.0;
  const bool fits_good = model.privacy.fit.r_squared > 0.85 && model.utility.fit.r_squared > 0.85;
  std::cout << "structure check: positive slopes: " << verdicts.check(slopes_positive)
            << "; linear in ln(eps) on active interval (R^2 > 0.85): "
            << verdicts.check(fits_good) << "\n";

  std::cout << "\ninversion sanity: Pr(eps) then eps(Pr) round-trips at the interval center: ";
  const double eps_mid = std::sqrt(model.param_low * model.param_high);
  const double pr = model.privacy.predict(eps_mid, model.scale);
  const double back = model.privacy.invert(pr, model.scale);
  std::cout << verdicts.check(std::abs(back - eps_mid) < 1e-9 * eps_mid) << "\n";

  // --- Adaptive refinement: re-invest the point budget in the transition. ---
  std::cout << "\nadaptive refinement (coarse sweep -> zoom into the active interval):\n";
  core::RefinementConfig refine;
  refine.experiment = bench::standard_experiment();
  refine.rounds = 1;
  const core::RefinedSweep refined = core::run_refined_sweep(system, data, refine);
  const core::LppmModel refined_model = core::fit_loglinear_model(refined.merged);
  io::Table rtable({"fit", "points in active zone", "Pr fit n", "Pr R^2", "Pr residual stddev"});
  rtable.add_row({"uniform sweep", io::Table::num(static_cast<double>(model.privacy.fit.n), 3),
                  io::Table::num(static_cast<double>(model.privacy.fit.n), 3),
                  io::Table::num(model.privacy.fit.r_squared, 3),
                  io::Table::num(model.privacy.fit.residual_stddev, 3)});
  rtable.add_row({"refined (merged)",
                  io::Table::num(static_cast<double>(refined.final_round.points.size()), 3),
                  io::Table::num(static_cast<double>(refined_model.privacy.fit.n), 3),
                  io::Table::num(refined_model.privacy.fit.r_squared, 3),
                  io::Table::num(refined_model.privacy.fit.residual_stddev, 3)});
  rtable.print(std::cout);
  std::cout << "refinement check (more regression points in the transition): "
            << verdicts.check(refined_model.privacy.fit.n > model.privacy.fit.n) << "\n";
  return verdicts.exit_code();
}
