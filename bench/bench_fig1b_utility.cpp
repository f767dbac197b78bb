// Figure 1b reproduction: utility metric (area-coverage similarity at
// city-block scale) as a function of the GEO-I epsilon parameter.
//
// Paper reference points: utility evolves from ~0.2 at eps = 1e-4 to
// ~1.0 at eps = 1, changing more slowly and over a wider range than the
// privacy metric.
#include <iostream>

#include "bench_common.h"
#include "core/saturation.h"
#include "io/table.h"

int main() {
  using namespace locpriv;
  bench::Verdicts verdicts;

  std::cout << "=== Figure 1b: GEO-I utility metric vs epsilon ===\n";
  std::cout << "utility metric: area-coverage-f1 at 115 m city blocks\n"
               "(similarity of covered blocks, actual vs protected; higher = more useful)\n\n";

  const trace::Dataset data = bench::standard_taxi_dataset();
  const core::SystemDefinition system = bench::paper_system();
  const core::SweepResult sweep = core::run_sweep(system, data, bench::standard_experiment());

  const core::ActiveInterval active =
      core::detect_active_interval(sweep.model_xs(), sweep.utility_values());

  io::Table table({"epsilon (1/m)", "utility metric", "stddev", "zone"});
  for (std::size_t i = 0; i < sweep.points.size(); ++i) {
    const core::SweepPoint& p = sweep.points[i];
    const bool in_active = i >= active.first && i <= active.last;
    table.add_row({io::Table::num(p.parameter_value, 3), io::Table::num(p.utility_mean, 3),
                   io::Table::num(p.utility_stddev, 2), in_active ? "active" : "saturated"});
  }
  table.print(std::cout);

  std::cout << "\nseries (low eps -> high eps):\n";
  bench::print_ascii_series(sweep.utility_values(), 0.0, 1.0);

  std::cout << "\nnon-saturated interval: eps in ["
            << io::Table::num(sweep.points[active.first].parameter_value, 3) << ", "
            << io::Table::num(sweep.points[active.last].parameter_value, 3) << "]\n";
  std::cout << "paper: utility spans ~[0.2, 1.0] across eps in [1e-4, 1]\n";

  // Shape checks: monotone-increasing overall, wider active range than
  // the privacy metric (the paper's key qualitative contrast).
  const core::ActiveInterval privacy_active =
      core::detect_active_interval(sweep.model_xs(), sweep.privacy_values());
  std::cout << "shape check: utility at eps=1 near 1.0: "
            << verdicts.check(sweep.points.back().utility_mean > 0.9)
            << "; utility active range wider than privacy's: "
            << verdicts.check(active.point_count() >= privacy_active.point_count()) << "\n";
  return verdicts.exit_code();
}
