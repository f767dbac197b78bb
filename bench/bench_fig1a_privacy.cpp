// Figure 1a reproduction: privacy metric (POI retrieval fraction) as a
// function of the GEO-I epsilon parameter, eps in [1e-4, 1] on a log
// scale, with the detected saturation boundaries ("vertical lines").
//
// Paper reference points: the privacy metric rises from ~0 at
// eps = 0.007 to ~0.4-0.45 at eps = 0.08, flat outside that band.
#include <iostream>

#include "bench_common.h"
#include "core/saturation.h"
#include "io/table.h"

int main() {
  using namespace locpriv;
  bench::Verdicts verdicts;

  std::cout << "=== Figure 1a: GEO-I privacy metric vs epsilon ===\n";
  std::cout << "privacy metric: poi-retrieval (fraction of actual POIs an attacker\n"
               "retrieves from protected traces; lower = more private)\n\n";

  const trace::Dataset data = bench::standard_taxi_dataset();
  std::cout << "workload: " << data.size() << " synthetic taxi drivers, "
            << data.total_events() << " location reports\n\n";

  const core::SystemDefinition system = bench::paper_system();
  const core::SweepResult sweep = core::run_sweep(system, data, bench::standard_experiment());

  const core::ActiveInterval active =
      core::detect_active_interval(sweep.model_xs(), sweep.privacy_values());

  io::Table table({"epsilon (1/m)", "privacy metric", "stddev", "zone"});
  for (std::size_t i = 0; i < sweep.points.size(); ++i) {
    const core::SweepPoint& p = sweep.points[i];
    const bool in_active = i >= active.first && i <= active.last;
    table.add_row({io::Table::num(p.parameter_value, 3), io::Table::num(p.privacy_mean, 3),
                   io::Table::num(p.privacy_stddev, 2), in_active ? "active" : "saturated"});
  }
  table.print(std::cout);

  std::cout << "\nseries (low eps -> high eps):\n";
  bench::print_ascii_series(sweep.privacy_values(), 0.0, 1.0);

  std::cout << "\nnon-saturated interval (the paper's vertical lines): eps in ["
            << io::Table::num(sweep.points[active.first].parameter_value, 3) << ", "
            << io::Table::num(sweep.points[active.last].parameter_value, 3) << "]\n";
  std::cout << "paper's interval on cabspotting: eps in [0.007, 0.08]\n";
  std::cout << "shape check: metric ~0 at eps=1e-4: "
            << verdicts.check(sweep.points.front().privacy_mean < 0.1)
            << "; rises monotonically overall: "
            << verdicts.check(sweep.points.back().privacy_mean >
                              sweep.points.front().privacy_mean + 0.3)
            << "\n";
  return verdicts.exit_code();
}
