// Shared setup for the reproduction benches: the standard evaluation
// dataset (cabspotting-style synthetic taxi fleet — see DESIGN.md for the
// substitution rationale) and the paper's system definition.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <vector>

#include "core/pipeline.h"
#include "synth/scenario.h"

namespace locpriv::bench {

/// The evaluation workload every figure/table bench runs on. Sized for
/// seconds-scale runtime while keeping the spatial statistics that drive
/// the curves (block-scale stops, city-scale extent).
inline trace::Dataset standard_taxi_dataset(std::uint64_t seed = 2016) {
  synth::TaxiScenarioConfig cfg;
  cfg.driver_count = 12;
  cfg.taxi.shift_duration_s = 8 * 3600;
  return synth::make_taxi_dataset(cfg, seed);
}

/// Paper's experiment grid: Geo-I swept over eps in [1e-4, 1] — the x
/// axis of Figure 1.
inline core::SystemDefinition paper_system(std::size_t points = 25) {
  return core::make_geo_i_system(points);
}

inline core::ExperimentConfig standard_experiment() {
  core::ExperimentConfig cfg;
  cfg.trials = 3;
  cfg.seed = 42;
  return cfg;
}

/// The PASS/FAIL verdicts a paper bench prints. check() returns the
/// word to print and remembers a FAIL; main returns exit_code(), so a
/// bench that prints FAIL exits 1.
class Verdicts {
 public:
  const char* check(bool ok) {
    failed_ = failed_ || !ok;
    return ok ? "PASS" : "FAIL";
  }
  [[nodiscard]] int exit_code() const { return failed_ ? 1 : 0; }

 private:
  bool failed_ = false;
};

/// Renders a crude console sparkline of a metric series (the "figure").
inline void print_ascii_series(const std::vector<double>& values, double lo, double hi) {
  static const char* kLevels[] = {" ", ".", ":", "-", "=", "+", "*", "#"};
  std::cout << "  [";
  for (const double v : values) {
    const double t = hi > lo ? (v - lo) / (hi - lo) : 0.0;
    const int level = std::max(0, std::min(7, static_cast<int>(t * 7.999)));
    std::cout << kLevels[level];
  }
  std::cout << "]\n";
}

}  // namespace locpriv::bench
