// Adversarial generalization bench (BENCH_generalization.json).
//
// Three questions the PR 7 subsystem exists to answer, each measured
// rather than assumed:
//
//   1. Correlation advantage — does the tracking attack (constant-
//      velocity de-noising + train-fitted occupancy prior, then POI
//      linkage) re-identify MORE users than the paper's memoryless POI
//      attack at the same Geo-I ε on a commuter fleet? Reported per ε as
//      `advantage = tracking_reident − poi_reident`; the gate demands it
//      strictly positive at every grid point. This is the Bkakria-style
//      claim: per-report metrics miss inter-report correlation leakage.
//
//   2. Transfer gap — when attacker artifacts are fitted on a train
//      split and Pr is scored on held-out users (Oya-style unknown
//      mobility), how much does the measurement move? Two sweeps on the
//      heterogeneous mixed fleet: the POI attack (poi-retrieval, no
//      fitted population prior — its gap is compositional and must keep
//      test ≤ train at the pinned split seed) and the tracking attack
//      (tracking-error, whose prior IS train-fitted — its gap is true
//      transfer and must be ≥ 0: unseen users are harder to track).
//
//   3. Determinism — the split sweep replayed at 1 and 8 threads must
//      serialize byte-identically, or none of the numbers above count.
//
// Presets: --preset full (default, the committed baseline) or smoke (CI
// seconds-scale); --out overrides the JSON path.
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/model_store.h"
#include "core/sweep.h"
#include "core/system_definition.h"
#include "io/args.h"
#include "io/json.h"
#include "io/table.h"
#include "lppm/geo_ind.h"
#include "lppm/registry.h"
#include "metrics/eval_context.h"
#include "metrics/registry.h"
#include "stats/rng.h"
#include "synth/scenario.h"
#include "trace/dataset.h"

namespace {

using namespace locpriv;

struct BenchParams {
  std::size_t commuters = 16;       ///< question 1 fleet
  std::size_t mixed_per_kind = 5;   ///< question 2 fleet: taxis = commuters = wanderers
  std::size_t trials = 2;
  std::size_t sweep_threads = 8;
  // Grid capped below Geo-I's saturation knee: past ~ε=0.05 the noise is
  // small enough that BOTH adversaries re-identify everyone and the
  // advantage collapses to a trivial 0; the claim lives in the
  // transition region.
  double eps_lo = 0.002;
  double eps_hi = 0.012;
  std::size_t eps_points = 5;
  double test_fraction = 0.3;
  std::uint64_t seed = 2016;
  std::uint64_t split_seed = 1;
};

core::SweepSpec eps_sweep(const BenchParams& p) {
  core::SweepSpec spec;
  spec.parameter = lppm::GeoIndistinguishability::kEpsilon;
  spec.min_value = p.eps_lo;
  spec.max_value = p.eps_hi;
  spec.point_count = p.eps_points;
  spec.scale = lppm::Scale::kLog;
  return spec;
}

core::SystemDefinition system_for(const BenchParams& p, const std::string& privacy_metric) {
  core::SystemDefinition def;
  def.mechanism_factory = [] { return lppm::create_mechanism("geo-indistinguishability"); };
  def.sweep = eps_sweep(p);
  def.privacy = metrics::create_metric(privacy_metric);
  def.utility = metrics::create_metric("mean-distortion");
  return def;
}

core::ExperimentConfig split_config(const BenchParams& p, std::size_t threads) {
  core::ExperimentConfig cfg;
  cfg.trials = p.trials;
  cfg.seed = p.seed;
  cfg.threads = threads;
  cfg.split.mode = core::SplitMode::kHoldout;
  cfg.split.test_fraction = p.test_fraction;
  cfg.split.seed = p.split_seed;
  return cfg;
}

struct AdvantagePoint {
  double epsilon = 0.0;
  double poi_reident = 0.0;       ///< memoryless POI attack linkage accuracy
  double tracking_reident = 0.0;  ///< de-noise-first linkage accuracy
};

/// Question 1: both adversaries attack the SAME protected dataset (same
/// ε, same noise stream, no split — full-population galleries on both
/// sides), so the advantage isolates what the motion model adds. Each ε
/// averages both linkage rates over the preset's `trials` noise draws.
std::vector<AdvantagePoint> run_advantage(const trace::Dataset& data, const BenchParams& p) {
  const std::unique_ptr<metrics::Metric> poi = metrics::create_metric("reidentification-rate");
  const std::unique_ptr<metrics::Metric> tracking = metrics::create_metric("tracking-reident");
  // The actual side is the same at every ε and trial.
  const auto actual_cache = std::make_shared<metrics::ArtifactCache>();
  std::vector<AdvantagePoint> out;
  std::size_t point = 0;
  for (const double eps : core::sweep_values(eps_sweep(p))) {
    const std::unique_ptr<lppm::Mechanism> mech =
        lppm::create_mechanism("geo-indistinguishability");
    mech->set_parameter(lppm::GeoIndistinguishability::kEpsilon, eps);
    AdvantagePoint a;
    a.epsilon = eps;
    for (std::size_t trial = 0; trial < p.trials; ++trial) {
      const trace::Dataset protected_data = mech->protect_dataset(
          data, stats::derive_seed(stats::derive_seed(p.seed, point), trial));
      const auto protected_cache = std::make_shared<metrics::ArtifactCache>();
      const metrics::EvalContext ctx(data, protected_data, actual_cache, protected_cache);
      a.poi_reident += poi->evaluate(ctx);
      a.tracking_reident += tracking->evaluate(ctx);
    }
    a.poi_reident /= static_cast<double>(p.trials);
    a.tracking_reident /= static_cast<double>(p.trials);
    out.push_back(a);
    ++point;
  }
  return out;
}

io::JsonObject transfer_json(const core::SweepResult& sweep) {
  io::JsonObject out;
  io::JsonArray points;
  double train_sum = 0.0;
  double test_sum = 0.0;
  for (const core::SweepPoint& pt : sweep.points) {
    io::JsonObject po;
    po["epsilon"] = pt.parameter_value;
    po["train"] = pt.privacy_train_mean;
    po["test"] = pt.privacy_mean;
    po["gap"] = pt.privacy_mean - pt.privacy_train_mean;
    points.emplace_back(std::move(po));
    train_sum += pt.privacy_train_mean;
    test_sum += pt.privacy_mean;
  }
  const double n = static_cast<double>(sweep.points.size());
  out["metric"] = sweep.privacy_metric;
  out["points"] = std::move(points);
  out["train_mean"] = train_sum / n;
  out["test_mean"] = test_sum / n;
  out["gap_mean"] = (test_sum - train_sum) / n;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  io::ArgParser parser("bench_generalization",
                       "tracking-vs-POI adversary advantage and train/test transfer gaps");
  parser.add({.name = "preset", .help = "full | smoke", .default_value = "full"})
      .add({.name = "out",
            .help = "output JSON path",
            .default_value = "BENCH_generalization.json"})
      .add({.name = "split-seed", .help = "holdout partition seed", .default_value = "1"});
  std::vector<std::string> raw(argv + 1, argv + argc);
  const io::ParsedArgs args = [&] {
    try {
      return parser.parse(raw);
    } catch (const std::exception& e) {
      std::cerr << e.what() << "\n" << parser.usage();
      std::exit(2);
    }
  }();
  const std::string preset = args.get("preset");
  if (preset != "full" && preset != "smoke") {
    std::cerr << "unknown preset '" << preset << "' (want full or smoke)\n";
    return 2;
  }
  const bool smoke = preset == "smoke";

  BenchParams p;
  p.split_seed = static_cast<std::uint64_t>(args.get_int("split-seed"));
  if (smoke) {
    p.commuters = 10;
    p.mixed_per_kind = 4;
    p.eps_points = 3;
  }

  synth::CommuterScenarioConfig commuter_cfg;
  commuter_cfg.user_count = p.commuters;
  const trace::Dataset commuters = synth::make_commuter_dataset(commuter_cfg, p.seed);

  synth::MixedScenarioConfig mixed_cfg;
  mixed_cfg.taxi_count = p.mixed_per_kind;
  mixed_cfg.commuter_count = p.mixed_per_kind;
  mixed_cfg.wanderer_count = p.mixed_per_kind;
  const trace::Dataset mixed = synth::make_mixed_dataset(mixed_cfg, p.seed);

  std::cout << "generalization bench, preset " << preset << ": " << commuters.size()
            << " commuters (advantage), " << mixed.size() << " mixed users (transfer), eps in ["
            << io::Table::num(p.eps_lo, 4) << ", " << io::Table::num(p.eps_hi, 4) << "] x "
            << p.eps_points << ", holdout " << io::Table::num(p.test_fraction, 2) << " seed "
            << p.split_seed << "\n\n";

  // --- Question 1: correlation advantage on the commuter fleet.
  const std::vector<AdvantagePoint> advantage = run_advantage(commuters, p);
  double adv_sum = 0.0;
  double adv_min = advantage.front().tracking_reident - advantage.front().poi_reident;
  io::Table adv_table({"epsilon", "poi reident", "tracking reident", "advantage"});
  io::JsonArray adv_points;
  for (const AdvantagePoint& a : advantage) {
    const double adv = a.tracking_reident - a.poi_reident;
    adv_sum += adv;
    adv_min = std::min(adv_min, adv);
    adv_table.add_row({io::Table::num(a.epsilon, 4), io::Table::num(a.poi_reident, 3),
                       io::Table::num(a.tracking_reident, 3), io::Table::num(adv, 3)});
    io::JsonObject po;
    po["epsilon"] = a.epsilon;
    po["poi_reident"] = a.poi_reident;
    po["tracking_reident"] = a.tracking_reident;
    po["advantage"] = adv;
    adv_points.emplace_back(std::move(po));
  }
  adv_table.print(std::cout);
  std::cout << "\n";

  // --- Question 2: transfer gaps on the heterogeneous mixed fleet.
  const core::SweepResult poi_sweep =
      core::run_sweep(system_for(p, "poi-retrieval"), mixed, split_config(p, p.sweep_threads));
  const core::SweepResult tracking_sweep =
      core::run_sweep(system_for(p, "tracking-error"), mixed, split_config(p, p.sweep_threads));

  io::Table gap_table({"attack", "train Pr", "test Pr", "gap (test-train)"});
  const io::JsonObject poi_transfer = transfer_json(poi_sweep);
  const io::JsonObject tracking_transfer = transfer_json(tracking_sweep);
  gap_table.add_row({"poi-retrieval", io::Table::num(poi_transfer.at("train_mean").as_number(), 3),
                     io::Table::num(poi_transfer.at("test_mean").as_number(), 3),
                     io::Table::num(poi_transfer.at("gap_mean").as_number(), 3)});
  gap_table.add_row(
      {"tracking-error (m)", io::Table::num(tracking_transfer.at("train_mean").as_number(), 1),
       io::Table::num(tracking_transfer.at("test_mean").as_number(), 1),
       io::Table::num(tracking_transfer.at("gap_mean").as_number(), 1)});
  gap_table.print(std::cout);

  // --- Question 3: the split sweep must not depend on the thread count.
  const core::SweepResult tracking_sweep_1t =
      core::run_sweep(system_for(p, "tracking-error"), mixed, split_config(p, 1));
  const bool deterministic = io::to_json(core::sweep_to_json(tracking_sweep)) ==
                             io::to_json(core::sweep_to_json(tracking_sweep_1t));
  std::cout << "\ndeterminism (1 vs " << p.sweep_threads
            << " threads, split on): " << (deterministic ? "byte-identical" : "BROKEN") << "\n";

  io::JsonObject out;
  out["bench"] = std::string("generalization");
  out["preset"] = preset;
  out["commuter_users"] = commuters.size();
  out["mixed_users"] = mixed.size();
  out["trials"] = p.trials;
  out["eps_points"] = p.eps_points;
  {
    io::JsonObject split;
    split["mode"] = std::string("holdout");
    split["test_fraction"] = p.test_fraction;
    split["seed"] = static_cast<double>(p.split_seed);
    split["train_users"] = static_cast<double>(poi_sweep.split_train_users);
    split["test_users"] = static_cast<double>(poi_sweep.split_test_users);
    out["split"] = std::move(split);
  }
  {
    io::JsonObject adv;
    adv["points"] = std::move(adv_points);
    adv["mean"] = adv_sum / static_cast<double>(advantage.size());
    adv["min"] = adv_min;
    out["attack_advantage"] = std::move(adv);
  }
  out["poi_transfer"] = poi_transfer;
  out["tracking_transfer"] = tracking_transfer;
  out["deterministic"] = deterministic;
  io::write_json_file(args.get("out"), io::JsonValue(out));
  std::cout << "wrote " << args.get("out") << " (mean advantage "
            << io::Table::num(adv_sum / static_cast<double>(advantage.size()), 3)
            << ", min " << io::Table::num(adv_min, 3) << ")\n";
  return deterministic ? 0 : 1;
}
