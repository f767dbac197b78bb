// Closed-loop ε configuration under behaviour drift (BENCH_adaptive.json).
//
// The experiment the adaptive subsystem exists for: a synthetic fleet
// roams city-wide for phase A, then every user's behaviour drifts —
// each walker confines itself to a small neighbourhood for phase B. The
// drift moves every user's operating point on the (Pr, Ut) curve, so a
// statically configured ε that satisfied the objective before the drift
// no longer does after it.
//
// Two deployments replay the identical stream:
//
//   adaptive   AdaptiveGeoIndSessions steering ε toward the objective
//              (the closed loop under test), and
//   static     the SAME controller in monitor mode (max_step=0): the
//              identical estimator runs and logs band membership, but ε
//              never moves — the paper's one-shot configuration.
//
// Reported per deployment, computed from the control log's post-drift
// decisions: the fraction of users whose final decision is inside the
// objective band (reband_fraction — the headline, gated ≥ 0.9 for the
// adaptive loop and expected to fail for static), the mean virtual time
// from drift to durable re-entry, and the steady-state tracking error.
// A built-in determinism check replays the adaptive run at 1 and 8
// workers and memcmp-compares the serialized control logs; a bench that
// is fast but non-reproducible must not post numbers.
//
// Presets: --preset full (default, the committed baseline) or smoke (CI
// seconds-scale); --out overrides the JSON path.
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "io/args.h"
#include "io/json.h"
#include "io/table.h"
#include "service/adaptive/control_log.h"
#include "service/gateway.h"
#include "service/load_driver.h"
#include "synth/scenario.h"
#include "trace/dataset.h"

namespace {

using namespace locpriv;
using service::adaptive::ControlDecision;

struct BenchParams {
  std::size_t users = 24;
  trace::Timestamp phase_a_s = 4 * 3600;
  trace::Timestamp phase_b_s = 8 * 3600;
  double initial_eps = 0.02;
  std::uint64_t seed = 2016;
};

service::adaptive::ObjectiveSpec objective() {
  service::adaptive::ObjectiveSpec spec;
  spec.privacy_target = 0.15;
  spec.privacy_tol = 0.15;
  spec.period_reports = 16;
  spec.window_pairs = 64;
  spec.min_window_pairs = 24;
  spec.max_step = 0.5;
  return spec;
}

service::GatewayConfig gateway_config(const BenchParams& p, bool adaptive, std::size_t workers) {
  service::GatewayConfig cfg;
  cfg.workers = workers;
  cfg.queue_capacity = 1 << 16;  // the bench measures control, not backpressure
  cfg.epsilon = p.initial_eps;
  cfg.budget_eps = 1e6;  // budget off the critical path for the same reason
  cfg.budget_window_s = 3600;
  cfg.seed = p.seed;
  service::adaptive::ObjectiveSpec spec = objective();
  if (!adaptive) spec.max_step = 0.0;  // monitor mode: estimator on, ε frozen
  cfg.objectives = spec;
  return cfg;
}

struct RunResult {
  std::map<std::string, std::vector<ControlDecision>> decisions;
  std::string canonical;  ///< ControlLog::serialize() — determinism witness
  std::size_t steps = 0;
  std::size_t total_decisions = 0;
};

RunResult run_deployment(const trace::Dataset& data, const service::GatewayConfig& cfg) {
  service::Gateway gateway(cfg, [](const service::ProtectedReport&) {});
  service::replay_dataset(data, gateway);
  gateway.drain();
  const service::adaptive::ControlLog* log = gateway.control_log();
  RunResult r;
  r.decisions = log->snapshot();
  r.canonical = log->serialize();
  r.total_decisions = log->decision_count();
  for (const auto& [user, ds] : r.decisions) {
    for (const ControlDecision& d : ds) {
      if (d.action == service::adaptive::ControlAction::kStep) ++r.steps;
    }
  }
  return r;
}

struct ConvergenceStats {
  std::size_t controlled_users = 0;   ///< users with ≥1 post-drift decision
  std::size_t disturbed_users = 0;    ///< of those: ≥1 post-drift decision out of band
  std::size_t reband_users = 0;       ///< of controlled: settled back in band
  double reband_fraction = 0.0;
  double mean_time_to_reband_s = 0.0;  ///< drift → start of the settled stretch
  double mean_tracking_error = 0.0;    ///< post-drift mean |measured − target|
};

bool in_band(const ControlDecision& d) { return d.privacy_in_band && d.utility_in_band; }

/// A user has re-entered the band when it has SETTLED there: a majority
/// of its final `kSettleWindow` post-drift decisions are in band. The
/// windowed estimator's per-decision noise straddles the band edges even
/// at a perfectly tracked operating point, so single-sample membership
/// of the very last decision would measure sampling luck, not control.
constexpr std::size_t kSettleWindow = 5;

bool settled_in_band(const std::vector<const ControlDecision*>& post) {
  const std::size_t n = std::min(post.size(), kSettleWindow);
  std::size_t in = 0;
  for (std::size_t i = post.size() - n; i < post.size(); ++i) {
    if (in_band(*post[i])) ++in;
  }
  return in * 2 > n;
}

ConvergenceStats analyze(const std::map<std::string, std::vector<ControlDecision>>& by_user,
                         trace::Timestamp drift_at, double privacy_target) {
  ConvergenceStats s;
  double reband_time_sum = 0.0;
  double err_sum = 0.0;
  std::size_t err_n = 0;
  for (const auto& [user, decisions] : by_user) {
    std::vector<const ControlDecision*> post;
    for (const ControlDecision& d : decisions) {
      if (d.time > drift_at) post.push_back(&d);
    }
    if (post.empty()) continue;
    ++s.controlled_users;
    bool disturbed = false;
    for (const ControlDecision* d : post) {
      if (!in_band(*d)) disturbed = true;
      if (std::isfinite(d->measured_privacy)) {
        err_sum += std::abs(d->measured_privacy - privacy_target);
        ++err_n;
      }
    }
    if (disturbed) ++s.disturbed_users;
    if (!settled_in_band(post)) continue;
    ++s.reband_users;
    // Time to re-band: the first in-band decision from which a majority
    // of everything that follows stays in band — the start of the
    // settled stretch, robust to single noisy samples inside it.
    for (std::size_t i = 0; i < post.size(); ++i) {
      if (!in_band(*post[i])) continue;
      std::size_t in = 0;
      for (std::size_t j = i; j < post.size(); ++j) {
        if (in_band(*post[j])) ++in;
      }
      if (in * 2 > post.size() - i) {
        reband_time_sum += static_cast<double>(post[i]->time - drift_at);
        break;
      }
    }
  }
  if (s.controlled_users > 0) {
    s.reband_fraction =
        static_cast<double>(s.reband_users) / static_cast<double>(s.controlled_users);
  }
  if (s.reband_users > 0) reband_time_sum /= static_cast<double>(s.reband_users);
  s.mean_time_to_reband_s = reband_time_sum;
  if (err_n > 0) s.mean_tracking_error = err_sum / static_cast<double>(err_n);
  return s;
}

io::JsonObject to_json(const ConvergenceStats& s, const RunResult& r) {
  io::JsonObject out;
  out["controlled_users"] = s.controlled_users;
  out["disturbed_users"] = s.disturbed_users;
  out["reband_users"] = s.reband_users;
  out["reband_fraction"] = s.reband_fraction;
  out["mean_time_to_reband_s"] = s.mean_time_to_reband_s;
  out["mean_tracking_error"] = s.mean_tracking_error;
  out["decisions"] = r.total_decisions;
  out["steps"] = r.steps;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  io::ArgParser parser("bench_adaptive_convergence",
                       "closed-loop ε control vs static ε under behaviour drift");
  parser.add({.name = "preset", .help = "full | smoke", .default_value = "full"})
      .add({.name = "out", .help = "output JSON path", .default_value = "BENCH_adaptive.json"})
      .add({.name = "dump",
            .help = "also write the adaptive run's canonical control log here",
            .default_value = ""});
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
  if (smoke) {
    p.users = 8;
    p.phase_a_s = 3600;
    p.phase_b_s = 14400;
  }
  synth::DriftingFleetConfig fleet;
  fleet.user_count = p.users;
  fleet.phase_a_s = p.phase_a_s;
  fleet.phase_b_s = p.phase_b_s;
  const trace::Dataset data = synth::make_drifting_fleet(fleet, p.seed);
  std::size_t events = 0;
  for (const trace::Trace& t : data) events += t.size();
  const service::adaptive::ObjectiveSpec spec = objective();

  std::cout << "adaptive convergence bench, preset " << preset << ": " << p.users
            << " users, " << events << " reports, drift at t=" << p.phase_a_s << " s\n"
            << "objective " << to_string(spec) << ", initial eps "
            << io::Table::num(p.initial_eps, 4) << "\n\n";

  const RunResult adaptive = run_deployment(data, gateway_config(p, true, 8));
  const RunResult frozen = run_deployment(data, gateway_config(p, false, 8));

  // Frozen-ε operating points on both sides of the drift: the band is
  // only a meaningful experiment when phase A sits inside it and phase B
  // falls outside — print both so a misconfigured objective is visible.
  {
    double pre = 0.0, post = 0.0;
    std::size_t pre_n = 0, post_n = 0;
    for (const auto& [user, ds] : frozen.decisions) {
      for (const ControlDecision& d : ds) {
        if (!std::isfinite(d.measured_privacy)) continue;
        if (d.time <= p.phase_a_s) { pre += d.measured_privacy; ++pre_n; }
        else { post += d.measured_privacy; ++post_n; }
      }
    }
    std::cout << "frozen-eps operating point: pre-drift mean pr "
              << io::Table::num(pre_n ? pre / pre_n : 0.0, 3) << " (" << pre_n
              << " decisions), post-drift "
              << io::Table::num(post_n ? post / post_n : 0.0, 3) << " (" << post_n << ")\n\n";
  }
  const ConvergenceStats a = analyze(adaptive.decisions, p.phase_a_s, spec.privacy_target);
  const ConvergenceStats f = analyze(frozen.decisions, p.phase_a_s, spec.privacy_target);

  // Determinism witness: the same adaptive replay at 1 worker must
  // produce a byte-identical control log.
  const RunResult adaptive_1w = run_deployment(data, gateway_config(p, true, 1));
  const bool deterministic =
      !adaptive.canonical.empty() && adaptive.canonical == adaptive_1w.canonical;

  io::Table table({"deployment", "controlled", "reband", "fraction", "t_reband_s", "track_err"});
  table.add_row({"adaptive", io::Table::num(a.controlled_users, 0), io::Table::num(a.reband_users, 0),
             io::Table::num(a.reband_fraction, 3), io::Table::num(a.mean_time_to_reband_s, 0),
             io::Table::num(a.mean_tracking_error, 3)});
  table.add_row({"static", io::Table::num(f.controlled_users, 0), io::Table::num(f.reband_users, 0),
             io::Table::num(f.reband_fraction, 3), io::Table::num(f.mean_time_to_reband_s, 0),
             io::Table::num(f.mean_tracking_error, 3)});
  table.print(std::cout);
  std::cout << "\ndeterminism (1 vs 8 workers): " << (deterministic ? "byte-identical" : "BROKEN")
            << "\n";

  if (!args.get("dump").empty()) {
    std::ofstream dump(args.get("dump"));
    dump << adaptive.canonical;
  }

  io::JsonObject out;
  out["bench"] = std::string("adaptive");
  out["preset"] = preset;
  out["users"] = p.users;
  out["reports"] = events;
  out["phase_a_s"] = static_cast<double>(p.phase_a_s);
  out["phase_b_s"] = static_cast<double>(p.phase_b_s);
  out["initial_eps"] = p.initial_eps;
  out["objective"] = to_string(spec);
  out["adaptive"] = to_json(a, adaptive);
  out["static"] = to_json(f, frozen);
  out["deterministic"] = deterministic;
  io::write_json_file(args.get("out"), io::JsonValue(out));
  std::cout << "wrote " << args.get("out") << " (adaptive reband "
            << io::Table::num(a.reband_fraction, 3) << " vs static "
            << io::Table::num(f.reband_fraction, 3) << ")\n";
  return deterministic ? 0 : 1;
}
