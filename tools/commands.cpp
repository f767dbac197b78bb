#include "commands.h"

#include <chrono>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>

#include "core/experiment.h"
#include "core/model_store.h"
#include "core/pipeline.h"
#include "core/profiler.h"
#include "core/report.h"
#include "core/tradeoff.h"
#include "core/validation.h"
#include "io/args.h"
#include "io/table.h"
#include "lppm/registry.h"
#include "metrics/eval_context.h"
#include "metrics/registry.h"
#include "obs/tracer.h"
#include "service/adaptive/control_log.h"
#include "service/audit.h"
#include "service/gateway.h"
#include "service/load_driver.h"
#include "synth/scenario.h"
#include "trace/cleaning.h"
#include "trace/trace_io.h"

namespace locpriv::cli {
namespace {

std::string join_names(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& n : names) {
    if (!out.empty()) out += ", ";
    out += n;
  }
  return out;
}

/// The parameter a command tunes: --parameter when given, else the
/// --mechanism's first. Throws when the mechanism has none.
std::string tuned_parameter(const io::ParsedArgs& parsed, const lppm::Mechanism& mechanism) {
  if (parsed.has("parameter")) return parsed.get("parameter");
  if (mechanism.parameters().empty()) {
    throw std::runtime_error("mechanism '" + parsed.get("mechanism") +
                             "' has no tunable parameter");
  }
  return mechanism.parameters().front().name;
}

/// Builds the SystemDefinition shared by sweep/validate from parsed
/// options (mechanism, parameter with range, metrics).
core::SystemDefinition system_from_args(const io::ParsedArgs& parsed) {
  core::SystemDefinition def;
  const std::string mechanism = parsed.get("mechanism");
  def.mechanism_factory = [mechanism] { return lppm::create_mechanism(mechanism); };

  const std::unique_ptr<lppm::Mechanism> probe = lppm::create_mechanism(mechanism);
  const std::string parameter = tuned_parameter(parsed, *probe);
  def.sweep = core::full_range_sweep(*probe, parameter, parsed.get_count("points"));
  if (parsed.has("min")) def.sweep.min_value = parsed.get_double("min");
  if (parsed.has("max")) def.sweep.max_value = parsed.get_double("max");

  def.privacy =
      std::shared_ptr<const metrics::Metric>(metrics::create_metric(parsed.get("privacy-metric")));
  def.utility =
      std::shared_ptr<const metrics::Metric>(metrics::create_metric(parsed.get("utility-metric")));
  return def;
}

void add_system_options(io::ArgParser& parser) {
  parser.add({.name = "mechanism",
              .help = "LPPM to analyse (" + join_names(lppm::mechanism_names()) + ")",
              .default_value = "geo-indistinguishability"})
      .add({.name = "parameter", .help = "parameter to sweep (default: the mechanism's first)"})
      .add({.name = "min", .help = "sweep lower bound (default: parameter's declared min)"})
      .add({.name = "max", .help = "sweep upper bound (default: parameter's declared max)"})
      .add({.name = "points", .help = "sweep grid size", .default_value = "21"});
}

/// Per-command defaults for the shared evaluation flags.
struct EvalOptionDefaults {
  std::string privacy = "poi-retrieval";
  std::string utility = "area-coverage-f1";
  std::string seed = "42";
  std::string seed_help = "experiment seed";
};

/// The evaluation flags every evaluating command spells identically:
/// --privacy-metric, --utility-metric, --seed.
void add_metric_options(io::ArgParser& parser, const EvalOptionDefaults& d = {}) {
  parser
      .add({.name = "privacy-metric",
            .help = "privacy metric (" + join_names(metrics::metric_names()) + ")",
            .default_value = d.privacy})
      .add({.name = "utility-metric", .help = "utility metric", .default_value = d.utility})
      .add({.name = "seed", .help = d.seed_help, .default_value = d.seed});
}

/// The offline commands' evaluation flags: the metric flags plus
/// --threads, the sweep worker count.
void add_eval_options(io::ArgParser& parser) {
  add_metric_options(parser);
  parser.add({.name = "threads", .help = "worker threads (0 = all cores)", .default_value = "0"});
}

/// Renders one registry entry's ParameterSpecs under its name.
void print_parameter_specs(const std::vector<lppm::ParameterSpec>& specs) {
  if (specs.empty()) {
    std::cout << "    (no tunable parameters)\n";
    return;
  }
  for (const lppm::ParameterSpec& spec : specs) {
    std::cout << "    --" << spec.name << "  [" << spec.min_value << ", " << spec.max_value
              << "] default " << spec.default_value << " ("
              << (spec.scale == lppm::Scale::kLog ? "log" : "linear");
    if (!spec.unit.empty()) std::cout << ", " << spec.unit;
    std::cout << ")";
    if (!spec.description.empty()) std::cout << "  " << spec.description;
    std::cout << "\n";
  }
}

trace::Dataset load_dataset(const std::string& path) {
  // Format (CSV vs binary) is sniffed from the file contents, so every
  // command accepts either transparently.
  return trace::load_dataset(path);
}

/// The --trace flag shared by the instrumented commands (sweep,
/// validate, serve-sim).
void add_trace_option(io::ArgParser& parser) {
  parser.add({.name = "trace",
              .help = "write a Chrome trace-event JSON of this run (open in "
                      "chrome://tracing or ui.perfetto.dev)"});
}

/// Turns tracing on for the run when --trace was given. Must run before
/// the traced work starts.
void maybe_enable_tracing(const io::ParsedArgs& parsed) {
  if (parsed.has("trace")) obs::Tracer::instance().enable();
}

/// Writes the collected trace to the --trace path. Call after every
/// worker thread has been joined, so all span buffers have flushed.
void maybe_write_trace(const io::ParsedArgs& parsed) {
  if (!parsed.has("trace")) return;
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.disable();
  tracer.write_chrome_trace(parsed.get("trace"));
  std::cout << "wrote trace (" << tracer.collected_spans() << " spans) to " << parsed.get("trace")
            << "\n";
}

}  // namespace

int cmd_generate(const Args& args) {
  io::ArgParser parser("generate", "synthesize a mobility dataset and write it as CSV");
  parser.add({.name = "scenario", .help = "taxi | commuter", .default_value = "taxi"})
      .add({.name = "users", .help = "number of users", .default_value = "12"})
      .add({.name = "seed", .help = "generator seed", .default_value = "2016"})
      .add({.name = "days", .help = "commuter scenario: days per user", .default_value = "2"})
      .add({.name = "shift-hours", .help = "taxi scenario: shift length", .default_value = "8"})
      .add({.name = "out", .help = "output path (.csv writes CSV, anything else the binary format)", .required = true});
  const io::ParsedArgs parsed = parser.parse(args);

  const std::string scenario = parsed.get("scenario");
  trace::Dataset data;
  if (scenario == "taxi") {
    synth::TaxiScenarioConfig cfg;
    cfg.driver_count = parsed.get_count("users");
    cfg.taxi.shift_duration_s = parsed.get_int("shift-hours") * 3600;
    data = synth::make_taxi_dataset(cfg, static_cast<std::uint64_t>(parsed.get_int("seed")));
  } else if (scenario == "commuter") {
    synth::CommuterScenarioConfig cfg;
    cfg.user_count = parsed.get_count("users");
    cfg.commuter.days = parsed.get_count("days");
    data = synth::make_commuter_dataset(cfg, static_cast<std::uint64_t>(parsed.get_int("seed")));
  } else {
    throw std::runtime_error("unknown scenario '" + scenario + "' (taxi | commuter)");
  }

  trace::save_dataset(parsed.get("out"), data);
  std::cout << "wrote " << data.size() << " users, " << data.total_events() << " events to "
            << parsed.get("out") << "\n";
  return 0;
}

int cmd_profile(const Args& args) {
  io::ArgParser parser("profile", "dataset properties and PCA property ranking (step 1)");
  parser.add({.name = "data", .help = "dataset CSV", .required = true})
      .add({.name = "top", .help = "how many properties to highlight", .default_value = "5"});
  const io::ParsedArgs parsed = parser.parse(args);

  const trace::Dataset data = load_dataset(parsed.get("data"));
  std::cout << "dataset: " << data.size() << " users, " << data.total_events() << " events, "
            << "extent " << io::Table::num(data.bounds().diagonal() / 1000.0, 3) << " km\n\n";

  const std::vector<double> props = core::dataset_properties(data);
  io::Table prop_table({"property", "dataset mean"});
  for (std::size_t i = 0; i < props.size(); ++i) {
    prop_table.add_row({core::property_names()[i], io::Table::num(props[i], 4)});
  }
  prop_table.print(std::cout);

  std::cout << "\nPCA ranking (most impactful first):\n";
  const auto ranked = core::rank_properties(data);
  const auto top = parsed.get_count("top");
  for (std::size_t i = 0; i < ranked.size() && i < top; ++i) {
    std::cout << "  " << (i + 1) << ". " << ranked[i].name << "  ("
              << io::Table::num(ranked[i].importance, 3) << ")\n";
  }
  return 0;
}

int cmd_sweep(const Args& args) {
  io::ArgParser parser("sweep", "run the automated (Pr, Ut) sweep (step 2a)");
  parser.add({.name = "data", .help = "dataset CSV", .required = true})
      .add({.name = "trials", .help = "protection repetitions per point", .default_value = "3"})
      .add({.name = "no-cache", .help = "disable the shared artifact cache", .is_flag = true})
      .add({.name = "split",
            .help = "hold out this fraction of users: attacker artifacts are fitted on the "
                    "rest and the headline Pr is scored on the held-out users"})
      .add({.name = "folds",
            .help = "k-fold split instead of a holdout: every user scored once while held out"})
      .add({.name = "split-seed", .help = "partition shuffle seed", .default_value = "1"})
      .add({.name = "out", .help = "output sweep JSON path", .required = true})
      .add({.name = "csv", .help = "also write the sweep as CSV to this path"});
  add_system_options(parser);
  add_eval_options(parser);
  add_trace_option(parser);
  const io::ParsedArgs parsed = parser.parse(args);
  maybe_enable_tracing(parsed);

  const trace::Dataset data = load_dataset(parsed.get("data"));
  const core::SystemDefinition def = system_from_args(parsed);
  core::ExperimentConfig cfg;
  cfg.trials = parsed.get_count("trials");
  cfg.seed = static_cast<std::uint64_t>(parsed.get_int("seed"));
  cfg.threads = parsed.get_count("threads");
  cfg.use_artifact_cache = !parsed.get_flag("no-cache");
  if (cfg.use_artifact_cache) cfg.artifact_cache = std::make_shared<metrics::ArtifactCache>();
  if (parsed.has("split") && parsed.has("folds")) {
    throw std::runtime_error("sweep: --split and --folds are mutually exclusive");
  }
  if (parsed.has("split")) {
    cfg.split.mode = core::SplitMode::kHoldout;
    cfg.split.test_fraction = parsed.get_double("split");
  } else if (parsed.has("folds")) {
    cfg.split.mode = core::SplitMode::kKFold;
    cfg.split.folds = parsed.get_count("folds");
  }
  cfg.split.seed = static_cast<std::uint64_t>(parsed.get_int("split-seed"));

  const core::SweepResult sweep = core::run_sweep(def, data, cfg);
  io::write_json_file(parsed.get("out"), core::sweep_to_json(sweep));
  if (parsed.has("csv")) core::save_sweep_csv(parsed.get("csv"), sweep);

  std::vector<std::string> columns = {def.sweep.parameter, sweep.privacy_metric,
                                      sweep.utility_metric};
  if (sweep.split.enabled()) {
    columns[1] = sweep.privacy_metric + " (test)";
    columns.push_back(sweep.privacy_metric + " (train)");
    columns.push_back("transfer gap");
  }
  io::Table table(columns);
  for (const core::SweepPoint& p : sweep.points) {
    std::vector<std::string> row = {io::Table::num(p.parameter_value, 3),
                                    io::Table::num(p.privacy_mean, 3),
                                    io::Table::num(p.utility_mean, 3)};
    if (sweep.split.enabled()) {
      row.push_back(io::Table::num(p.privacy_train_mean, 3));
      row.push_back(io::Table::num(p.privacy_mean - p.privacy_train_mean, 3));
    }
    table.add_row(row);
  }
  table.print(std::cout);
  if (sweep.split.enabled()) {
    std::cout << "\nsplit: " << core::to_string(sweep.split.mode) << " (seed "
              << sweep.split.seed << "), " << sweep.split_train_users << " train / "
              << sweep.split_test_users << " test users; headline Pr is the test side\n";
  }
  if (cfg.artifact_cache != nullptr) {
    const metrics::ArtifactCache::Stats stats = cfg.artifact_cache->stats();
    std::cout << "\nartifact cache: " << stats.hits << " hits / " << stats.misses
              << " misses (hit rate " << io::Table::num(stats.hit_rate(), 3) << ")\n";
  }
  std::cout << "\nwrote sweep (" << sweep.points.size() << " points) to " << parsed.get("out")
            << "\n";
  maybe_write_trace(parsed);
  return 0;
}

int cmd_fit(const Args& args) {
  io::ArgParser parser("fit", "fit the invertible log-linear model from a sweep (step 2b)");
  parser.add({.name = "sweep", .help = "sweep JSON from `locpriv sweep`", .required = true})
      .add({.name = "flat-fraction",
            .help = "saturation threshold as a fraction of the peak slope",
            .default_value = "0.15"})
      .add({.name = "out", .help = "output model JSON path", .required = true});
  const io::ParsedArgs parsed = parser.parse(args);

  const core::SweepResult sweep = core::sweep_from_json(io::read_json_file(parsed.get("sweep")));
  core::SaturationOptions saturation;
  saturation.flat_fraction = parsed.get_double("flat-fraction");
  const core::LppmModel model = core::fit_loglinear_model(sweep, saturation);
  core::save_model(parsed.get("out"), model);

  io::Table table({"axis", "metric", "intercept", "slope vs ln(p)", "R^2", "valid range"});
  table.add_row({"privacy", model.privacy_metric, io::Table::num(model.privacy.fit.intercept, 4),
                 io::Table::num(model.privacy.fit.slope, 4),
                 io::Table::num(model.privacy.fit.r_squared, 3),
                 "[" + io::Table::num(model.privacy.param_low, 3) + ", " +
                     io::Table::num(model.privacy.param_high, 3) + "]"});
  table.add_row({"utility", model.utility_metric, io::Table::num(model.utility.fit.intercept, 4),
                 io::Table::num(model.utility.fit.slope, 4),
                 io::Table::num(model.utility.fit.r_squared, 3),
                 "[" + io::Table::num(model.utility.param_low, 3) + ", " +
                     io::Table::num(model.utility.param_high, 3) + "]"});
  table.print(std::cout);
  std::cout << "\nwrote model to " << parsed.get("out") << "\n";
  return 0;
}

int cmd_configure(const Args& args) {
  io::ArgParser parser("configure", "invert a fitted model against objectives (step 3)");
  parser.add({.name = "model", .help = "model JSON from `locpriv fit`", .required = true})
      .add({.name = "privacy-max", .help = "privacy metric must be <= this"})
      .add({.name = "privacy-min", .help = "privacy metric must be >= this"})
      .add({.name = "utility-min", .help = "utility metric must be >= this"})
      .add({.name = "utility-max", .help = "utility metric must be <= this"})
      .add({.name = "data", .help = "dataset CSV: also measure the recommendation on it"})
      .add({.name = "trials", .help = "protection repetitions for the --data measurement",
            .default_value = "3"});
  add_eval_options(parser);
  const io::ParsedArgs parsed = parser.parse(args);

  const core::LppmModel model = core::load_model(parsed.get("model"));
  std::vector<core::Objective> objectives;
  if (parsed.has("privacy-max")) {
    objectives.push_back(
        {core::Axis::kPrivacy, core::Sense::kAtMost, parsed.get_double("privacy-max")});
  }
  if (parsed.has("privacy-min")) {
    objectives.push_back(
        {core::Axis::kPrivacy, core::Sense::kAtLeast, parsed.get_double("privacy-min")});
  }
  if (parsed.has("utility-min")) {
    objectives.push_back(
        {core::Axis::kUtility, core::Sense::kAtLeast, parsed.get_double("utility-min")});
  }
  if (parsed.has("utility-max")) {
    objectives.push_back(
        {core::Axis::kUtility, core::Sense::kAtMost, parsed.get_double("utility-max")});
  }
  if (objectives.empty()) {
    std::cout << "no objectives given; the model is valid for " << model.parameter << " in ["
              << model.param_low << ", " << model.param_high << "]\n";
    return 0;
  }

  const core::Configurator configurator(model);
  const core::Configuration cfg = configurator.configure(objectives);
  if (!cfg.feasible) {
    std::cout << "INFEASIBLE: " << cfg.diagnosis << "\n";
    return 1;
  }
  std::cout << "feasible " << model.parameter << " interval: [" << cfg.interval.lo << ", "
            << cfg.interval.hi << "]\n";
  std::cout << "recommended " << model.parameter << " = " << cfg.recommended << "\n";
  std::cout << "predicted " << model.privacy_metric << " = " << cfg.predicted_privacy << ", "
            << model.utility_metric << " = " << cfg.predicted_utility << "\n";

  // Optionally check the prediction against reality on a dataset.
  if (parsed.has("data")) {
    const trace::Dataset data = load_dataset(parsed.get("data"));
    core::SystemDefinition def;
    const std::string mechanism = model.mechanism_name;
    def.mechanism_factory = [mechanism] { return lppm::create_mechanism(mechanism); };
    def.sweep.parameter = model.parameter;
    def.privacy = std::shared_ptr<const metrics::Metric>(
        metrics::create_metric(parsed.get("privacy-metric")));
    def.utility = std::shared_ptr<const metrics::Metric>(
        metrics::create_metric(parsed.get("utility-metric")));
    const auto cache = std::make_shared<metrics::ArtifactCache>();
    const core::SweepPoint measured =
        core::evaluate_point(def, data, cfg.recommended, parsed.get_count("trials"),
                             static_cast<std::uint64_t>(parsed.get_int("seed")), cache,
                             parsed.get_count("threads"));
    std::cout << "measured on " << parsed.get("data") << ": " << def.privacy->name() << " = "
              << io::Table::num(measured.privacy_mean, 4) << ", " << def.utility->name() << " = "
              << io::Table::num(measured.utility_mean, 4) << "\n";
  }
  return 0;
}

int cmd_protect(const Args& args) {
  io::ArgParser parser("protect", "apply a mechanism to a dataset CSV");
  parser.add({.name = "data", .help = "input dataset CSV", .required = true})
      .add({.name = "mechanism",
            .help = "LPPM (" + join_names(lppm::mechanism_names()) + ")",
            .default_value = "geo-indistinguishability"})
      .add({.name = "parameter", .help = "parameter name (default: mechanism's first)"})
      .add({.name = "value", .help = "parameter value (e.g. the epsilon from `configure`)"})
      .add({.name = "seed", .help = "noise seed", .default_value = "7"})
      .add({.name = "out", .help = "output path (.csv writes CSV, anything else the binary format)", .required = true});
  const io::ParsedArgs parsed = parser.parse(args);

  const trace::Dataset data = load_dataset(parsed.get("data"));
  const std::unique_ptr<lppm::Mechanism> mechanism =
      lppm::create_mechanism(parsed.get("mechanism"));
  if (parsed.has("value")) {
    mechanism->set_parameter(tuned_parameter(parsed, *mechanism), parsed.get_double("value"));
  }

  const trace::Dataset protected_data =
      mechanism->protect_dataset(data, static_cast<std::uint64_t>(parsed.get_int("seed")));
  trace::save_dataset(parsed.get("out"), protected_data);
  std::cout << "protected " << protected_data.total_events() << " events with "
            << mechanism->name() << "; wrote " << parsed.get("out") << "\n";
  return 0;
}

int cmd_audit(const Args& args) {
  io::ArgParser parser("audit", "evaluate every metric on actual vs protected data");
  parser.add({.name = "actual", .help = "actual dataset CSV", .required = true})
      .add({.name = "protected", .help = "protected dataset CSV", .required = true});
  const io::ParsedArgs parsed = parser.parse(args);

  const trace::Dataset actual = load_dataset(parsed.get("actual"));
  const trace::Dataset protected_data = load_dataset(parsed.get("protected"));

  // One shared context: the POI/staypoint/raster derivations are
  // computed once and reused by every metric that wants them.
  const auto actual_cache = std::make_shared<metrics::ArtifactCache>();
  const auto protected_cache = std::make_shared<metrics::ArtifactCache>();
  const metrics::EvalContext ctx(actual, protected_data, actual_cache, protected_cache);

  io::Table table({"metric", "axis", "value"});
  for (const std::string& name : metrics::metric_names()) {
    const std::unique_ptr<metrics::Metric> metric = metrics::create_metric(name);
    const bool privacy = metrics::is_privacy_direction(metric->direction());
    table.add_row({name, privacy ? "privacy" : "utility",
                   io::Table::num(metric->evaluate(ctx), 4)});
  }
  table.print(std::cout);
  return 0;
}

int cmd_validate(const Args& args) {
  io::ArgParser parser("validate", "k-fold cross-validation of the fitted model");
  parser.add({.name = "data", .help = "dataset CSV", .required = true})
      .add({.name = "folds", .help = "number of user folds", .default_value = "4"})
      .add({.name = "split-seed",
            .help = "use a seeded shuffled fold partition instead of round-robin"})
      .add({.name = "trials", .help = "protection repetitions per point", .default_value = "2"});
  add_system_options(parser);
  add_eval_options(parser);
  add_trace_option(parser);
  const io::ParsedArgs parsed = parser.parse(args);
  maybe_enable_tracing(parsed);

  const trace::Dataset data = load_dataset(parsed.get("data"));
  const core::SystemDefinition def = system_from_args(parsed);
  core::ExperimentConfig cfg;
  cfg.trials = parsed.get_count("trials");
  cfg.seed = static_cast<std::uint64_t>(parsed.get_int("seed"));
  cfg.threads = parsed.get_count("threads");
  if (parsed.has("split-seed")) {
    cfg.split.mode = core::SplitMode::kKFold;
    cfg.split.seed = static_cast<std::uint64_t>(parsed.get_int("split-seed"));
  }

  const core::CrossValidationReport report =
      core::cross_validate(def, data, parsed.get_count("folds"), cfg);

  io::Table table({"fold", "train users", "test users", "Pr RMSE", "Ut RMSE", "train Pr R^2"});
  for (const core::FoldReport& f : report.folds) {
    table.add_row({std::to_string(f.fold), std::to_string(f.train_users),
                   std::to_string(f.test_users), io::Table::num(f.privacy_rmse, 3),
                   io::Table::num(f.utility_rmse, 3), io::Table::num(f.privacy_r_squared, 3)});
  }
  table.print(std::cout);
  std::cout << "\nmean held-out RMSE: privacy " << io::Table::num(report.mean_privacy_rmse, 3)
            << ", utility " << io::Table::num(report.mean_utility_rmse, 3) << "\n";
  maybe_write_trace(parsed);
  return 0;
}

int cmd_compare(const Args& args) {
  io::ArgParser parser("compare",
                       "sweep several mechanisms on one dataset and rank their trade-offs");
  parser.add({.name = "data", .help = "dataset CSV", .required = true})
      .add({.name = "mechanisms",
            .help = "comma-separated mechanism names (default: the spatial zoo)",
            .default_value =
                "geo-indistinguishability,gaussian-perturbation,grid-cloaking,promesse"})
      .add({.name = "points", .help = "sweep grid size", .default_value = "17"})
      .add({.name = "trials", .help = "protection repetitions per point", .default_value = "2"});
  add_eval_options(parser);
  const io::ParsedArgs parsed = parser.parse(args);

  const trace::Dataset data = load_dataset(parsed.get("data"));
  core::ExperimentConfig cfg;
  cfg.trials = parsed.get_count("trials");
  cfg.seed = static_cast<std::uint64_t>(parsed.get_int("seed"));
  cfg.threads = parsed.get_count("threads");

  // Split the comma list.
  std::vector<std::string> names;
  {
    std::istringstream in(parsed.get("mechanisms"));
    std::string piece;
    while (std::getline(in, piece, ',')) {
      if (!piece.empty()) names.push_back(piece);
    }
  }
  if (names.empty()) throw std::runtime_error("compare: no mechanisms given");

  // Rows wait for every sweep: the AUCs are scored in one frame, the
  // union of all the sweeps' points, so the column ranks mechanisms.
  std::vector<std::vector<std::string>> rows;
  std::vector<std::vector<core::TradeoffPoint>> curves;
  std::vector<std::size_t> curve_rows;
  for (const std::string& name : names) {
    try {
      core::SystemDefinition def;
      def.mechanism_factory = [name] { return lppm::create_mechanism(name); };
      const std::unique_ptr<lppm::Mechanism> probe = lppm::create_mechanism(name);
      if (probe->parameters().empty()) {
        rows.push_back({name, "-", "-", "-", "-", "no tunable parameter"});
        continue;
      }
      def.sweep = core::full_range_sweep(*probe, probe->parameters().front().name,
                                         parsed.get_count("points"));
      def.privacy = std::shared_ptr<const metrics::Metric>(
          metrics::create_metric(parsed.get("privacy-metric")));
      def.utility = std::shared_ptr<const metrics::Metric>(
          metrics::create_metric(parsed.get("utility-metric")));
      const core::SweepResult sweep = core::run_sweep(def, data, cfg);
      // Scored even if the fit throws: the error row takes this index.
      curves.push_back(core::to_tradeoff_points(sweep));
      curve_rows.push_back(rows.size());
      const core::LppmModel model = core::fit_loglinear_model(sweep);
      rows.push_back({name, def.sweep.parameter, "-",
                      io::Table::num(model.privacy.fit.r_squared, 2),
                      io::Table::num(model.utility.fit.r_squared, 2), "ok"});
    } catch (const std::exception& e) {
      rows.push_back({name, "-", "-", "-", "-", e.what()});
    }
  }
  try {
    const std::vector<double> auc = core::tradeoff_auc(curves);
    for (std::size_t i = 0; i < auc.size(); ++i) {
      rows[curve_rows[i]][2] = io::Table::num(auc[i], 3);
    }
  } catch (const std::invalid_argument&) {
    // no sweep ran, or all are flat on one axis: no frame, AUCs stay "-"
  }
  io::Table table({"mechanism", "knob", "tradeoff AUC", "Pr R^2", "Ut R^2", "status"});
  for (std::vector<std::string>& row : rows) table.add_row(std::move(row));
  table.print(std::cout);
  std::cout << "\nhigher trade-off AUC = better privacy retained across the utility range.\n";
  return 0;
}

int cmd_clean(const Args& args) {
  io::ArgParser parser("clean", "drop GPS glitches and stuck fixes from a dataset CSV");
  parser.add({.name = "data", .help = "input dataset CSV", .required = true})
      .add({.name = "max-speed", .help = "speed filter threshold, m/s (0 disables)",
            .default_value = "50"})
      .add({.name = "keep-duplicates", .help = "keep repeated identical fixes", .is_flag = true})
      .add({.name = "out", .help = "output path (.csv writes CSV, anything else the binary format)", .required = true});
  const io::ParsedArgs parsed = parser.parse(args);

  const trace::Dataset data = load_dataset(parsed.get("data"));
  trace::CleaningConfig cfg;
  cfg.max_speed_mps = parsed.get_double("max-speed");
  cfg.drop_duplicates = !parsed.get_flag("keep-duplicates");
  trace::CleaningStats stats;
  const trace::Dataset cleaned = trace::clean_dataset(data, cfg, &stats);
  trace::save_dataset(parsed.get("out"), cleaned);
  std::cout << "kept " << stats.kept() << "/" << stats.input_events << " events ("
            << stats.speed_rejected << " speed-rejected, " << stats.duplicates_dropped
            << " duplicates); wrote " << parsed.get("out") << "\n";
  return 0;
}

int cmd_convert(const Args& args) {
  io::ArgParser parser("convert", "convert a dataset between CSV and the binary format");
  parser.add({.name = "in", .help = "input dataset (CSV or binary, sniffed)", .required = true})
      .add({.name = "out", .help = "output path", .required = true})
      .add({.name = "to", .help = "output format: auto | csv | binary (auto = by extension)",
            .default_value = "auto"})
      .add({.name = "check", .help = "reload the output and verify it round-trips",
            .is_flag = true});
  const io::ParsedArgs parsed = parser.parse(args);

  const std::string to = parsed.get("to");
  trace::SaveOptions save_opts;
  if (to == "csv") {
    save_opts.format = trace::SaveOptions::Format::kCsv;
  } else if (to == "binary") {
    save_opts.format = trace::SaveOptions::Format::kBinary;
  } else if (to != "auto") {
    throw std::runtime_error("convert: unknown --to format '" + to + "' (auto | csv | binary)");
  }

  const trace::Dataset data = load_dataset(parsed.get("in"));
  trace::save_dataset(parsed.get("out"), data, save_opts);
  const bool wrote_csv = !trace::is_binary_dataset_file(parsed.get("out"));
  std::cout << "wrote " << data.size() << " users, " << data.total_events() << " events to "
            << parsed.get("out") << " (" << (wrote_csv ? "csv" : "binary") << ")\n";

  if (parsed.get_flag("check")) {
    // Binary round-trips are exact; CSV quantizes coordinates to 6
    // decimals, so the comparison allows that much slack.
    const double tolerance = wrote_csv ? 1e-5 : 0.0;
    const trace::Dataset reloaded = trace::load_dataset(parsed.get("out"));
    if (reloaded.size() != data.size()) {
      throw std::runtime_error("convert --check: user count changed on reload");
    }
    for (std::size_t u = 0; u < data.size(); ++u) {
      const trace::Trace& a = data[u];
      const trace::Trace& b = reloaded[u];
      if (a.user_id() != b.user_id() || a.size() != b.size()) {
        throw std::runtime_error("convert --check: trace shape changed for user " + a.user_id());
      }
      for (std::size_t i = 0; i < a.size(); ++i) {
        const bool same = a.times()[i] == b.times()[i] &&
                          std::abs(a.xs()[i] - b.xs()[i]) <= tolerance &&
                          std::abs(a.ys()[i] - b.ys()[i]) <= tolerance;
        if (!same) {
          throw std::runtime_error("convert --check: event " + std::to_string(i) +
                                   " of user " + a.user_id() + " did not round-trip");
        }
      }
    }
    std::cout << "check: " << data.total_events() << " events round-trip"
              << (wrote_csv ? " within csv precision" : " exactly") << "\n";
  }
  return 0;
}

int cmd_serve_sim(const Args& args) {
  io::ArgParser parser("serve-sim",
                       "single-process gateway simulation: replay a workload in-process "
                       "(see `serve` for the real network front end)");
  parser.add({.name = "data", .help = "dataset CSV to replay (default: synthesize)"})
      .add({.name = "scenario", .help = "synthetic workload: taxi | commuter",
            .default_value = "taxi"})
      .add({.name = "users", .help = "synthetic workload: number of users",
            .default_value = "12"})
      .add({.name = "workers", .help = "gateway downstream lanes (downstream calls in flight)",
            .default_value = "4"})
      .add({.name = "queue-capacity", .help = "held answers per lane (backpressure bound)",
            .default_value = "1024"})
      .add({.name = "epsilon", .help = "Geo-I epsilon per report", .default_value = "0.02"})
      .add({.name = "budget-reports", .help = "ε budget per window, in reports",
            .default_value = "30"})
      .add({.name = "window", .help = "budget sliding window, seconds", .default_value = "3600"})
      .add({.name = "idle-timeout",
            .help = "evict sessions idle this many stream-seconds (0 = never)",
            .default_value = "0"})
      .add({.name = "max-sessions", .help = "session cap of the gateway (0 = unbounded)",
            .default_value = "32768"})
      .add({.name = "rate",
            .help = "stream-seconds replayed per wall-second (0 = flat out)",
            .default_value = "0"})
      .add({.name = "downstream-us", .help = "simulated LBS round-trip per delivery, microseconds",
            .default_value = "0"})
      .add({.name = "faults",
            .help = "fault-injection spec, e.g. fail=0.25,latency_p=0.1,latency_us=3000 "
                    "(keys: fail, latency_p, latency_us, stall_p, stall_us, skew_p, skew_s, "
                    "burst_p, burst_len)"})
      .add({.name = "fault-seed", .help = "fault schedule seed (0 = derive from --seed)",
            .default_value = "0"})
      .add({.name = "policy", .help = "degradation policy: retry | suppress | fallback_cloak",
            .default_value = "retry"})
      .add({.name = "max-retries", .help = "downstream retries after the first attempt",
            .default_value = "3"})
      .add({.name = "deadline-us", .help = "virtual per-request downstream deadline (0 = none)",
            .default_value = "50000"})
      .add({.name = "breaker-threshold",
            .help = "consecutive failures tripping the circuit breaker (0 = disabled)",
            .default_value = "5"})
      .add({.name = "breaker-cooldown", .help = "breaker cooldown, stream-seconds",
            .default_value = "60"})
      .add({.name = "fallback-cell", .help = "fallback cloaking cell edge, meters",
            .default_value = "5000"})
      .add({.name = "audit", .help = "evaluate the metrics on delivered vs original reports",
            .is_flag = true})
      .add({.name = "objectives",
            .help = "closed-loop ε control objectives, e.g. pr=0.8,pr_tol=0.3,period_n=24 "
                    "(keys: pr, pr_tol, ut, ut_tol, pr_metric, ut_metric, period_n, period_s, "
                    "window_n, window_s, min_n, max_step, cooldown_s, eps_min, eps_max, "
                    "pr_slope, ut_slope)"})
      .add({.name = "out", .help = "write the telemetry snapshot JSON here"});
  add_metric_options(parser, {.seed = "2016", .seed_help = "workload + noise seed"});
  add_trace_option(parser);
  const io::ParsedArgs parsed = parser.parse(args);
  maybe_enable_tracing(parsed);

  trace::Dataset data;
  if (parsed.has("data")) {
    data = load_dataset(parsed.get("data"));
  } else {
    const std::string scenario = parsed.get("scenario");
    const auto seed = static_cast<std::uint64_t>(parsed.get_int("seed"));
    if (scenario == "taxi") {
      synth::TaxiScenarioConfig cfg;
      cfg.driver_count = parsed.get_count("users");
      data = synth::make_taxi_dataset(cfg, seed);
    } else if (scenario == "commuter") {
      synth::CommuterScenarioConfig cfg;
      cfg.user_count = parsed.get_count("users");
      data = synth::make_commuter_dataset(cfg, seed);
    } else {
      throw std::runtime_error("unknown scenario '" + scenario + "' (taxi | commuter)");
    }
  }

  service::GatewayConfig cfg;
  cfg.workers = parsed.get_count("workers");
  cfg.queue_capacity = parsed.get_count("queue-capacity");
  cfg.sessions.idle_timeout_s = static_cast<trace::Timestamp>(parsed.get_count("idle-timeout"));
  cfg.sessions.max_sessions = parsed.get_count("max-sessions");
  cfg.epsilon = parsed.get_double("epsilon");
  cfg.budget_eps = cfg.epsilon * parsed.get_double("budget-reports");
  cfg.budget_window_s = parsed.get_int("window");
  cfg.seed = static_cast<std::uint64_t>(parsed.get_int("seed"));
  cfg.downstream_latency = std::chrono::microseconds(parsed.get_int("downstream-us"));
  if (parsed.has("faults")) cfg.faults = service::parse_fault_spec(parsed.get("faults"));
  cfg.fault_seed = static_cast<std::uint64_t>(parsed.get_int("fault-seed"));
  cfg.resilience.policy = service::parse_degrade_policy(parsed.get("policy"));
  cfg.resilience.max_retries = static_cast<std::uint32_t>(parsed.get_count("max-retries"));
  cfg.resilience.deadline_us = static_cast<std::uint64_t>(parsed.get_int("deadline-us"));
  cfg.resilience.breaker.failure_threshold =
      static_cast<std::uint32_t>(parsed.get_count("breaker-threshold"));
  cfg.resilience.breaker.cooldown_s = parsed.get_int("breaker-cooldown");
  cfg.resilience.fallback_cell_m = parsed.get_double("fallback-cell");
  if (parsed.has("objectives")) {
    cfg.objectives = service::adaptive::parse_objective_spec(parsed.get("objectives"));
  }

  std::cout << "serve-sim: " << data.size() << " users, " << data.total_events() << " events | "
            << cfg.workers << " workers, queue "
            << cfg.queue_capacity << " | eps " << cfg.epsilon << ", budget "
            << parsed.get("budget-reports") << " reports/" << cfg.budget_window_s << " s\n";
  if (cfg.objectives.has_value()) {
    std::cout << "objectives: " << service::adaptive::to_string(*cfg.objectives) << "\n";
  }
  if (cfg.faults.any()) {
    std::cout << "faults: " << service::to_string(cfg.faults) << " | policy "
              << service::to_string(cfg.resilience.policy) << ", retries "
              << cfg.resilience.max_retries << ", deadline " << cfg.resilience.deadline_us
              << " us, breaker " << cfg.resilience.breaker.failure_threshold << "@"
              << cfg.resilience.breaker.cooldown_s << " s\n";
  }
  std::cout << "\n";

  service::StreamAuditor auditor;
  const bool audit = parsed.get_flag("audit");
  service::Gateway gateway(cfg, [&auditor, audit](const service::ProtectedReport& r) {
    if (audit) auditor.record(r);
  });
  service::LoadDriverConfig load_cfg;
  load_cfg.rate_multiplier = parsed.get_double("rate");
  const service::LoadResult load = service::replay_dataset(data, gateway, load_cfg);
  const service::TelemetrySnapshot snap = gateway.telemetry().snapshot();

  io::Table table({"outcome", "count", "share"});
  const auto share = [&](std::uint64_t n) {
    return io::Table::num(
        snap.received > 0 ? static_cast<double>(n) / static_cast<double>(snap.received) : 0.0, 3);
  };
  table.add_row({"delivered", std::to_string(snap.delivered), share(snap.delivered)});
  table.add_row(
      {"suppressed (budget)", std::to_string(snap.suppressed_budget),
       share(snap.suppressed_budget)});
  table.add_row({"rejected (queue full)", std::to_string(snap.rejected_queue_full),
                 share(snap.rejected_queue_full)});
  table.add_row({"degraded (suppressed)", std::to_string(snap.degraded_suppressed),
                 share(snap.degraded_suppressed)});
  table.add_row({"degraded (fallback cloak)", std::to_string(snap.degraded_fallback),
                 share(snap.degraded_fallback)});
  table.print(std::cout);

  if (cfg.faults.any() || snap.downstream_attempts > 0) {
    std::cout << "\ndownstream: " << snap.downstream_attempts << " attempts, "
              << snap.downstream_failures << " failures, " << snap.downstream_retries
              << " retries (backoff p50 " << static_cast<long long>(snap.backoff_p50_us)
              << " us, p95 " << static_cast<long long>(snap.backoff_p95_us) << " us)\n"
              << "breaker: " << snap.breaker_trips << " trips, " << snap.breaker_short_circuits
              << " short-circuits | deadline exceeded: " << snap.deadline_exceeded << "\n"
              << "injected: " << snap.injected_burst_rejects << " burst rejects, "
              << snap.worker_stalls << " stalls, " << snap.clock_skews << " clock skews\n";
  }

  std::cout << "\nthroughput: " << static_cast<long long>(load.events_per_sec)
            << " events/sec (" << [&] {
                 std::ostringstream wall;
                 wall << std::fixed << std::setprecision(2) << load.wall_seconds;
                 return wall.str();
               }() << " s wall)\n"
            << "latency us: p50 " << static_cast<long long>(snap.latency_p50_us) << ", p95 "
            << static_cast<long long>(snap.latency_p95_us) << ", p99 "
            << static_cast<long long>(snap.latency_p99_us) << "\n"
            << "eps spend in window: p50 " << io::Table::num(snap.eps_p50, 4) << ", max "
            << io::Table::num(snap.eps_max_seen, 4) << " (budget " << cfg.budget_eps << ")\n"
            << "sessions: " << snap.sessions_created << " created, " << snap.sessions_evicted_idle
            << " idle-evicted, " << snap.sessions_evicted_lru << " lru-evicted\n";

  if (const service::adaptive::ControlLog* log = gateway.control_log(); log != nullptr) {
    std::cout << "adaptive: " << log->decision_count() << " decisions over " << log->user_count()
              << " controlled users, " << log->users_in_band_final()
              << " in their objective band at end\n";
  }

  if (audit) {
    std::cout << "\nsession audit (" << auditor.recorded() << " delivered pairs, "
              << parsed.get("privacy-metric") << " + " << parsed.get("utility-metric") << "):\n";
    const std::vector<std::shared_ptr<const metrics::Metric>> audit_metrics = {
        std::shared_ptr<const metrics::Metric>(
            metrics::create_metric(parsed.get("privacy-metric"))),
        std::shared_ptr<const metrics::Metric>(
            metrics::create_metric(parsed.get("utility-metric")))};
    for (const service::StreamAuditor::MetricValue& mv : auditor.evaluate(audit_metrics)) {
      std::cout << "  " << mv.name << " (" << (mv.privacy ? "privacy" : "utility") << ") = "
                << io::Table::num(mv.value, 4) << "\n";
    }
  }

  if (parsed.has("out")) {
    io::JsonObject merged = gateway.telemetry().to_json().as_object();
    if (parsed.has("trace")) {
      // Merge the tracer's counter block into the telemetry report so
      // one file carries both views of the run.
      merged.emplace("obs_counters", obs::Tracer::instance().counters_json());
    }
    if (const service::adaptive::ControlLog* log = gateway.control_log(); log != nullptr) {
      merged.emplace("adaptive", log->to_json());
    }
    io::write_json_file(parsed.get("out"), io::JsonValue(std::move(merged)));
    std::cout << "wrote telemetry to " << parsed.get("out") << "\n";
  }
  maybe_write_trace(parsed);
  return 0;
}

int cmd_list_mechanisms(const Args& args) {
  io::ArgParser parser("list-mechanisms", "list built-in mechanisms and their parameters");
  const io::ParsedArgs parsed = parser.parse(args);
  (void)parsed;
  for (const std::string& name : lppm::mechanism_names()) {
    std::cout << name << "\n";
    print_parameter_specs(lppm::create_mechanism(name)->parameters());
  }
  return 0;
}

int cmd_list_metrics(const Args& args) {
  io::ArgParser parser("list-metrics", "list built-in metrics and their parameters");
  const io::ParsedArgs parsed = parser.parse(args);
  (void)parsed;
  for (const std::string& name : metrics::metric_names()) {
    const std::unique_ptr<metrics::Metric> metric = metrics::create_metric(name);
    std::cout << name << "  ["
              << (metrics::is_privacy_direction(metric->direction()) ? "privacy" : "utility")
              << "]\n";
    print_parameter_specs(metrics::metric_parameters(name));
  }
  return 0;
}

int cmd_report(const Args& args) {
  io::ArgParser parser("report", "render a markdown report from sweep/model artifacts");
  parser.add({.name = "sweep", .help = "sweep JSON from `locpriv sweep`"})
      .add({.name = "model", .help = "model JSON from `locpriv fit`"})
      .add({.name = "privacy-max", .help = "include a configuration section for this objective"})
      .add({.name = "utility-min", .help = "additional utility-floor objective"})
      .add({.name = "title", .help = "report title", .default_value = "LPPM configuration report"})
      .add({.name = "out", .help = "output markdown path", .required = true});
  const io::ParsedArgs parsed = parser.parse(args);

  // Load whatever artifacts were given; each enables a section.
  std::optional<core::SweepResult> sweep;
  if (parsed.has("sweep")) {
    sweep = core::sweep_from_json(io::read_json_file(parsed.get("sweep")));
  }
  std::optional<core::LppmModel> model;
  if (parsed.has("model")) model = core::load_model(parsed.get("model"));

  std::vector<core::Objective> objectives;
  std::optional<core::Configuration> configuration;
  if (model && (parsed.has("privacy-max") || parsed.has("utility-min"))) {
    if (parsed.has("privacy-max")) {
      objectives.push_back(
          {core::Axis::kPrivacy, core::Sense::kAtMost, parsed.get_double("privacy-max")});
    }
    if (parsed.has("utility-min")) {
      objectives.push_back(
          {core::Axis::kUtility, core::Sense::kAtLeast, parsed.get_double("utility-min")});
    }
    configuration = core::Configurator(*model).configure(objectives);
  }

  core::ReportInputs inputs;
  inputs.title = parsed.get("title");
  if (sweep) inputs.sweep = &*sweep;
  if (model) inputs.model = &*model;
  if (configuration) {
    inputs.configuration = &*configuration;
    inputs.objectives = objectives;
  }
  core::write_markdown_report(parsed.get("out"), inputs);
  std::cout << "wrote report to " << parsed.get("out") << "\n";
  return 0;
}

std::string main_usage() {
  std::ostringstream os;
  os << "locpriv — easy configuration of Location Privacy Protection Mechanisms\n"
     << "usage: locpriv <command> [options]\n\n"
     << "commands:\n"
     << "  generate   synthesize a mobility dataset (taxi / commuter)\n"
     << "  profile    dataset properties + PCA ranking            (step 1)\n"
     << "  sweep      automated (Pr, Ut) sweep of a mechanism     (step 2a)\n"
     << "  fit        fit the invertible log-linear model         (step 2b)\n"
     << "  configure  invert the model against objectives         (step 3)\n"
     << "  protect    apply a configured mechanism to a dataset\n"
     << "  audit      evaluate every metric on actual vs protected data\n"
     << "  validate   k-fold cross-validation of the model\n"
     << "  report     render a markdown report from sweep/model artifacts\n"
     << "  compare    sweep several mechanisms and rank their trade-offs\n"
     << "  clean      drop GPS glitches and stuck fixes from a dataset CSV\n"
     << "  convert    convert a dataset between CSV and the binary format\n"
     << "  serve-sim  single-process gateway simulation (replay a workload in-process)\n"
     << "  serve      network front end: N shard processes over unix/tcp sockets\n"
     << "  ping       probe a running serve instance (submit / telemetry / drain)\n"
     << "  list-mechanisms  built-in mechanisms with their ParameterSpecs\n"
     << "  list-metrics     built-in metrics with their ParameterSpecs\n\n"
     << "run `locpriv <command> --help`-free: any parse error prints that command's usage.\n";
  return os.str();
}

}  // namespace locpriv::cli
