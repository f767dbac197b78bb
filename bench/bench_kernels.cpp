// Kernel benchmarks for the hot-path rewrites (BENCH_kernels.json).
//
// Five sections, each with a built-in correctness check so a fast-but-
// wrong kernel can never post a number:
//
//   djcluster      the GridIndex rewrite of extract_pois_djcluster vs the
//                  original KdTree implementation (materialized O(n·k)
//                  neighborhood vectors, reproduced verbatim below) on a
//                  dense cab-like trace. Outputs must match bit for bit.
//   columnar       the PR 8 structure-of-arrays feature kernels (path
//                  length, radius of gyration, grid coverage) over
//                  contiguous x/y columns vs the same kernels over the
//                  pre-refactor vector<Event> layout; coverage's
//                  reference is the node-based cell set, reproduced
//                  verbatim below. Bit-identical / same cells.
//   storage        dataset load paths: CSV parse vs the checksummed
//                  binary format via one heap read and via mmap.
//   grid_vs_kdtree fixed-radius query microbenchmark: queries/sec of the
//                  KdTree vector form against the GridIndex vector,
//                  visitor, and count forms on the same point set.
//   evaluate_point trial-parallel scaling of the flattened (point, trial)
//                  scheduler, 1 vs 8 threads. The headline number uses a
//                  latency-bound mechanism (a simulated protection-service
//                  round trip per trace, same device as the service
//                  throughput bench) so the overlap is measurable even on
//                  a single-core CI box; the cpu-bound number is reported
//                  alongside the visible core count for context.
//
// Presets: --preset full (default, the committed baseline) or smoke (CI
// seconds-scale); --out overrides the JSON path.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <iostream>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/experiment.h"
#include "core/system_definition.h"
#include "geo/grid_index.h"
#include "geo/kdtree.h"
#include "io/args.h"
#include "io/json.h"
#include "io/table.h"
#include "poi/djcluster.h"
#include "geo/grid.h"
#include "geo/polyline.h"
#include "stats/rng.h"
#include "synth/scenario.h"
#include "trace/trace.h"
#include "trace/trace_io.h"

namespace {

using namespace locpriv;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

bool bits_equal(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

// ------------------------------------------------------------ djcluster

/// The pre-rewrite extract_pois_djcluster, verbatim: KdTree index plus a
/// materialized neighborhood vector per point — the O(n·k) memory churn
/// the GridIndex rewrite eliminates.
std::vector<poi::Poi> reference_djcluster(const trace::Trace& t, const poi::DjClusterConfig& cfg) {
  const std::size_t n = t.size();
  if (n == 0) return {};
  // The original copied the events into a Point vector; the same gather
  // off today's coordinate columns is byte-equivalent.
  std::vector<geo::Point> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) pts.push_back({t.xs()[i], t.ys()[i]});
  const geo::KdTree index(pts);

  std::vector<std::vector<std::size_t>> neighborhoods(n);
  std::vector<bool> is_core(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    neighborhoods[i] = index.within_radius(pts[i], cfg.eps_m);
    is_core[i] = neighborhoods[i].size() >= cfg.min_pts;
  }

  constexpr std::size_t kUnassigned = static_cast<std::size_t>(-1);
  std::vector<std::size_t> cluster_of(n, kUnassigned);
  std::size_t cluster_count = 0;
  std::vector<std::size_t> stack;
  for (std::size_t seed = 0; seed < n; ++seed) {
    if (!is_core[seed] || cluster_of[seed] != kUnassigned) continue;
    const std::size_t cluster = cluster_count++;
    stack.assign(1, seed);
    cluster_of[seed] = cluster;
    while (!stack.empty()) {
      const std::size_t i = stack.back();
      stack.pop_back();
      for (const std::size_t j : neighborhoods[i]) {
        if (cluster_of[j] != kUnassigned) continue;
        cluster_of[j] = cluster;
        if (is_core[j]) stack.push_back(j);
      }
    }
  }

  struct Accumulator {
    geo::Point sum{0, 0};
    std::size_t count = 0;
    trace::Timestamp dwell = 0;
  };
  std::vector<Accumulator> acc(cluster_count);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = cluster_of[i];
    if (c == kUnassigned) continue;
    acc[c].sum += pts[i];
    ++acc[c].count;
    if (i + 1 < n) acc[c].dwell += t[i + 1].time - t[i].time;
  }

  std::vector<poi::Poi> pois;
  pois.reserve(cluster_count);
  for (const Accumulator& a : acc) {
    poi::Poi p;
    p.center = a.sum / static_cast<double>(a.count);
    p.visit_count = a.count;
    p.total_duration = a.dwell;
    pois.push_back(p);
  }
  std::sort(pois.begin(), pois.end(),
            [](const poi::Poi& a, const poi::Poi& b) { return a.visit_count > b.visit_count; });
  return pois;
}

/// A dense cab-like day: many distinct ranks revisited with tight GPS
/// jitter, sparse cruising between them. `target_points` controls total
/// trace length; density per rank stays realistic (hundreds of reports
/// within eps of each other) rather than degenerate.
trace::Trace dense_cab_trace(std::size_t target_points, std::uint64_t seed = 2016) {
  stats::Rng rng(seed);
  std::vector<geo::Point> ranks;
  for (int i = 0; i < 200; ++i) {
    ranks.push_back({rng.uniform(0, 20'000), rng.uniform(0, 20'000)});
  }
  trace::Trace t("cab");
  trace::Timestamp now = 0;
  geo::Point here = ranks[0];
  while (t.size() < target_points) {
    const int dwell_reports = 30 + static_cast<int>(rng.uniform(0, 40));
    for (int i = 0; i < dwell_reports; ++i, now += 30) {
      t.append({now, {here.x + rng.normal() * 12.0, here.y + rng.normal() * 12.0}});
    }
    const geo::Point next = ranks[static_cast<std::size_t>(
        rng.uniform(0, static_cast<double>(ranks.size()) - 1e-9))];
    for (int i = 1; i <= 8; ++i, now += 30) {
      const geo::Point on_path = geo::lerp(here, next, static_cast<double>(i) / 9.0);
      t.append({now, {on_path.x + rng.normal() * 25.0, on_path.y + rng.normal() * 25.0}});
    }
    here = next;
  }
  return t;
}

bool pois_bit_identical(const std::vector<poi::Poi>& a, const std::vector<poi::Poi>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!bits_equal(a[i].center.x, b[i].center.x) || !bits_equal(a[i].center.y, b[i].center.y) ||
        a[i].visit_count != b[i].visit_count || a[i].total_duration != b[i].total_duration) {
      return false;
    }
  }
  return true;
}

io::JsonObject bench_djcluster(std::size_t points, double& speedup_out, bool& identical_out,
                               io::Table& table) {
  const trace::Trace t = dense_cab_trace(points);
  poi::DjClusterConfig cfg;
  cfg.eps_m = 100.0;
  cfg.min_pts = 10;

  // Warm-up (page in the trace, prime allocators), then min-of-3 timed
  // runs per side — the minimum is the least noise-contaminated sample
  // on a shared CI box.
  (void)poi::extract_pois_djcluster(t, cfg);

  std::vector<poi::Poi> old_pois, new_pois;
  double old_seconds = std::numeric_limits<double>::infinity();
  double new_seconds = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 3; ++rep) {
    const auto old_start = Clock::now();
    old_pois = reference_djcluster(t, cfg);
    old_seconds = std::min(old_seconds, seconds_since(old_start));

    const auto new_start = Clock::now();
    new_pois = poi::extract_pois_djcluster(t, cfg);
    new_seconds = std::min(new_seconds, seconds_since(new_start));
  }

  const bool identical = pois_bit_identical(old_pois, new_pois);
  const double speedup = new_seconds > 0.0 ? old_seconds / new_seconds : 0.0;
  speedup_out = speedup;
  identical_out = identical;

  table.add_row({"djcluster " + std::to_string(t.size()) + " pts",
                 io::Table::num(old_seconds, 4) + " s", io::Table::num(new_seconds, 4) + " s",
                 io::Table::num(speedup, 2) + "x", identical ? "yes" : "NO"});

  io::JsonObject out;
  out["points"] = t.size();
  out["eps_m"] = cfg.eps_m;
  out["min_pts"] = cfg.min_pts;
  out["pois"] = new_pois.size();
  out["old_seconds"] = old_seconds;
  out["new_seconds"] = new_seconds;
  out["speedup"] = speedup;
  out["bit_identical"] = identical;
  return out;
}

// ------------------------------------------------------------- columnar

/// Reference for the coverage kernel: a node-based cell set filled by
/// hashing and inserting every point of an Event range, one heap node
/// per distinct cell. The flat geo::CellSet must hold exactly its cells.
using ReferenceCellSet = std::unordered_set<geo::CellIndex, geo::CellIndexHash>;

template <typename Range, typename Proj>
ReferenceCellSet reference_covered_cells(const geo::Grid& grid, const Range& range, Proj proj) {
  ReferenceCellSet cells;
  cells.reserve(std::size(range) / 4 + 1);
  for (const auto& item : range) cells.insert(grid.cell_of(proj(item)));
  return cells;
}

/// True when the flat set holds exactly the reference's cells.
bool same_cells(const ReferenceCellSet& reference, const geo::CellSet& cells) {
  return reference.size() == cells.size() &&
         std::all_of(reference.begin(), reference.end(),
                     [&](geo::CellIndex c) { return cells.contains(c); });
}

/// Columnar feature kernels (PR 8) against the pre-refactor layout: a
/// materialized vector<Event> (exactly what Trace used to store) driven
/// through the range+projection template kernels, vs the same kernels
/// over the trace's contiguous x/y columns. Path length, radius of
/// gyration, and grid coverage are each timed separately; results are
/// gated bit for bit (coverage on exact set membership) before timing.
/// Coverage's reference side is the node-based set above.
io::JsonObject bench_columnar(std::size_t points, double& speedup_out, bool& identical_out,
                              io::Table& table) {
  const trace::Trace t = dense_cab_trace(points, 77);
  const geo::Grid grid(115.0);
  const auto location = [](const trace::Event& e) { return e.location; };

  // The old storage layout, reproduced verbatim: one Event struct per
  // report, interleaving time and coordinates in memory.
  const std::vector<trace::Event> events(t.begin(), t.end());

  const std::span<const double> xs = t.xs();
  const std::span<const double> ys = t.ys();

  // Correctness gates before any timing. Coverage is gated on full set
  // membership, not just the count — the columnar overload takes a
  // different path (arithmetic floor, consecutive-cell dedup, flat probe
  // table) and must land on exactly the same cells.
  const double len_aos = geo::path_length(events, location);
  const double len_col = geo::path_length(xs, ys);
  const double rog_aos = geo::radius_of_gyration(events, location);
  const double rog_col = geo::radius_of_gyration(xs, ys);
  const bool identical = bits_equal(len_aos, len_col) && bits_equal(rog_aos, rog_col) &&
                         same_cells(reference_covered_cells(grid, events, location),
                                    grid.covered_cells(xs, ys));

  // The kernels are microseconds-scale on 50k points, so each timed
  // sample runs `reps` passes; min-of-3 samples per kernel and side.
  // Kernels are timed separately because they bound differently: the FP
  // reductions (path length, radius of gyration) must replicate the
  // heap engine's operation order bit for bit, which pins both layouts
  // to the same serial dependency chain — the columns match but cannot
  // beat it. Coverage is where the layout pays: its result is a set, so
  // the ordered-column scan can dedup consecutive cells, floor
  // arithmetically and fill a flat table while producing the same cells.
  const int reps = 40;
  const auto time_kernel = [&](auto&& body) {
    double best = std::numeric_limits<double>::infinity();
    double sink = 0.0;
    for (int sample = 0; sample < 3; ++sample) {
      const auto start = Clock::now();
      for (int r = 0; r < reps; ++r) sink += body();
      best = std::min(best, seconds_since(start));
    }
    // Fold the sink into the result so the passes cannot be elided.
    return sink == sink ? best / reps : 0.0;
  };
  struct KernelRow {
    const char* name;
    double aos_seconds;
    double col_seconds;
    [[nodiscard]] double speedup() const {
      return col_seconds > 0.0 ? aos_seconds / col_seconds : 0.0;
    }
  };
  const auto reference_count = [&] {
    return static_cast<double>(reference_covered_cells(grid, events, location).size());
  };
  const auto columnar_count = [&] {
    return static_cast<double>(grid.covered_cells(xs, ys).size());
  };
  const KernelRow rows[] = {
      // A coverage count is covered_cells(...).size(), so the two
      // coverage rows time the same pair of builds; both names stay in
      // the BENCH_kernels.json schema.
      {"coverage_count", time_kernel(reference_count), time_kernel(columnar_count)},
      {"covered_cells", time_kernel(reference_count), time_kernel(columnar_count)},
      {"path_length", time_kernel([&] { return geo::path_length(events, location); }),
       time_kernel([&] { return geo::path_length(xs, ys); })},
      {"radius_of_gyration",
       time_kernel([&] { return geo::radius_of_gyration(events, location); }),
       time_kernel([&] { return geo::radius_of_gyration(xs, ys); })},
  };

  // Headline: the coverage kernel, the one whose set contract lets the
  // columnar layout restructure the work end to end.
  speedup_out = rows[0].speedup();
  identical_out = identical;

  io::JsonObject out;
  out["points"] = t.size();
  out["reps"] = static_cast<std::size_t>(reps);
  for (const KernelRow& row : rows) {
    table.add_row({std::string(row.name) + " " + std::to_string(t.size()) + " pts",
                   io::Table::num(row.aos_seconds * 1e6, 1) + " us aos",
                   io::Table::num(row.col_seconds * 1e6, 1) + " us col",
                   io::Table::num(row.speedup(), 2) + "x", identical ? "yes" : "NO"});
    io::JsonObject k;
    k["aos_seconds"] = row.aos_seconds;
    k["columnar_seconds"] = row.col_seconds;
    k["speedup"] = row.speedup();
    out[row.name] = k;
  }
  out["speedup"] = speedup_out;
  out["bit_identical"] = identical;
  return out;
}

// --------------------------------------------------------------- storage

/// Load-path timings of the dataset codecs: CSV parse vs the binary
/// format through one heap read and through mmap. The binary loads are
/// additionally gated on column bit-identity against the CSV-loaded
/// arena they were saved from.
io::JsonObject bench_storage(std::size_t users, io::Table& table) {
  synth::TaxiScenarioConfig scenario;
  scenario.driver_count = users;
  const trace::Dataset data = synth::make_taxi_dataset(scenario, 2016);

  const std::string dir = "/tmp";
  const std::string csv_path = dir + "/locpriv_bench_storage.csv";
  const std::string bin_path = dir + "/locpriv_bench_storage.lpds";
  trace::save_dataset(csv_path, data, {.format = trace::SaveOptions::Format::kCsv});
  trace::save_dataset(bin_path, data, {.format = trace::SaveOptions::Format::kBinary});

  const auto time_load = [&](const std::string& path, bool use_mmap) {
    trace::LoadOptions opts;
    opts.use_mmap = use_mmap;
    double best = std::numeric_limits<double>::infinity();
    std::size_t sink = 0;
    for (int rep = 0; rep < 3; ++rep) {
      const auto start = Clock::now();
      const trace::Dataset loaded = trace::load_dataset(path, opts);
      best = std::min(best, seconds_since(start));
      sink += loaded.total_events();
    }
    return sink > 0 ? best : best;
  };
  const double csv_seconds = time_load(csv_path, false);
  const double heap_seconds = time_load(bin_path, false);
  const double mmap_seconds = time_load(bin_path, true);

  // Bit-identity gate: a binary load must reproduce the saved columns.
  const auto saved = data.to_store();
  const trace::Dataset loaded = trace::load_dataset(bin_path);
  const auto lstore = loaded.store();
  const bool identical =
      lstore != nullptr && lstore->event_count() == saved->event_count() &&
      std::memcmp(lstore->xs().data(), saved->xs().data(),
                  saved->event_count() * sizeof(double)) == 0 &&
      std::memcmp(lstore->ys().data(), saved->ys().data(),
                  saved->event_count() * sizeof(double)) == 0 &&
      std::memcmp(lstore->times().data(), saved->times().data(),
                  saved->event_count() * sizeof(trace::Timestamp)) == 0;

  const double speedup = mmap_seconds > 0.0 ? csv_seconds / mmap_seconds : 0.0;
  table.add_row({"load " + std::to_string(data.total_events()) + " events",
                 io::Table::num(csv_seconds * 1e3, 2) + " ms csv",
                 io::Table::num(heap_seconds * 1e3, 2) + " ms heap / " +
                     io::Table::num(mmap_seconds * 1e3, 2) + " ms mmap",
                 io::Table::num(speedup, 1) + "x", identical ? "yes" : "NO"});

  io::JsonObject out;
  out["users"] = data.size();
  out["events"] = data.total_events();
  out["csv_seconds"] = csv_seconds;
  out["binary_heap_seconds"] = heap_seconds;
  out["binary_mmap_seconds"] = mmap_seconds;
  out["csv_over_mmap_speedup"] = speedup;
  out["bit_identical"] = identical;
  return out;
}

// ------------------------------------------------------- grid vs kdtree

io::JsonObject bench_grid_vs_kdtree(std::size_t points, io::Table& table) {
  stats::Rng rng(7);
  std::vector<geo::Point> pts;
  pts.reserve(points);
  // Half clustered, half uniform — both index regimes in one set.
  while (pts.size() < points / 2) {
    const geo::Point c{rng.uniform(0, 10'000), rng.uniform(0, 10'000)};
    for (int i = 0; i < 50 && pts.size() < points / 2; ++i) {
      pts.push_back({c.x + rng.normal() * 30.0, c.y + rng.normal() * 30.0});
    }
  }
  while (pts.size() < points) {
    pts.push_back({rng.uniform(0, 10'000), rng.uniform(0, 10'000)});
  }
  const double radius = 150.0;
  const geo::KdTree tree(pts);
  const geo::GridIndex grid(pts, radius);

  std::vector<geo::Point> queries;
  for (int i = 0; i < 2000; ++i) {
    queries.push_back({rng.uniform(0, 10'000), rng.uniform(0, 10'000)});
  }

  // Correctness first: all forms agree on total hit count.
  std::size_t kd_total = 0, grid_vec_total = 0, grid_visit_total = 0, grid_count_total = 0;
  for (const geo::Point q : queries) {
    kd_total += tree.within_radius(q, radius).size();
    grid_vec_total += grid.within_radius(q, radius).size();
    grid.for_each_within_radius(q, radius, [&](std::size_t) { ++grid_visit_total; });
    grid_count_total += grid.count_within_radius(q, radius);
  }
  const bool agree =
      kd_total == grid_vec_total && kd_total == grid_visit_total && kd_total == grid_count_total;

  const auto time_qps = [&](auto&& body) {
    const auto start = Clock::now();
    std::size_t sink = 0;
    for (const geo::Point q : queries) sink += body(q);
    const double secs = seconds_since(start);
    // Fold the sink into the timing guard so the loop cannot be elided.
    return secs > 0.0 && sink < static_cast<std::size_t>(-1)
               ? static_cast<double>(queries.size()) / secs
               : 0.0;
  };
  const double kd_qps = time_qps([&](geo::Point q) { return tree.within_radius(q, radius).size(); });
  const double grid_vec_qps =
      time_qps([&](geo::Point q) { return grid.within_radius(q, radius).size(); });
  const double grid_visit_qps = time_qps([&](geo::Point q) {
    std::size_t c = 0;
    grid.for_each_within_radius(q, radius, [&](std::size_t) { ++c; });
    return c;
  });
  const double grid_count_qps =
      time_qps([&](geo::Point q) { return grid.count_within_radius(q, radius); });

  table.add_row({"query micro " + std::to_string(points) + " pts",
                 io::Table::num(kd_qps / 1000.0, 1) + "k qps kd",
                 io::Table::num(grid_visit_qps / 1000.0, 1) + "k qps visit",
                 io::Table::num(grid_count_qps / 1000.0, 1) + "k qps count",
                 agree ? "yes" : "NO"});

  io::JsonObject out;
  out["points"] = points;
  out["queries"] = queries.size();
  out["radius_m"] = radius;
  out["kdtree_vector_qps"] = kd_qps;
  out["grid_vector_qps"] = grid_vec_qps;
  out["grid_visitor_qps"] = grid_visit_qps;
  out["grid_count_qps"] = grid_count_qps;
  out["agree"] = agree;
  return out;
}

// ------------------------------------------------------- evaluate_point

/// Wraps a mechanism with a simulated protection-service round trip per
/// protected trace — the same modeling device as the service throughput
/// bench: the wait dominates per-trial cost, so trial-parallel workers
/// overlap it even on a single-core box and the scheduler's scaling is
/// measurable independent of the machine's core count.
class LatencyBoundMechanism final : public lppm::Mechanism {
 public:
  LatencyBoundMechanism(std::unique_ptr<lppm::Mechanism> inner, std::chrono::microseconds rpc)
      : inner_(std::move(inner)), rpc_(rpc) {}

  [[nodiscard]] const std::string& name() const override { return inner_->name(); }
  [[nodiscard]] const std::vector<lppm::ParameterSpec>& parameters() const override {
    return inner_->parameters();
  }
  void set_parameter(const std::string& param, double value) override {
    inner_->set_parameter(param, value);
  }
  [[nodiscard]] double parameter(const std::string& param) const override {
    return inner_->parameter(param);
  }
  [[nodiscard]] trace::Trace protect(const trace::Trace& input,
                                     std::uint64_t seed) const override {
    std::this_thread::sleep_for(rpc_);
    return inner_->protect(input, seed);
  }

 private:
  std::unique_ptr<lppm::Mechanism> inner_;
  std::chrono::microseconds rpc_;
};

struct ScalingRun {
  double t1_seconds = 0.0;
  double t8_seconds = 0.0;
  double scaling = 0.0;
  bool bit_identical = false;
};

ScalingRun time_evaluate_point(const core::SystemDefinition& def, const trace::Dataset& data,
                               std::size_t trials) {
  const double value = core::sweep_values(def.sweep).front();
  // Warm-up.
  (void)core::evaluate_point(def, data, value, 1, 42, nullptr, 1);

  const auto s1 = Clock::now();
  const core::SweepPoint serial = core::evaluate_point(def, data, value, trials, 42, nullptr, 1);
  ScalingRun run;
  run.t1_seconds = seconds_since(s1);

  const auto s8 = Clock::now();
  const core::SweepPoint wide = core::evaluate_point(def, data, value, trials, 42, nullptr, 8);
  run.t8_seconds = seconds_since(s8);

  run.scaling = run.t8_seconds > 0.0 ? run.t1_seconds / run.t8_seconds : 0.0;
  run.bit_identical = bits_equal(serial.privacy_mean, wide.privacy_mean) &&
                      bits_equal(serial.utility_mean, wide.utility_mean) &&
                      bits_equal(serial.privacy_stddev, wide.privacy_stddev) &&
                      bits_equal(serial.utility_stddev, wide.utility_stddev);
  return run;
}

io::JsonObject bench_evaluate_point(bool smoke, double& scaling_out, bool& identical_out,
                                    io::Table& table) {
  // Small fleet: the dataset is deliberately light so the simulated RPC
  // (latency-bound) or the mechanism+metric math (cpu-bound) dominates,
  // not dataset construction.
  synth::TaxiScenarioConfig scenario;
  scenario.driver_count = 2;
  scenario.taxi.shift_duration_s = 3600;
  const trace::Dataset data = synth::make_taxi_dataset(scenario, 2016);
  const std::size_t trials = smoke ? 8 : 16;

  core::SystemDefinition latency_def = core::make_geo_i_system(2);
  const core::MechanismFactory inner = latency_def.mechanism_factory;
  const auto rpc = std::chrono::microseconds(smoke ? 10'000 : 25'000);
  latency_def.mechanism_factory = [inner, rpc] {
    return std::make_unique<LatencyBoundMechanism>(inner(), rpc);
  };
  const ScalingRun latency = time_evaluate_point(latency_def, data, trials);

  const core::SystemDefinition cpu_def = core::make_geo_i_system(2);
  const ScalingRun cpu = time_evaluate_point(cpu_def, data, trials);

  scaling_out = latency.scaling;
  identical_out = latency.bit_identical && cpu.bit_identical;

  const unsigned cores = std::thread::hardware_concurrency();
  table.add_row({"evaluate_point latency-bound", io::Table::num(latency.t1_seconds, 4) + " s",
                 io::Table::num(latency.t8_seconds, 4) + " s",
                 io::Table::num(latency.scaling, 2) + "x",
                 latency.bit_identical ? "yes" : "NO"});
  table.add_row({"evaluate_point cpu-bound (" + std::to_string(cores) + " core)",
                 io::Table::num(cpu.t1_seconds, 4) + " s", io::Table::num(cpu.t8_seconds, 4) + " s",
                 io::Table::num(cpu.scaling, 2) + "x", cpu.bit_identical ? "yes" : "NO"});

  io::JsonObject out;
  out["trials"] = trials;
  out["threads_wide"] = std::size_t{8};
  out["rpc_us"] = static_cast<std::size_t>(rpc.count());
  io::JsonObject lat;
  lat["t1_seconds"] = latency.t1_seconds;
  lat["t8_seconds"] = latency.t8_seconds;
  lat["scaling"] = latency.scaling;
  lat["bit_identical"] = latency.bit_identical;
  out["latency_bound"] = lat;
  io::JsonObject cpu_row;
  cpu_row["t1_seconds"] = cpu.t1_seconds;
  cpu_row["t8_seconds"] = cpu.t8_seconds;
  cpu_row["scaling"] = cpu.scaling;
  cpu_row["bit_identical"] = cpu.bit_identical;
  cpu_row["cores"] = static_cast<std::size_t>(cores);
  out["cpu_bound"] = cpu_row;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  io::ArgParser parser("bench_kernels", "hot-path kernel benchmarks (PR 5)");
  parser.add({.name = "preset", .help = "full | smoke", .default_value = "full"})
      .add({.name = "out", .help = "output JSON path", .default_value = "BENCH_kernels.json"});
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
  // The smoke clustering workload stays large enough (20k points) that
  // the old/new ratio is in the full preset's regime — tiny traces
  // under-state the speedup and trip the CI regression gate on noise.
  const std::size_t dj_points = smoke ? 20'000 : 50'000;
  const std::size_t micro_points = smoke ? 5'000 : 50'000;

  std::cout << "kernel bench, preset " << preset << " ("
            << std::thread::hardware_concurrency() << " visible cores)\n\n";
  io::Table table({"section", "baseline", "optimized", "ratio", "bit-identical"});

  double dj_speedup = 0.0, ep_scaling = 0.0, col_speedup = 0.0;
  bool dj_identical = false, ep_identical = false, col_identical = false;
  const io::JsonObject dj = bench_djcluster(dj_points, dj_speedup, dj_identical, table);
  const io::JsonObject col = bench_columnar(dj_points, col_speedup, col_identical, table);
  const io::JsonObject storage = bench_storage(smoke ? 4 : 16, table);
  const io::JsonObject micro = bench_grid_vs_kdtree(micro_points, table);
  const io::JsonObject ep = bench_evaluate_point(smoke, ep_scaling, ep_identical, table);
  table.print(std::cout);

  const bool micro_agree = [&] {
    const auto it = micro.find("agree");
    return it != micro.end() && it->second.is_bool() && it->second.as_bool();
  }();
  const bool storage_identical = [&] {
    const auto it = storage.find("bit_identical");
    return it != storage.end() && it->second.is_bool() && it->second.as_bool();
  }();
  const bool all_identical =
      dj_identical && ep_identical && micro_agree && col_identical && storage_identical;

  io::JsonObject out;
  out["bench"] = std::string("kernels");
  out["preset"] = preset;
  out["cores"] = static_cast<std::size_t>(std::thread::hardware_concurrency());
  out["djcluster"] = dj;
  out["columnar"] = col;
  out["storage"] = storage;
  out["grid_vs_kdtree"] = micro;
  out["evaluate_point"] = ep;
  out["djcluster_speedup"] = dj_speedup;
  out["columnar_speedup"] = col_speedup;
  out["evaluate_point_scaling"] = ep_scaling;
  out["bit_identical"] = all_identical;
  io::write_json_file(args.get("out"), io::JsonValue(out));
  std::cout << "\nwrote " << args.get("out") << " (djcluster " << io::Table::num(dj_speedup, 2)
            << "x, columnar " << io::Table::num(col_speedup, 2)
            << "x, evaluate_point latency-bound scaling " << io::Table::num(ep_scaling, 2)
            << "x)\n";
  if (!all_identical) {
    std::cout << "FAIL: an optimized kernel diverged from its reference bits\n";
    return 1;
  }
  return 0;
}
