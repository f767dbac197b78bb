// perfbench — the repository benchmark.
//
//   perfbench --workload <offline-configure|serve-steady|serve-churn>
//             --seed <n> --seconds <s> --trace <0|1> [--smoke] [--work-dir DIR]
//
// Builds the workload's inputs from --seed, measures for --seconds, checks
// every correctness gate, and prints as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Exits 1 when a
// gate fails. perfbench/README.md documents every metric.
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench.h"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <offline-configure|serve-steady|serve-churn> "
               "--seed N --seconds S --trace 0|1 [--smoke] [--work-dir DIR]\n";
  std::exit(2);
}

Options parse(int argc, char** argv, std::string& work_dir) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        o.workload = value();
        have_workload = true;
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
      } else if (a == "--trace") {
        const std::string t = value();
        if (t != "0" && t != "1") usage("--trace takes 0 or 1");
        o.trace = t == "1";
      } else if (a == "--smoke") {
        o.smoke = true;
      } else if (a == "--work-dir") {
        work_dir = value();
      } else {
        usage("unknown option " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

void print_metrics(const std::map<std::string, Metric>& m) {
  bool first = true;
  for (const auto& [name, metric] : m) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ", name.c_str(),
                metric.value, metric.unit.c_str());
    first = false;
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string work_dir = ".";
  const Options opt = parse(argc, argv, work_dir);
  if (opt.workload != "offline-configure" && opt.workload != "serve-steady" &&
      opt.workload != "serve-churn") {
    usage("unknown workload '" + opt.workload + "'");
  }
  std::filesystem::create_directories(work_dir);
  if (chdir(work_dir.c_str()) != 0) usage("cannot enter --work-dir " + work_dir);

  // A shard that dies mid-write must surface as a write error, not kill
  // the generator.
  std::signal(SIGPIPE, SIG_IGN);
  Host host = measure_host();
  pin_to_one_cpu(host);
  SpanLog spans(opt.trace);
  Result r;
  try {
    r = opt.workload == "offline-configure" ? run_offline(opt, host, spans)
                                            : run_serve(opt, host, spans);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " aborted: " << e.what() << "\n";
    return 1;
  }

  // Every workload reports the whole declared set; a layer the workload
  // does not exercise did no work and reads 0.
  for (const MetricSpec& m : kPerLayer) r.per_layer.try_emplace(m.name, Metric{0.0, m.unit});
  r.layer("host.nproc", host.nproc, "count");
  r.layer("host.effective_cores", host.effective_cores_n, "cores");
  r.layer("host.loadgen_cpu_share", host.loadgen_cpu_share, "frac");
  for (const MetricSpec& m : kEndToEnd) {
    if (!r.end_to_end.count(m.name)) r.gate(false, std::string("metric not measured: ") + m.name);
  }
  if (spans.enabled()) {
    const std::string path = "trace-" + opt.workload + "-" + std::to_string(opt.seed) + ".json";
    spans.write(path);
    std::printf("spans: %zu written to %s/%s\n", spans.size(), work_dir.c_str(), path.c_str());
  }

  std::printf("host: {\"nproc\": %d, \"spin_ms\": %.2f, "
              "\"effective_cores\": {\"1\": 1, \"2\": %.3f, \"%d\": %.3f}, "
              "\"pinned_cpu\": %d, \"loadgen_cpu_share\": %.4f}\n",
              host.nproc, host.spin_ms, host.effective_cores_2, host.nproc, host.effective_cores_n,
              host.pinned_cpu, host.loadgen_cpu_share);
  for (const auto& [name, m] : r.end_to_end) {
    std::printf("  %-28s %14.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  if (opt.trace) {
    for (const auto& [name, m] : r.per_layer) {
      std::printf("  %-28s %14.6g %s\n", name.c_str(), m.value, m.unit.c_str());
    }
  }
  for (const std::string& g : r.gate_failures) std::printf("GATE FAILED: %s\n", g.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  print_metrics(opt.trace ? r.per_layer : r.end_to_end);
  std::printf("}}\n");
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
