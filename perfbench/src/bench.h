// Shared pieces of the repository benchmark: run options, the result
// record every workload fills, the host block, the in-memory span log of
// traced runs, and small order statistics.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace/dataset.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;  ///< traced run: per-layer metrics instead of end-to-end
  bool smoke = false;  ///< tiny inputs, every gate still asserted
};

/// What the host can actually run in parallel, measured with spinning
/// processes rather than taken from the CPU count.
struct Host {
  int nproc = 1;
  double spin_ms = 0.0;            ///< t(1): one core's speed, to spot host drift
  double effective_cores_2 = 0.0;  ///< 2 x t(1) / t(2)
  double effective_cores_n = 0.0;  ///< nproc x t(1) / t(nproc)
  /// The one CPU the run is confined to after measuring (see
  /// pin_to_one_cpu); -1 when pinning failed.
  int pinned_cpu = -1;
  /// CPU the benchmark's own load generator used over the measured
  /// window, as a share of the one CPU the run is pinned to; 0 where no
  /// generator runs.
  double loadgen_cpu_share = 0.0;
};

/// Forks 1, 2 and nproc spinning processes in turn and times them. Call
/// while the process is still single-threaded.
[[nodiscard]] Host measure_host();

/// Confines this process, and every process and thread it starts later,
/// to one CPU. The effective core count of a shared host swings between
/// 1 and nproc from minute to minute while one core's speed holds, so
/// one CPU is the only share the benchmark can count on; its figures are
/// per-core costs. Records the CPU in host.pinned_cpu.
void pin_to_one_cpu(Host& host);

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// The outcome of one run. Both metric maps are always filled; the
/// printer emits end-to-end ones for untraced runs and per-layer ones
/// for traced runs.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::vector<std::string> gate_failures;

  /// Records a correctness gate; a failed gate fails the run.
  void gate(bool ok, const std::string& what);
  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end[name] = {value, unit};
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer[name] = {value, unit};
  }
};

/// Spans recorded from the benchmark's own code around calls into a
/// layer. Kept in memory and written as a Chrome trace when the run ends;
/// disabled spans cost one branch.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  class Scope {
   public:
    Scope(SpanLog& log, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    int index_ = -1;
    int saved_parent_ = -1;
  };

  /// Adds a span timed elsewhere (another thread), under the open scope.
  void record(const char* name, Clock::time_point start, Clock::time_point end);

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  /// Chrome trace-event JSON ("X" events, parent index in args).
  void write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
  };
  [[nodiscard]] std::int64_t ns(Clock::time_point t) const;

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  int open_ = -1;
};

/// Nearest-rank quantile (q in [0, 1]) of `v`; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// The seeded taxi fleet every workload runs on (the cabspotting
/// substitute): `drivers` 10 h shifts, each reporting every 45-75 s, about
/// 60 reports an hour like the real fleet. The narrow interval keeps the
/// work per fleet close from one seed to the next.
[[nodiscard]] locpriv::trace::Dataset make_fleet(std::size_t drivers, std::uint64_t seed);

/// Process CPU (user + system) of the calling process, in seconds.
[[nodiscard]] double self_cpu_seconds();

/// Every metric name the benchmark declares, with its unit, so that each
/// workload reports the same set (workloads that do not exercise a layer
/// report 0 for it).
struct MetricSpec {
  const char* name;
  const char* unit;
};
extern const std::vector<MetricSpec> kEndToEnd;
extern const std::vector<MetricSpec> kPerLayer;

Result run_offline(const Options& opt, Host& host, SpanLog& spans);
Result run_serve(const Options& opt, Host& host, SpanLog& spans);

}  // namespace perfbench
