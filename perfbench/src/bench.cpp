#include "bench.h"

#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "synth/scenario.h"

namespace perfbench {

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},        {"p50_ms", "ms"}, {"p99_ms", "ms"},
    {"cpu_us_per_op", "us"}, {"mem_mb", "MB"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"host.nproc", "count"},
    {"host.effective_cores", "cores"},
    {"host.loadgen_cpu_share", "frac"},
    {"tracing.overhead_frac", "frac"},
    {"trace.load_ms", "ms"},
    {"core.sweep_s", "s"},
    {"core.fit_ms", "ms"},
    {"core.invert_us", "us"},
    {"core.sweep_busy_frac", "frac"},
    {"lppm.protect_s", "s"},
    {"lppm.protect_ns_per_event", "ns"},
    {"poi.extract_ms", "ms"},
    {"metrics.privacy_eval_s", "s"},
    {"metrics.utility_eval_s", "s"},
    {"metrics.cache_hits", "count"},
    {"metrics.cache_misses", "count"},
    {"metrics.cache_hit_frac", "frac"},
    {"metrics.cache_redundant_builds", "count"},
    {"shard.user_us_per_req", "us"},
    {"shard.sys_us_per_req", "us"},
    {"supervisor.cpu_us_per_req", "us"},
    {"shard.ctx_switches_per_req", "count"},
    {"net.codec_ns_per_frame", "ns"},
    {"service.gateway_us_per_req", "us"},
    {"lppm.session_report_ns", "ns"},
    {"service.session_acquire_ns", "ns"},
    {"service.sessions_created", "count"},
    {"service.sessions_evicted_lru", "count"},
    {"service.service_p99_us", "us"},
    {"service.suppressed_frac", "frac"},
    {"service.rejected_queue_full", "count"},
    {"service.capacity_per_s", "1/s"},
    {"shard.pss_mb", "MB"},
    {"shard.private_mb", "MB"},
    {"loadgen.late_p99_ms", "ms"},
    {"loadgen.failed_frac", "frac"},
};

namespace {

volatile std::uint64_t spin_sink = 0;

/// A dependent multiply chain the compiler cannot fold: about 1 ns per
/// step on current x86 cores.
void spin(std::uint64_t steps) {
  std::uint64_t x = static_cast<std::uint64_t>(getpid());
  for (std::uint64_t i = 0; i < steps; ++i) x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  spin_sink = x;
}

/// Wall seconds for `k` processes each spinning `steps` at once.
double time_spinners(int k, std::uint64_t steps) {
  const Clock::time_point t0 = Clock::now();
  std::vector<pid_t> kids;
  for (int i = 0; i < k; ++i) {
    const pid_t pid = fork();
    if (pid < 0) throw std::runtime_error("measure_host: fork failed");
    if (pid == 0) {
      spin(steps);
      _exit(0);
    }
    kids.push_back(pid);
  }
  for (const pid_t pid : kids) waitpid(pid, nullptr, 0);
  return seconds_between(t0, Clock::now());
}

}  // namespace

Host measure_host() {
  Host h;
  h.nproc = static_cast<int>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
  constexpr std::uint64_t kSteps = 100'000'000;
  const double t1 = time_spinners(1, kSteps);
  h.spin_ms = t1 * 1e3;
  h.effective_cores_2 = 2.0 * t1 / time_spinners(2, kSteps);
  h.effective_cores_n = h.nproc * t1 / time_spinners(h.nproc, kSteps);
  return h;
}

void pin_to_one_cpu(Host& host) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof one, &one) == 0) host.pinned_cpu = cpu;
    return;
  }
}

void Result::gate(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  gate_failures.push_back(what);
}

SpanLog::Scope::Scope(SpanLog& log, const char* name) : log_(log) {
  if (!log_.enabled_) return;
  index_ = static_cast<int>(log_.spans_.size());
  log_.spans_.push_back({name, log_.ns(Clock::now()), 0, log_.open_});
  saved_parent_ = log_.open_;
  log_.open_ = index_;
}

SpanLog::Scope::~Scope() {
  if (index_ < 0) return;
  log_.spans_[static_cast<std::size_t>(index_)].end_ns = log_.ns(Clock::now());
  log_.open_ = saved_parent_;
}

std::int64_t SpanLog::ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count();
}

void SpanLog::record(const char* name, Clock::time_point start, Clock::time_point end) {
  if (enabled_) spans_.push_back({name, ns(start), ns(end), open_});
}

void SpanLog::write(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"id\":%zu,\"parent\":%d}}",
                  i == 0 ? "" : ",", s.name, static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent);
    out << buf;
  }
  out << "]}\n";
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t k = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(k, v.size() - 1)];
}

locpriv::trace::Dataset make_fleet(std::size_t drivers, std::uint64_t seed) {
  locpriv::synth::TaxiScenarioConfig taxi;
  taxi.driver_count = drivers;
  taxi.min_report_interval_s = 45;
  taxi.max_report_interval_s = 75;
  return locpriv::synth::make_taxi_dataset(taxi, seed);
}

double self_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

}  // namespace perfbench
