// /proc accounting of the processes a run drives: CPU split into user and
// system time, context switches summed over every thread, and the
// proportional (PSS) and private memory of a process — RSS would count
// the shared pages of a mapped dataset once per process.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <vector>

namespace perfbench::procstat {

struct Sample {
  double user_s = 0.0;
  double sys_s = 0.0;
  std::uint64_t voluntary_ctx = 0;
  std::uint64_t involuntary_ctx = 0;

  [[nodiscard]] double cpu_s() const { return user_s + sys_s; }
  [[nodiscard]] std::uint64_t ctx() const { return voluntary_ctx + involuntary_ctx; }
};

[[nodiscard]] Sample operator-(const Sample& a, const Sample& b);

/// CPU from /proc/<pid>/stat (whole thread group) plus context switches
/// summed over /proc/<pid>/task/*/status. A vanished process reads as 0.
[[nodiscard]] Sample sample(pid_t pid);

struct Memory {
  double pss_mb = 0.0;
  double private_mb = 0.0;  ///< Private_Clean + Private_Dirty
};

/// From /proc/<pid>/smaps_rollup.
[[nodiscard]] Memory memory(pid_t pid);

/// Peak resident set of the calling process (VmHWM), in MB.
[[nodiscard]] double self_peak_rss_mb();

/// Live processes whose parent is `parent`, ascending by pid.
[[nodiscard]] std::vector<pid_t> children(pid_t parent);

}  // namespace perfbench::procstat
