#include "procstat.h"

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace perfbench::procstat {

namespace {

/// Fields of /proc/<pid>/stat after the parenthesised command name, which
/// may itself contain spaces and parentheses.
std::vector<std::string> stat_fields(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  const std::size_t close = line.rfind(')');
  std::vector<std::string> out;
  if (close == std::string::npos) return out;
  std::istringstream rest(line.substr(close + 1));
  std::string f;
  while (rest >> f) out.push_back(f);
  return out;
}

/// Value of a "Key:   123 kB"-style line, or 0.
std::uint64_t keyed_value(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) == 0 && line.size() > key.size() &&
        line[key.size()] == ':') {
      return std::strtoull(line.c_str() + key.size() + 1, nullptr, 10);
    }
  }
  return 0;
}

}  // namespace

Sample operator-(const Sample& a, const Sample& b) {
  return {a.user_s - b.user_s, a.sys_s - b.sys_s, a.voluntary_ctx - b.voluntary_ctx,
          a.involuntary_ctx - b.involuntary_ctx};
}

Sample sample(pid_t pid) {
  Sample s;
  const std::string dir = "/proc/" + std::to_string(pid);
  // After ')': state is field 3 of stat(5), so utime (14) and stime (15)
  // sit at offsets 11 and 12 here.
  const std::vector<std::string> f = stat_fields(dir + "/stat");
  if (f.size() < 13) return s;
  const double tick = static_cast<double>(sysconf(_SC_CLK_TCK));
  s.user_s = std::strtod(f[11].c_str(), nullptr) / tick;
  s.sys_s = std::strtod(f[12].c_str(), nullptr) / tick;
  std::error_code ec;
  for (const auto& task : std::filesystem::directory_iterator(dir + "/task", ec)) {
    const std::string status = task.path().string() + "/status";
    s.voluntary_ctx += keyed_value(status, "voluntary_ctxt_switches");
    s.involuntary_ctx += keyed_value(status, "nonvoluntary_ctxt_switches");
  }
  return s;
}

Memory memory(pid_t pid) {
  const std::string path = "/proc/" + std::to_string(pid) + "/smaps_rollup";
  Memory m;
  m.pss_mb = static_cast<double>(keyed_value(path, "Pss")) / 1024.0;
  m.private_mb = static_cast<double>(keyed_value(path, "Private_Clean") +
                                     keyed_value(path, "Private_Dirty")) /
                 1024.0;
  return m;
}

double self_peak_rss_mb() {
  return static_cast<double>(keyed_value("/proc/self/status", "VmHWM")) / 1024.0;
}

std::vector<pid_t> children(pid_t parent) {
  std::vector<pid_t> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator("/proc", ec)) {
    const std::string name = entry.path().filename().string();
    const auto is_digit = [](unsigned char c) { return c >= '0' && c <= '9'; };
    if (name.empty() || !std::all_of(name.begin(), name.end(), is_digit)) continue;
    const std::vector<std::string> f = stat_fields(entry.path().string() + "/stat");
    // ppid is field 4 of stat(5): offset 1 after ')'.
    if (f.size() > 1 && std::atol(f[1].c_str()) == parent) {
      out.push_back(static_cast<pid_t>(std::atol(name.c_str())));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace perfbench::procstat
