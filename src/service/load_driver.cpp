#include "service/load_driver.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

namespace locpriv::service {

LoadResult replay_dataset(const trace::Dataset& data, Gateway& gateway,
                          const LoadDriverConfig& cfg) {
  struct Item {
    const std::string* user_id;
    trace::Event event;
  };
  std::vector<Item> stream;
  stream.reserve(data.total_events());
  for (const trace::Trace& t : data) {
    for (const trace::Event& e : t) stream.push_back({&t.user_id(), e});
  }
  std::stable_sort(stream.begin(), stream.end(),
                   [](const Item& a, const Item& b) { return a.event.time < b.event.time; });

  LoadResult result;
  const auto wall_start = std::chrono::steady_clock::now();
  const trace::Timestamp stream_start = stream.empty() ? 0 : stream.front().event.time;
  for (const Item& item : stream) {
    if (cfg.rate_multiplier > 0.0) {
      const double stream_elapsed = static_cast<double>(item.event.time - stream_start);
      const auto due = wall_start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                                        std::chrono::duration<double>(stream_elapsed /
                                                                      cfg.rate_multiplier));
      std::this_thread::sleep_until(due);
    }
    ++result.submitted;
    if (gateway.submit(*item.user_id, item.event)) ++result.accepted;
  }
  gateway.drain();
  const auto wall_end = std::chrono::steady_clock::now();
  result.wall_seconds = std::chrono::duration<double>(wall_end - wall_start).count();
  result.events_per_sec =
      result.wall_seconds > 0.0 ? static_cast<double>(result.submitted) / result.wall_seconds : 0.0;
  return result;
}

}  // namespace locpriv::service
