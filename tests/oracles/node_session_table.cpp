#include "oracles/node_session_table.h"

#include <algorithm>
#include <utility>

#include "service/telemetry.h"

namespace locpriv::service {

NodeSessionTable::NodeSessionTable(SessionManagerConfig cfg, SessionManager::SessionFactory factory,
                                   Telemetry* telemetry)
    : cfg_(cfg), telemetry_(telemetry), factory_(std::move(factory)) {}

void NodeSessionTable::evict_due(trace::Timestamp now) {
  if (cfg_.idle_timeout_s > 0) {
    while (!lru_.empty()) {
      const auto it = sessions_.find(lru_.back());
      if (it->second.last_active + cfg_.idle_timeout_s > now) break;
      lru_.pop_back();
      sessions_.erase(it);
      if (telemetry_ != nullptr) telemetry_->record_session_evicted_idle();
    }
  }
  if (cfg_.max_sessions > 0) {
    while (sessions_.size() > cfg_.max_sessions) {
      sessions_.erase(lru_.back());
      lru_.pop_back();
      if (telemetry_ != nullptr) telemetry_->record_session_evicted_lru();
    }
  }
}

NodeSessionTable::Acquired NodeSessionTable::acquire(const std::string& user_id,
                                                     trace::Timestamp now) {
  auto it = sessions_.find(user_id);
  if (it == sessions_.end()) {
    Entry entry;
    entry.session = factory_(user_id);
    lru_.push_front(user_id);
    entry.lru_pos = lru_.begin();
    it = sessions_.emplace(user_id, std::move(entry)).first;
    if (telemetry_ != nullptr) telemetry_->record_session_created();
  } else if (it->second.lru_pos != lru_.begin()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  }
  const trace::Timestamp mono = std::max(now, it->second.last_active);
  const bool clamped = mono != now;
  it->second.last_active = mono;

  evict_due(mono);
  return Acquired{it->second.session.get(), mono, clamped};
}

}  // namespace locpriv::service
