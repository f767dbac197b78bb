#include "service/session_manager.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "service/telemetry.h"

namespace locpriv::service {

SessionManager::SessionManager(SessionManagerConfig cfg, SessionFactory factory,
                               Telemetry* telemetry)
    : cfg_(cfg), telemetry_(telemetry), factory_(std::move(factory)) {
  if (!factory_) throw std::invalid_argument("SessionManager: factory must be callable");
}

void SessionManager::set_factory(SessionFactory factory) {
  if (!factory) throw std::invalid_argument("SessionManager: factory must be callable");
  std::lock_guard lock(mutex_);
  factory_ = std::move(factory);
}

void SessionManager::evict_due(trace::Timestamp now) {
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

SessionManager::LockedSession SessionManager::acquire(const std::string& user_id,
                                                      trace::Timestamp now) {
  std::unique_lock lock(mutex_);

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
  // Sanitize backwards clocks against the user's own history (see the
  // acquire() contract in the header).
  const trace::Timestamp mono = std::max(now, it->second.last_active);
  const bool clamped = mono != now;
  it->second.last_active = mono;

  // The current user sits at the LRU front, so eviction (which eats from
  // the back) can never destroy the session being handed out.
  evict_due(mono);
  return LockedSession(std::move(lock), it->second.session.get(), mono, clamped);
}

std::size_t SessionManager::session_count() const {
  std::lock_guard lock(mutex_);
  return sessions_.size();
}

}  // namespace locpriv::service
