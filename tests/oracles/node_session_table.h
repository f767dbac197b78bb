// The node-based session table the serving gateway used before its flat
// table: an std::unordered_map from user id to entry plus an std::list
// LRU of ids, with the same idle and capacity eviction rules.
//
// A test oracle: service::SessionManager must pick the same sessions,
// victims, sanitized times and counters as this table for any sequence
// of acquires (tests/test_service_session_manager.cpp). Single-threaded.
#pragma once

#include <list>
#include <memory>
#include <string>
#include <unordered_map>

#include "lppm/online.h"
#include "service/session_manager.h"
#include "trace/event.h"

namespace locpriv::service {

class Telemetry;

class NodeSessionTable {
 public:
  /// What SessionManager::LockedSession exposes, without the lock.
  struct Acquired {
    lppm::StreamSession* session;
    trace::Timestamp monotonic_time;
    bool time_clamped;
  };

  /// `telemetry` may be nullptr (eviction/creation counters dropped).
  NodeSessionTable(SessionManagerConfig cfg, SessionManager::SessionFactory factory,
                   Telemetry* telemetry);

  /// SessionManager::acquire without the lock.
  [[nodiscard]] Acquired acquire(const std::string& user_id, trace::Timestamp now);

  [[nodiscard]] std::size_t session_count() const { return sessions_.size(); }

 private:
  struct Entry {
    std::unique_ptr<lppm::StreamSession> session;
    trace::Timestamp last_active = 0;
    std::list<std::string>::iterator lru_pos;  ///< into lru_
  };

  /// Drops idle/over-capacity sessions.
  void evict_due(trace::Timestamp now);

  SessionManagerConfig cfg_;
  Telemetry* telemetry_;
  SessionManager::SessionFactory factory_;
  std::unordered_map<std::string, Entry> sessions_;
  std::list<std::string> lru_;  ///< front = most recently active
};

}  // namespace locpriv::service
