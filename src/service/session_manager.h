// Per-user session store of the serving gateway.
//
// One table per gateway: a map from user id to StreamSession plus one
// LRU list, under one mutex and one cap. Sessions are created lazily on
// a user's first report and reclaimed two ways: idle eviction (no report
// for idle_timeout_s of stream time) and capacity eviction (the table
// grows past max_sessions — the gateway's least-recently-active user
// goes first).
//
// Eviction destroys budget state, so a recreated session starts a fresh
// ε window. Configure idle_timeout_s >= the budget window (the default
// enforces this cannot bite: an idle-evicted user's window has already
// drained) and size max_sessions for the expected concurrent
// population; capacity eviction is the emergency valve, not the norm.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "lppm/online.h"
#include "trace/event.h"

namespace locpriv::service {

class Telemetry;

/// FNV-1a — a stable 64-bit string hash. std::hash gives no cross-run
/// (let alone cross-platform) stability guarantee, and both shard
/// routing and per-user seed derivation must be reproducible for the
/// determinism contract of the gateway.
[[nodiscard]] constexpr std::uint64_t stable_hash64(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct SessionManagerConfig {
  /// Session cap of the gateway; 0 means unbounded (no capacity eviction).
  std::size_t max_sessions = 32768;
  /// Stream-time idle horizon; 0 disables idle eviction.
  trace::Timestamp idle_timeout_s = 0;
};

/// User-id -> StreamSession map. Thread-safe; the table mutex also
/// serializes session use, so each user's session sees one report at a
/// time even when several threads acquire.
class SessionManager {
 public:
  /// Builds the per-user session on first report, under the table lock.
  /// Must be deterministic per user id, or gateway replays stop being
  /// reproducible.
  using SessionFactory =
      std::function<std::unique_ptr<lppm::StreamSession>(const std::string& user_id)>;

  /// `telemetry` may be nullptr (eviction/creation counters dropped).
  SessionManager(SessionManagerConfig cfg, SessionFactory factory, Telemetry* telemetry);

  /// The user's session with the table lock held. Creating the guard
  /// runs lazy creation, LRU touch and due evictions; the session
  /// pointer stays valid exactly as long as the guard lives.
  class LockedSession {
   public:
    [[nodiscard]] lppm::StreamSession& session() { return *session_; }
    /// The acquire-time timestamp, sanitized to never regress below the
    /// user's previous report (see acquire()).
    [[nodiscard]] trace::Timestamp monotonic_time() const { return monotonic_time_; }
    /// True when monotonic_time() differs from the raw `now` passed in —
    /// the report's clock ran backwards and was clamped.
    [[nodiscard]] bool time_clamped() const { return time_clamped_; }

   private:
    friend class SessionManager;
    LockedSession(std::unique_lock<std::mutex> lock, lppm::StreamSession* session,
                  trace::Timestamp monotonic_time, bool time_clamped)
        : lock_(std::move(lock)),
          session_(session),
          monotonic_time_(monotonic_time),
          time_clamped_(time_clamped) {}
    std::unique_lock<std::mutex> lock_;
    lppm::StreamSession* session_;
    trace::Timestamp monotonic_time_;
    bool time_clamped_;
  };

  /// Acquires (creating if absent) `user_id`'s session. `now` is stream
  /// time — it drives idle eviction across the table, so one report
  /// whose clock runs ahead can idle-evict other users. A `now` earlier
  /// than the user's previous acquire (a client clock that ran
  /// backwards, an out-of-order feed) is clamped to the previous value
  /// rather than propagated: stateful sessions (ε-budget accounting
  /// above all) require monotone per-user time, and a dirty timestamp
  /// must degrade gracefully, not crash the gateway. The sanitized value
  /// is exposed as LockedSession::monotonic_time().
  [[nodiscard]] LockedSession acquire(const std::string& user_id, trace::Timestamp now);

  /// Replaces the session factory for sessions created from now on.
  /// Existing sessions are untouched — a reload must not reset live ε
  /// budgets — so users keep their current session until it is evicted.
  /// Thread-safe against concurrent acquire().
  void set_factory(SessionFactory factory);

  /// Number of live sessions.
  [[nodiscard]] std::size_t session_count() const;

 private:
  struct Entry {
    std::unique_ptr<lppm::StreamSession> session;
    trace::Timestamp last_active = 0;
    std::list<std::string>::iterator lru_pos;  ///< into lru_
  };

  /// Drops idle/over-capacity sessions; caller holds mutex_.
  void evict_due(trace::Timestamp now);

  SessionManagerConfig cfg_;
  Telemetry* telemetry_;
  mutable std::mutex mutex_;  ///< guards every member below
  SessionFactory factory_;
  std::unordered_map<std::string, Entry> sessions_;
  std::list<std::string> lru_;  ///< front = most recently active
};

}  // namespace locpriv::service
