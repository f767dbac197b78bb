// Per-user session store of the serving gateway.
//
// One table per gateway: user id -> StreamSession plus one LRU order,
// under one mutex and one cap. Sessions are created lazily on a user's
// first report and reclaimed two ways: idle eviction (no report for
// idle_timeout_s of stream time) and capacity eviction (the table
// would grow past max_sessions — the gateway's least-recently-active
// user goes first).
//
// The table is flat. Each live user is one 64-byte Record in a dense
// array (id string, hash tag, last report time, LRU links, session
// pointer); evicted records go on a free list and are reused. An
// open-addressed index (linear probing, power-of-two size, load at most
// 1/2) maps a user to its record: each 8-byte entry packs the low 32
// bits of stable_hash64(user) as a tag above record id + 1, 0 meaning
// empty. A probe compares tags and reads a record only on a tag match;
// an entry's home slot comes from its tag (Fibonacci hashing), so
// deletion (backward shift, no tombstones) and growth never read a
// record. The LRU order is a doubly linked list through 32-bit record
// ids. At the cap the table holds exactly max_sessions records and an
// index of the smallest power of two of slots that keeps its load at
// or under 1/2.
//
// Eviction destroys budget state, so a recreated session starts a fresh
// ε window. Configure idle_timeout_s >= the budget window (the default
// enforces this cannot bite: an idle-evicted user's window has already
// drained) and size max_sessions for the expected concurrent
// population; capacity eviction is the emergency valve, not the norm.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

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
  /// must degrade gracefully, not crash the gateway. A new user's
  /// history starts at 0. The sanitized value is exposed as
  /// LockedSession::monotonic_time(). A factory that throws leaves the
  /// table unchanged; more than 2^32 - 2 live sessions throw
  /// std::length_error.
  [[nodiscard]] LockedSession acquire(const std::string& user_id, trace::Timestamp now);

  /// Replaces the session factory for sessions created from now on.
  /// Existing sessions are untouched — a reload must not reset live ε
  /// budgets — so users keep their current session until it is evicted.
  /// Thread-safe against concurrent acquire().
  void set_factory(SessionFactory factory);

  /// Number of live sessions.
  [[nodiscard]] std::size_t session_count() const;

 private:
  /// Record id meaning "none": list ends, the empty free list.
  static constexpr std::uint32_t kNil = 0xFFFFFFFFU;

  /// One live (or free) user; one cache line.
  struct alignas(64) Record {
    std::string user;
    trace::Timestamp last_active = 0;
    std::unique_ptr<lppm::StreamSession> session;  ///< null while free
    std::uint32_t tag = 0;      ///< low 32 bits of stable_hash64(user)
    std::uint32_t prev = kNil;  ///< toward the most recent user
    std::uint32_t next = kNil;  ///< toward the least recent; free-list link
  };

  /// The record holding `user`, or kNil.
  [[nodiscard]] std::uint32_t find(std::string_view user, std::uint32_t tag) const;
  /// Links a new user into a free record at the LRU head; throws before
  /// changing anything if the index or the record array cannot grow.
  std::uint32_t insert(const std::string& user, std::uint32_t tag,
                       std::unique_ptr<lppm::StreamSession> session, trace::Timestamp now);
  /// Unlinks record `id`, destroys its session and frees the record.
  void evict(std::uint32_t id);
  /// Evicts idle users, then least-recent users until at most `keep`
  /// remain (when the table is capped); caller holds mutex_.
  void evict_due(trace::Timestamp now, std::size_t keep);

  /// Fibonacci hashing of the tag: the top bits of tag · 2^64/φ.
  [[nodiscard]] std::size_t home(std::uint32_t tag) const {
    return static_cast<std::size_t>((tag * 0x9E3779B97F4A7C15ULL) >> shift_);
  }
  void place(std::uint64_t entry);
  void unindex(std::uint32_t id);
  void grow_index();
  void lru_unlink(std::uint32_t id);
  void lru_push_front(std::uint32_t id);

  SessionManagerConfig cfg_;
  Telemetry* telemetry_;
  mutable std::mutex mutex_;  ///< guards every member below
  SessionFactory factory_;
  std::vector<Record> records_;
  std::vector<std::uint64_t> index_;  ///< tag << 32 | (record id + 1); 0 = empty
  unsigned shift_;  ///< 64 - log2(index_.size())
  std::uint32_t head_ = kNil;  ///< most recently active user
  std::uint32_t tail_ = kNil;  ///< least recently active user
  std::uint32_t free_ = kNil;  ///< first free record
  std::size_t live_ = 0;
};

}  // namespace locpriv::service
