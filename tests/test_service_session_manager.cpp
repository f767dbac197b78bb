#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "oracles/node_session_table.h"
#include "service/session_manager.h"
#include "service/telemetry.h"

namespace locpriv::service {
namespace {

/// A session that knows which user it was built for and its creation
/// number within its table.
class NumberedSession : public lppm::StreamSession {
 public:
  NumberedSession(std::string owner, std::size_t number)
      : owner(std::move(owner)), number(number) {}
  std::optional<trace::Event> report(const trace::Event& e) override { return e; }
  const std::string owner;
  const std::size_t number;
};

SessionManager::SessionFactory numbering_factory(std::size_t& created) {
  return [&created](const std::string& user) {
    return std::make_unique<NumberedSession>(user, created++);
  };
}

const NumberedSession& numbered(lppm::StreamSession& s) {
  return dynamic_cast<const NumberedSession&>(s);
}

/// The flat table and the node-based reference table it replaced, driven
/// in lockstep; every acquire must agree on the session handed out, the
/// sanitized time, the table size and the counters, and the session
/// must belong to the acquiring user.
class Lockstep {
 public:
  explicit Lockstep(SessionManagerConfig cfg)
      : table_(cfg, numbering_factory(table_created_), &table_telemetry_),
        reference_(cfg, numbering_factory(reference_created_), &reference_telemetry_) {}

  void acquire(const std::string& user, trace::Timestamp now) {
    SCOPED_TRACE("acquire #" + std::to_string(step_++) + " of " + user + " at " +
                 std::to_string(now));
    {
      SessionManager::LockedSession got = table_.acquire(user, now);
      const NodeSessionTable::Acquired want = reference_.acquire(user, now);
      const NumberedSession& session = numbered(got.session());
      ASSERT_EQ(session.owner, user);
      ASSERT_EQ(session.number, numbered(*want.session).number);
      ASSERT_EQ(got.monotonic_time(), want.monotonic_time);
      ASSERT_EQ(got.time_clamped(), want.time_clamped);
    }
    // session_count() takes the table lock, which `got` held.
    ASSERT_EQ(table_.session_count(), reference_.session_count());
    ASSERT_EQ(table_created_, reference_created_);
    const TelemetrySnapshot a = table_telemetry_.snapshot();
    const TelemetrySnapshot b = reference_telemetry_.snapshot();
    ASSERT_EQ(a.sessions_created, b.sessions_created);
    ASSERT_EQ(a.sessions_evicted_idle, b.sessions_evicted_idle);
    ASSERT_EQ(a.sessions_evicted_lru, b.sessions_evicted_lru);
  }

  [[nodiscard]] const Telemetry& telemetry() const { return table_telemetry_; }
  [[nodiscard]] std::size_t created() const { return table_created_; }

 private:
  std::size_t table_created_ = 0;
  std::size_t reference_created_ = 0;
  Telemetry table_telemetry_;
  Telemetry reference_telemetry_;
  SessionManager table_;
  NodeSessionTable reference_;
  std::size_t step_ = 0;
};

/// Stream times that mostly rise, with backward jumps and negative
/// values.
class StreamClock {
 public:
  explicit StreamClock(std::uint64_t seed) : rng_(seed) {}
  trace::Timestamp next() {
    const std::uint64_t r = rng_() % 100;
    if (r < 75) {
      t_ += static_cast<trace::Timestamp>(rng_() % 12);
    } else if (r < 90) {
      t_ -= static_cast<trace::Timestamp>(rng_() % 120);
    } else if (r < 95) {
      return -static_cast<trace::Timestamp>(rng_() % 40);
    }
    return t_;
  }
  std::mt19937_64& rng() { return rng_; }

 private:
  std::mt19937_64 rng_;
  trace::Timestamp t_ = -10;
};

TEST(SessionManagerOracle, MatchesTheNodeTableOnRandomSequences) {
  for (const std::size_t cap : {0, 1, 2, 7, 64}) {
    for (const trace::Timestamp idle : {0, 50}) {
      for (const std::size_t pool : {5, 300}) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
          SCOPED_TRACE("cap " + std::to_string(cap) + ", idle " + std::to_string(idle) +
                       ", pool " + std::to_string(pool) + ", seed " + std::to_string(seed));
          Lockstep tables(SessionManagerConfig{cap, idle});
          StreamClock clock(seed * 1000 + cap * 10 + pool);
          for (int i = 0; i < 2000; ++i) {
            // Half the reports come from a hot tenth of the pool.
            const std::uint64_t r = clock.rng()();
            const std::size_t user = (r & 1) != 0 ? (r >> 1) % (pool / 10 + 1) : (r >> 1) % pool;
            ASSERT_NO_FATAL_FAILURE(tables.acquire("user-" + std::to_string(user), clock.next()));
          }
        }
      }
    }
  }
}

/// The first `n` ids "id-<i>" whose home slot in a 1024-slot index is
/// `slot`. The table's home is the top bits of tag · 2^64/φ, so these ids
/// share a home in every index of up to 1024 slots (512 live users):
/// slot 0 there is slot 0 in every smaller index, slot 1023 the last.
std::vector<std::string> ids_homed_at(std::uint64_t slot, std::size_t n) {
  std::vector<std::string> ids;
  for (int i = 0; ids.size() < n; ++i) {
    std::string id = "id-" + std::to_string(i);
    const auto tag = static_cast<std::uint32_t>(stable_hash64(id));
    if ((tag * 0x9E3779B97F4A7C15ULL) >> (64 - 10) == slot) ids.push_back(std::move(id));
  }
  return ids;
}

TEST(SessionManagerIndex, IdsSharingAHomeSlotKeepTheirOwnSessions) {
  const std::vector<std::string> ids = ids_homed_at(0x155, 40);
  Lockstep tables(SessionManagerConfig{0, 0});
  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      ASSERT_NO_FATAL_FAILURE(tables.acquire(ids[i], round * 100 + static_cast<int>(i)));
    }
  }
  EXPECT_EQ(tables.created(), ids.size());
}

TEST(SessionManagerIndex, EvictionInsideProbeChainsAndAcrossTheWrap) {
  // Homes in the index's last slot (runs wrap to its start) and in its
  // first slot, interleaved, under a cap of 7 (a 16-slot index): most
  // capacity evictions delete from the middle or the wrapped part of a
  // run and shift the rest back.
  std::vector<std::string> ids = ids_homed_at(1023, 10);
  for (std::string& id : ids_homed_at(0, 10)) ids.push_back(std::move(id));
  ids.push_back("plain-a");
  ids.push_back("plain-b");
  for (const trace::Timestamp idle : {0, 30}) {
    SCOPED_TRACE("idle " + std::to_string(idle));
    Lockstep tables(SessionManagerConfig{7, idle});
    StreamClock clock(idle + 5);
    for (int i = 0; i < 3000; ++i) {
      const std::string& id = ids[clock.rng()() % ids.size()];
      ASSERT_NO_FATAL_FAILURE(tables.acquire(id, clock.next()));
    }
    EXPECT_GT(tables.telemetry().snapshot().sessions_evicted_lru, 1000u);
  }
}

TEST(SessionManagerIndex, EqualTagsFallThroughToTheFullIdCompare) {
  // Two ids whose hashes agree in their low 32 bits: the index tag, so
  // only the id compare tells them apart.
  const auto id_of = [](int i) { return "user-" + std::to_string(i); };
  std::unordered_map<std::uint32_t, int> seen;
  seen.reserve(1 << 19);
  std::pair<std::string, std::string> twins;
  for (int i = 0; twins.first.empty(); ++i) {
    ASSERT_LT(i, 2'000'000) << "no 32-bit tag collision found";
    const auto [it, fresh] = seen.emplace(static_cast<std::uint32_t>(stable_hash64(id_of(i))), i);
    if (!fresh) twins = {id_of(it->second), id_of(i)};
  }
  ASSERT_NE(twins.first, twins.second);
  ASSERT_EQ(static_cast<std::uint32_t>(stable_hash64(twins.first)),
            static_cast<std::uint32_t>(stable_hash64(twins.second)));

  Lockstep tables(SessionManagerConfig{2, 0});
  trace::Timestamp t = 0;
  for (int round = 0; round < 4; ++round) {
    ASSERT_NO_FATAL_FAILURE(tables.acquire(twins.first, ++t));
    ASSERT_NO_FATAL_FAILURE(tables.acquire(twins.second, ++t));
    ASSERT_NO_FATAL_FAILURE(tables.acquire(twins.second, ++t));
    ASSERT_NO_FATAL_FAILURE(tables.acquire(twins.first, ++t));
  }
  EXPECT_EQ(tables.created(), 2u);
  // A third user evicts the least recent twin; the other stays live.
  ASSERT_NO_FATAL_FAILURE(tables.acquire("other", ++t));
  ASSERT_NO_FATAL_FAILURE(tables.acquire(twins.first, ++t));
  EXPECT_EQ(tables.created(), 3u);
  ASSERT_NO_FATAL_FAILURE(tables.acquire(twins.second, ++t));
  EXPECT_EQ(tables.created(), 4u);
}

TEST(SessionManagerIndex, UncappedTableGrowsThroughSeveralDoublings) {
  // 16 index slots at first; 5000 users take it through ten doublings.
  Lockstep tables(SessionManagerConfig{0, 0});
  constexpr int kUsers = 5000;
  for (int i = 0; i < kUsers; ++i) {
    ASSERT_NO_FATAL_FAILURE(tables.acquire("grow-" + std::to_string(i), i));
  }
  for (int i = kUsers - 1; i >= 0; i -= 7) {
    ASSERT_NO_FATAL_FAILURE(tables.acquire("grow-" + std::to_string(i), kUsers));
  }
  EXPECT_EQ(tables.created(), static_cast<std::size_t>(kUsers));
}

TEST(SessionManager, IdleEvictionNearTheEndOfStreamTime) {
  // Client clocks reach the table unchecked. Near the largest timestamp
  // a user 5 s idle under a 100 s horizon must stay live, and one 195 s
  // idle must go.
  Telemetry telemetry;
  std::size_t created = 0;
  SessionManager manager(SessionManagerConfig{0, 100}, numbering_factory(created), &telemetry);
  constexpr trace::Timestamp kEnd = std::numeric_limits<trace::Timestamp>::max();
  (void)manager.acquire("a", kEnd - 200);
  (void)manager.acquire("b", kEnd - 5);
  (void)manager.acquire("c", kEnd);
  EXPECT_EQ(manager.session_count(), 2u);
  EXPECT_EQ(telemetry.snapshot().sessions_evicted_idle, 1u);
  EXPECT_EQ(numbered(manager.acquire("b", kEnd).session()).number, 1u);
}

TEST(SessionManager, FactoryThatThrowsLeavesTheTableAsItWas) {
  Telemetry telemetry;
  std::size_t created = 0;
  SessionManager manager(
      SessionManagerConfig{2, 10},
      [&created](const std::string& user) -> std::unique_ptr<lppm::StreamSession> {
        if (user == "bad") throw std::runtime_error("no session for bad");
        return std::make_unique<NumberedSession>(user, created++);
      },
      &telemetry);
  (void)manager.acquire("a", 0);
  (void)manager.acquire("b", 5);
  // At the cap, and a would be idle at t=100: a throwing factory must
  // evict neither.
  EXPECT_THROW((void)manager.acquire("bad", 100), std::runtime_error);
  EXPECT_EQ(manager.session_count(), 2u);
  const TelemetrySnapshot s = telemetry.snapshot();
  EXPECT_EQ(s.sessions_created, 2u);
  EXPECT_EQ(s.sessions_evicted_idle, 0u);
  EXPECT_EQ(s.sessions_evicted_lru, 0u);
  EXPECT_EQ(numbered(manager.acquire("a", 6).session()).number, 0u);
  EXPECT_EQ(numbered(manager.acquire("b", 7).session()).number, 1u);
  EXPECT_EQ(created, 2u);
}

}  // namespace
}  // namespace locpriv::service
