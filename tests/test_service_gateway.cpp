#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "service/adaptive/objective.h"
#include "service/gateway.h"
#include "service/load_driver.h"
#include "service/session_manager.h"
#include "test_util.h"

namespace locpriv::service {
namespace {

/// Thread-safe capture of every gateway answer, grouped per user.
struct Capture {
  std::mutex mutex;
  std::map<std::string, std::vector<ProtectedReport>> by_user;
  std::size_t total = 0;

  Gateway::Sink sink() {
    return [this](const ProtectedReport& r) {
      std::lock_guard lock(mutex);
      by_user[r.user_id].push_back(r);
      ++total;
    };
  }
};

GatewayConfig small_config() {
  GatewayConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 1 << 14;
  cfg.epsilon = 0.05;
  cfg.budget_eps = 0.5;  // 10 reports per window
  cfg.budget_window_s = 1800;
  cfg.seed = 77;
  return cfg;
}

/// The ground truth the gateway must reproduce: each user's trace fed
/// one-by-one through its own BudgetedGeoIndSession, exactly as
/// examples/streaming_lbs.cpp did before the gateway existed.
std::map<std::string, std::vector<trace::Event>> sequential_replay(const trace::Dataset& data,
                                                                   const GatewayConfig& cfg) {
  std::map<std::string, std::vector<trace::Event>> out;
  for (const trace::Trace& t : data) {
    lppm::BudgetedGeoIndSession session(
        cfg.epsilon, lppm::GeoIndBudget(cfg.epsilon, cfg.budget_eps, cfg.budget_window_s),
        user_seed(cfg.seed, t.user_id()));
    auto& events = out[t.user_id()];
    for (const trace::Event& e : t) {
      if (const auto p = session.report(e)) events.push_back(*p);
    }
  }
  return out;
}

std::map<std::string, std::vector<trace::Event>> delivered_by_user(Capture& capture) {
  std::map<std::string, std::vector<trace::Event>> out;
  for (const auto& [user, reports] : capture.by_user) {
    for (const ProtectedReport& r : reports) {
      if (r.status == ReportStatus::delivered) out[user].push_back(*r.protected_event);
    }
  }
  return out;
}

TEST(Gateway, OneWorkerOneShardEqualsSequentialReplay) {
  const trace::Dataset data = testutil::two_stop_dataset(6);
  const GatewayConfig cfg = small_config();
  Capture capture;
  {
    Gateway gateway(cfg, capture.sink());
    replay_dataset(data, gateway);
  }
  EXPECT_EQ(delivered_by_user(capture), sequential_replay(data, cfg));
}

TEST(Gateway, ManyWorkersManyShardsStillEqualSequentialReplayPerUser) {
  // Per-user hash routing + per-user seeds make the gateway's output
  // independent of concurrency, not just "correct up to reordering".
  const trace::Dataset data = testutil::two_stop_dataset(12);
  GatewayConfig cfg = small_config();
  cfg.workers = 8;
  Capture capture;
  {
    Gateway gateway(cfg, capture.sink());
    replay_dataset(data, gateway);
  }
  EXPECT_EQ(delivered_by_user(capture), sequential_replay(data, cfg));
}

TEST(Gateway, EveryReportAnsweredExactlyOnceEvenUnderBackpressure) {
  const trace::Dataset data = testutil::two_stop_dataset(8);
  GatewayConfig cfg = small_config();
  cfg.workers = 2;
  cfg.queue_capacity = 4;  // tiny queues: force rejections
  cfg.downstream_latency = std::chrono::microseconds(200);  // slow workers down
  Capture capture;
  LoadResult load;
  TelemetrySnapshot snap;
  {
    Gateway gateway(cfg, capture.sink());
    load = replay_dataset(data, gateway);
    snap = gateway.telemetry().snapshot();
  }
  EXPECT_EQ(load.submitted, data.total_events());
  EXPECT_EQ(capture.total, load.submitted) << "some report was dropped or answered twice";
  EXPECT_GT(snap.rejected_queue_full, 0u) << "tiny queue + slow workers must reject";
  EXPECT_EQ(load.accepted + snap.rejected_queue_full, load.submitted);
  EXPECT_EQ(snap.received, load.submitted);
  EXPECT_EQ(snap.delivered + snap.suppressed_budget + snap.rejected_queue_full, snap.received);
}

TEST(Gateway, PerUserOrderPreservedUnderManyWorkers) {
  const trace::Dataset data = testutil::two_stop_dataset(10);
  GatewayConfig cfg = small_config();
  cfg.workers = 8;
  Capture capture;
  {
    Gateway gateway(cfg, capture.sink());
    replay_dataset(data, gateway);
  }
  for (const auto& [user, reports] : capture.by_user) {
    for (std::size_t i = 1; i < reports.size(); ++i) {
      EXPECT_LT(reports[i - 1].seq, reports[i].seq)
          << "user " << user << " answered out of submission order";
      EXPECT_LE(reports[i - 1].original.time, reports[i].original.time);
    }
  }
}

TEST(Gateway, BudgetNeverOverspentUnderManyWorkers) {
  const trace::Dataset data = testutil::two_stop_dataset(10);
  GatewayConfig cfg = small_config();
  cfg.workers = 8;
  Capture capture;
  TelemetrySnapshot snap;
  {
    Gateway gateway(cfg, capture.sink());
    replay_dataset(data, gateway);
    snap = gateway.telemetry().snapshot();
  }
  // Reports arrive every 60 s, the window fits 10: suppression must occur.
  EXPECT_GT(snap.suppressed_budget, 0u);
  for (const auto& [user, events] : delivered_by_user(capture)) {
    // Sliding-window check over the delivered timestamps: within any
    // window ending at a delivery, spend stays within the budget.
    std::vector<trace::Timestamp> times;
    for (const trace::Event& e : events) times.push_back(e.time);
    for (std::size_t i = 0; i < times.size(); ++i) {
      const trace::Timestamp window_start = times[i] - cfg.budget_window_s;
      const auto begin = std::upper_bound(times.begin(), times.begin() + i + 1, window_start);
      const auto in_window = static_cast<double>((times.begin() + i + 1) - begin);
      EXPECT_LE(in_window * cfg.epsilon, cfg.budget_eps + 1e-9)
          << "user " << user << " overspent at t=" << times[i];
    }
  }
  // Telemetry saw the same invariant.
  EXPECT_LE(snap.eps_max_seen, cfg.budget_eps + 1e-9);
}

TEST(Gateway, TelemetryJsonHasStableSchema) {
  const trace::Dataset data = testutil::two_stop_dataset(3);
  io::JsonValue json;
  {
    Gateway gateway(small_config(), [](const ProtectedReport&) {});
    replay_dataset(data, gateway);
    json = gateway.telemetry().to_json();
  }
  ASSERT_TRUE(json.is_object());
  const io::JsonValue& counters = json.at("counters");
  EXPECT_EQ(counters.at("received").as_number(), static_cast<double>(data.total_events()));
  EXPECT_TRUE(counters.contains("delivered"));
  EXPECT_TRUE(counters.contains("suppressed_budget"));
  EXPECT_TRUE(counters.contains("rejected_queue_full"));
  EXPECT_TRUE(json.at("latency").contains("p99_us"));
  EXPECT_TRUE(json.at("eps_spend").contains("max_seen"));
  // Round-trips through the writer/parser.
  EXPECT_NO_THROW((void)io::parse_json(io::to_json(json)));
}

TEST(SessionManager, LazyCreationAndCounting) {
  Telemetry telemetry;
  int created = 0;
  SessionManagerConfig cfg;
  SessionManager manager(
      cfg,
      [&](const std::string&) {
        ++created;
        return std::make_unique<lppm::BudgetedGeoIndSession>(
            0.1, lppm::GeoIndBudget(0.1, 1.0, 600), 1);
      },
      &telemetry);
  EXPECT_EQ(manager.session_count(), 0u);
  (void)manager.acquire("a", 0);
  (void)manager.acquire("b", 0);
  (void)manager.acquire("a", 60);  // reuse, no new session
  EXPECT_EQ(created, 2);
  EXPECT_EQ(manager.session_count(), 2u);
  EXPECT_EQ(telemetry.snapshot().sessions_created, 2u);
}

TEST(SessionManager, LruEvictionBeyondCapacity) {
  Telemetry telemetry;
  SessionManagerConfig cfg;
  cfg.max_sessions = 2;
  SessionManager manager(
      cfg, [](const std::string&) { return std::make_unique<lppm::BudgetedGeoIndSession>(
                                        0.1, lppm::GeoIndBudget(0.1, 1.0, 600), 1); },
      &telemetry);
  (void)manager.acquire("a", 0);
  (void)manager.acquire("b", 1);
  (void)manager.acquire("a", 2);  // a is now most recent; b is the LRU
  (void)manager.acquire("c", 3);  // pushes the table over capacity
  EXPECT_EQ(manager.session_count(), 2u);
  EXPECT_EQ(telemetry.snapshot().sessions_evicted_lru, 1u);
  // b (the least recently used) was the victim: touching it re-creates.
  const auto before = telemetry.snapshot().sessions_created;
  (void)manager.acquire("a", 4);
  EXPECT_EQ(telemetry.snapshot().sessions_created, before);
  (void)manager.acquire("b", 5);
  EXPECT_EQ(telemetry.snapshot().sessions_created, before + 1);
}

TEST(SessionManager, IdleEvictionUsesStreamTime) {
  Telemetry telemetry;
  SessionManagerConfig cfg;
  cfg.idle_timeout_s = 100;
  SessionManager manager(
      cfg, [](const std::string&) { return std::make_unique<lppm::BudgetedGeoIndSession>(
                                        0.1, lppm::GeoIndBudget(0.1, 1.0, 600), 1); },
      &telemetry);
  (void)manager.acquire("a", 0);
  (void)manager.acquire("b", 50);
  EXPECT_EQ(manager.session_count(), 2u);
  // At t=99 nobody is 100 s idle yet; by t=300 both a and b are due.
  (void)manager.acquire("b", 99);
  EXPECT_EQ(manager.session_count(), 2u);
  (void)manager.acquire("c", 300);
  EXPECT_EQ(manager.session_count(), 1u);  // a and b evicted, c created
  EXPECT_EQ(telemetry.snapshot().sessions_evicted_idle, 2u);
}

/// The first `n` ids "user-<i>" whose stable_hash64 % 8 is 0: ids that
/// an 8-way lock-striped table would all have put in one stripe.
std::vector<std::string> same_stripe_ids(std::size_t n) {
  std::vector<std::string> ids;
  for (int i = 0; ids.size() < n; ++i) {
    std::string id = "user-" + std::to_string(i);
    if (stable_hash64(id) % 8 == 0) ids.push_back(std::move(id));
  }
  return ids;
}

TEST(SessionManager, NoCapacityEvictionBelowTheCap) {
  // The cap is the gateway's, whatever the ids hash to.
  Telemetry telemetry;
  SessionManagerConfig cfg;
  cfg.max_sessions = 64;
  SessionManager manager(
      cfg, [](const std::string&) { return std::make_unique<lppm::BudgetedGeoIndSession>(
                                        0.1, lppm::GeoIndBudget(0.1, 1.0, 600), 1); },
      &telemetry);
  const std::vector<std::string> ids = same_stripe_ids(65);
  for (std::size_t i = 0; i < 64; ++i) {
    (void)manager.acquire(ids[i], static_cast<trace::Timestamp>(i));
  }
  EXPECT_EQ(manager.session_count(), 64u);
  EXPECT_EQ(telemetry.snapshot().sessions_evicted_lru, 0u);

  (void)manager.acquire(ids[64], 64);
  EXPECT_EQ(manager.session_count(), 64u);
  EXPECT_EQ(telemetry.snapshot().sessions_evicted_lru, 1u);
  // The victim was ids[0], the least recent: every other id is still live.
  const auto created = telemetry.snapshot().sessions_created;
  for (std::size_t i = 1; i <= 64; ++i) (void)manager.acquire(ids[i], 100);
  EXPECT_EQ(telemetry.snapshot().sessions_created, created);
  (void)manager.acquire(ids[0], 100);
  EXPECT_EQ(telemetry.snapshot().sessions_created, created + 1);
}

TEST(SessionManager, IdleEvictionReachesEveryUser) {
  // An idle user is reclaimed whichever ids report after it.
  Telemetry telemetry;
  SessionManagerConfig cfg;
  cfg.idle_timeout_s = 100;
  SessionManager manager(
      cfg, [](const std::string&) { return std::make_unique<lppm::BudgetedGeoIndSession>(
                                        0.1, lppm::GeoIndBudget(0.1, 1.0, 600), 1); },
      &telemetry);
  (void)manager.acquire("a", 0);
  // Four ids whose stable_hash64 % 8 differ from a's and from each other.
  std::set<std::uint64_t> stripes = {stable_hash64("a") % 8};
  for (int i = 0; stripes.size() < 5; ++i) {
    const std::string id = "user-" + std::to_string(i);
    if (stripes.insert(stable_hash64(id) % 8).second) (void)manager.acquire(id, 500);
  }
  EXPECT_EQ(telemetry.snapshot().sessions_evicted_idle, 1u);  // a, idle for 500 s
  EXPECT_EQ(manager.session_count(), 4u);
}

TEST(Gateway, CustomFactoryRunsAnyStreamingMechanism) {
  // A gateway is not married to Geo-I: hand it grid-cloaking sessions.
  GatewayConfig cfg = small_config();
  Capture capture;
  {
    Gateway gateway(
        cfg,
        [](const std::string&) {
          struct SnapSession final : lppm::StreamSession {
            std::optional<trace::Event> report(const trace::Event& e) override {
              return trace::Event{e.time, {std::round(e.location.x / 500.0) * 500.0,
                                           std::round(e.location.y / 500.0) * 500.0}};
            }
          };
          return std::make_unique<SnapSession>();
        },
        capture.sink());
    ASSERT_TRUE(gateway.submit("u0", {0, {760.0, 220.0}}));
    gateway.drain();
  }
  ASSERT_EQ(capture.total, 1u);
  const ProtectedReport& r = capture.by_user.at("u0").front();
  ASSERT_EQ(r.status, ReportStatus::delivered);
  EXPECT_EQ(r.protected_event->location, (geo::Point{1000.0, 0.0}));
}

TEST(Gateway, SubmitAfterDrainIsRejectedNotLost) {
  Capture capture;
  Gateway gateway(small_config(), capture.sink());
  ASSERT_TRUE(gateway.submit("u", {0, {0, 0}}));
  gateway.drain();
  EXPECT_FALSE(gateway.submit("u", {60, {0, 0}}));
  EXPECT_EQ(capture.total, 2u);  // one delivered, one rejected — both answered
  EXPECT_EQ(capture.by_user.at("u").back().status, ReportStatus::rejected_queue_full);
}

TEST(Gateway, AnswersReturnInsideSubmitWithoutDownstream) {
  GatewayConfig cfg = small_config();
  cfg.workers = 4;
  const std::thread::id submitter = std::this_thread::get_id();
  std::size_t answered = 0;
  Gateway gateway(cfg, [&](const ProtectedReport& r) {
    EXPECT_EQ(std::this_thread::get_id(), submitter) << "seq " << r.seq;
    ++answered;
  });
  for (std::size_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(gateway.submit("u" + std::to_string(i % 5),
                               {static_cast<trace::Timestamp>(i * 60), {0, 0}}));
    EXPECT_EQ(answered, i + 1) << "the answer did not return inside submit()";
  }
  EXPECT_FALSE(gateway.next_due().has_value());
}

TEST(Gateway, HeldAnswersNeverReturnEarlyAndKeepPerUserOrder) {
  using Clock = Gateway::Clock;
  GatewayConfig cfg = small_config();
  cfg.workers = 2;
  cfg.downstream_latency = std::chrono::milliseconds(2);
  std::map<std::uint64_t, Clock::time_point> submitted;  // cookie -> before submit()
  std::vector<ProtectedReport> released;
  std::vector<Clock::duration> waits;
  Gateway gateway(cfg, [&](const ProtectedReport& r) {
    waits.push_back(Clock::now() - submitted.at(r.cookie));
    released.push_back(r);
  });
  constexpr std::uint64_t kReports = 12;
  for (std::uint64_t i = 0; i < kReports; ++i) {
    submitted[i] = Clock::now();
    ASSERT_TRUE(gateway.submit("u" + std::to_string(i % 3),
                               {static_cast<trace::Timestamp>(i * 60), {0, 0}}, i));
  }
  // Poll eagerly: release_due() must hold back whatever is not yet due.
  while (gateway.next_due().has_value()) gateway.release_due(Clock::now());
  ASSERT_EQ(released.size(), kReports);
  for (std::size_t i = 0; i < waits.size(); ++i) {
    EXPECT_GE(waits[i], std::chrono::milliseconds(2)) << "seq " << released[i].seq;
  }
  std::map<std::string, std::uint64_t> last_seq;
  for (const ProtectedReport& r : released) {
    EXPECT_EQ(r.status, ReportStatus::delivered);
    const auto it = last_seq.find(r.user_id);
    if (it != last_seq.end()) {
      EXPECT_GT(r.seq, it->second) << "user " << r.user_id;
    }
    last_seq[r.user_id] = r.seq;
  }
}

TEST(Gateway, LanesOverlapDownstreamWaits) {
  // Four users that land on four distinct lanes of a 4-lane gateway.
  std::vector<std::string> users;
  std::set<std::uint64_t> lanes;
  for (int k = 0; users.size() < 4; ++k) {
    const std::string user = "lane-user-" + std::to_string(k);
    if (lanes.insert(stable_hash64(user) % 4).second) users.push_back(user);
  }
  const auto drain_time = [&](std::size_t workers) {
    GatewayConfig cfg = small_config();
    cfg.workers = workers;
    cfg.downstream_latency = std::chrono::milliseconds(20);
    std::size_t answered = 0;
    Gateway gateway(cfg, [&](const ProtectedReport&) { ++answered; });
    const auto t0 = Gateway::Clock::now();
    for (const std::string& user : users) EXPECT_TRUE(gateway.submit(user, {0, {0, 0}}));
    gateway.drain();
    const auto elapsed = Gateway::Clock::now() - t0;
    EXPECT_EQ(answered, users.size());
    return elapsed;
  };
  // Serially the four 20 ms waits take >= 80 ms.
  EXPECT_LT(drain_time(4), std::chrono::milliseconds(60));
  EXPECT_GE(drain_time(1), std::chrono::milliseconds(80));
}

TEST(Gateway, RejectsBudgetSettingsNoSessionCanBeBuiltWith) {
  // Sessions are built on a user's first report; a bad budget setting
  // must fail at construction, by name, not inside submit().
  const auto expect_rejected = [](GatewayConfig cfg, const std::string& field) {
    Capture capture;
    try {
      Gateway gateway(cfg, capture.sink());
      ADD_FAILURE() << field << ": constructed";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field + " must be > 0"), std::string::npos) << e.what();
    }
    Gateway gateway(small_config(), capture.sink());
    EXPECT_THROW(gateway.reload(cfg), std::invalid_argument) << field;
    EXPECT_TRUE(gateway.submit("alice", {0, {0, 0}})) << "the old policy stays in force";
  };
  for (const double bad : {0.0, -0.1, std::nan("")}) {
    GatewayConfig cfg = small_config();
    cfg.epsilon = bad;
    expect_rejected(cfg, "epsilon");
    cfg = small_config();
    cfg.budget_eps = bad;
    expect_rejected(cfg, "budget_eps");
  }
  for (const trace::Timestamp bad : {0, -60}) {
    GatewayConfig cfg = small_config();
    cfg.budget_window_s = bad;
    expect_rejected(cfg, "budget_window_s");
  }
}

TEST(Gateway, FailedReloadKeepsServingTheOldPolicy) {
  Capture capture;
  Gateway gateway(small_config(), capture.sink());
  ASSERT_TRUE(gateway.submit("alice", {0, {0, 0}}));
  ASSERT_TRUE(gateway.submit("bob", {0, {10, 10}}));

  // The spec passes ObjectiveSpec::validate(); the metric name fails
  // only when the factory resolves it.
  GatewayConfig next = small_config();
  next.objectives = adaptive::parse_objective_spec("pr=0.2,pr_tol=0.1,pr_metric=bogus");
  EXPECT_THROW(gateway.reload(next), std::invalid_argument);

  EXPECT_EQ(gateway.active_sessions(), 2u);
  EXPECT_EQ(gateway.control_log(), nullptr) << "the static policy must stay in force";
  for (trace::Timestamp t = 60; t <= 300; t += 60) {
    EXPECT_TRUE(gateway.submit("alice", {t, {0, 0}}));
  }
  gateway.drain();
  ASSERT_EQ(capture.total, 7u);
  for (const ProtectedReport& r : capture.by_user.at("alice")) {
    EXPECT_EQ(r.status, ReportStatus::delivered) << "seq " << r.seq;
  }
}

}  // namespace
}  // namespace locpriv::service
