// Fault-injection & resilience layer: the seeded FaultPlan, backoff,
// circuit breaker, the resilient downstream call loop, and the gateway
// under injected chaos. The overarching contract under test: every
// injected fault schedule is a pure function of the seed, the gateway
// answers every report exactly once no matter what is injected, and
// telemetry reconciles exactly with an offline replay of the schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "lppm/grid_cloaking.h"
#include "service/gateway.h"
#include "service/load_driver.h"
#include "service/resilience/backoff.h"
#include "service/resilience/circuit_breaker.h"
#include "service/resilience/fault_plan.h"
#include "service/resilience/resilience.h"
#include "test_util.h"

namespace locpriv::service {
namespace {

// ---------------------------------------------------------------- FaultSpec

TEST(FaultSpec, EmptySpecInjectsNothing) {
  EXPECT_FALSE(FaultSpec{}.any());
  EXPECT_FALSE(parse_fault_spec("").any());
  EXPECT_NO_THROW(FaultSpec{}.validate());
}

TEST(FaultSpec, ParseRoundTripsThroughToString) {
  const FaultSpec spec = parse_fault_spec(
      "fail=0.25,latency_p=0.1,latency_us=3000,stall_p=0.01,stall_us=2000,"
      "skew_p=0.05,skew_s=120,burst_p=0.02,burst_len=16");
  EXPECT_TRUE(spec.any());
  EXPECT_DOUBLE_EQ(spec.fail_probability, 0.25);
  EXPECT_EQ(spec.latency_spike_us, 3000u);
  EXPECT_EQ(spec.burst_len, 16u);
  const FaultSpec again = parse_fault_spec(to_string(spec));
  EXPECT_DOUBLE_EQ(again.fail_probability, spec.fail_probability);
  EXPECT_DOUBLE_EQ(again.latency_probability, spec.latency_probability);
  EXPECT_EQ(again.latency_spike_us, spec.latency_spike_us);
  EXPECT_DOUBLE_EQ(again.stall_probability, spec.stall_probability);
  EXPECT_EQ(again.stall_us, spec.stall_us);
  EXPECT_DOUBLE_EQ(again.skew_probability, spec.skew_probability);
  EXPECT_EQ(again.skew_max_s, spec.skew_max_s);
  EXPECT_DOUBLE_EQ(again.burst_probability, spec.burst_probability);
  EXPECT_EQ(again.burst_len, spec.burst_len);
}

TEST(FaultSpec, ParseRejectsMalformedSpecs) {
  EXPECT_THROW((void)parse_fault_spec("bogus=1"), std::invalid_argument);
  EXPECT_THROW((void)parse_fault_spec("fail=1.5"), std::invalid_argument);
  EXPECT_THROW((void)parse_fault_spec("fail=abc"), std::invalid_argument);
  EXPECT_THROW((void)parse_fault_spec("fail"), std::invalid_argument);
  // Enabled fault with zero magnitude is a configuration error.
  EXPECT_THROW((void)parse_fault_spec("latency_p=0.1"), std::invalid_argument);
  EXPECT_THROW((void)parse_fault_spec("stall_p=0.1"), std::invalid_argument);
  EXPECT_THROW((void)parse_fault_spec("skew_p=0.1"), std::invalid_argument);
  EXPECT_THROW((void)parse_fault_spec("burst_p=0.1,burst_len=0"), std::invalid_argument);
}

// ---------------------------------------------------------------- FaultPlan

FaultSpec chaos_spec() {
  return parse_fault_spec(
      "fail=0.25,latency_p=0.1,latency_us=500,stall_p=0.05,stall_us=1000,"
      "skew_p=0.1,skew_s=300,burst_p=0.05,burst_len=8");
}

TEST(FaultPlan, IsAPureFunctionOfSpecAndSeed) {
  const FaultPlan a(chaos_spec(), 42);
  const FaultPlan b(chaos_spec(), 42);  // independent instance, same identity
  const FaultPlan c(chaos_spec(), 43);
  bool seed_matters = false;
  for (std::uint64_t uhash : {0ull, 1ull, 0xdeadbeefULL}) {
    for (std::uint64_t seq = 0; seq < 200; ++seq) {
      for (std::uint32_t attempt = 0; attempt < 3; ++attempt) {
        const DownstreamOutcome oa = a.downstream(uhash, seq, attempt);
        const DownstreamOutcome ob = b.downstream(uhash, seq, attempt);
        EXPECT_EQ(oa.failed, ob.failed);
        EXPECT_EQ(oa.latency_us, ob.latency_us);
        const DownstreamOutcome oc = c.downstream(uhash, seq, attempt);
        seed_matters = seed_matters || oa.failed != oc.failed || oa.latency_us != oc.latency_us;
      }
      EXPECT_EQ(a.stall_us(uhash, seq), b.stall_us(uhash, seq));
      EXPECT_EQ(a.clock_skew_s(uhash, seq), b.clock_skew_s(uhash, seq));
      EXPECT_EQ(a.burst_reject(seq), b.burst_reject(seq));
    }
  }
  EXPECT_TRUE(seed_matters) << "different seeds produced identical schedules";
}

TEST(FaultPlan, RatesAndMagnitudesMatchTheSpec) {
  const FaultSpec spec = chaos_spec();
  const FaultPlan plan(spec, 7);
  const int n = 20'000;
  int fails = 0, spikes = 0, stalls = 0, skews = 0;
  for (int i = 0; i < n; ++i) {
    const auto uhash = static_cast<std::uint64_t>(i) * 0x9e3779b97f4a7c15ULL;
    const auto seq = static_cast<std::uint64_t>(i);
    const DownstreamOutcome o = plan.downstream(uhash, seq, 0);
    fails += o.failed ? 1 : 0;
    spikes += o.latency_us > 0 ? 1 : 0;
    if (o.latency_us > 0) {
      EXPECT_EQ(o.latency_us, spec.latency_spike_us);
    }
    if (const std::uint32_t s = plan.stall_us(uhash, seq); s > 0) {
      ++stalls;
      EXPECT_GE(s, spec.stall_us / 2);
      EXPECT_LE(s, spec.stall_us);
    }
    if (const trace::Timestamp k = plan.clock_skew_s(uhash, seq); k != 0) {
      ++skews;
      EXPECT_LE(std::llabs(k), spec.skew_max_s);
    }
  }
  const double tol = 3.0 * std::sqrt(0.25 / n);  // ~3 sigma at the largest p
  EXPECT_NEAR(static_cast<double>(fails) / n, spec.fail_probability, tol);
  EXPECT_NEAR(static_cast<double>(spikes) / n, spec.latency_probability, tol);
  EXPECT_NEAR(static_cast<double>(stalls) / n, spec.stall_probability, tol);
  EXPECT_NEAR(static_cast<double>(skews) / n, spec.skew_probability, tol);
}

TEST(FaultPlan, BurstsRejectWholeBlocksOfTheSequence) {
  const FaultSpec spec = parse_fault_spec("burst_p=0.2,burst_len=8");
  const FaultPlan plan(spec, 11);
  int burst_blocks = 0;
  const std::uint64_t blocks = 2'000;
  for (std::uint64_t block = 0; block < blocks; ++block) {
    const bool first = plan.burst_reject(block * spec.burst_len);
    burst_blocks += first ? 1 : 0;
    for (std::uint64_t off = 1; off < spec.burst_len; ++off) {
      EXPECT_EQ(plan.burst_reject(block * spec.burst_len + off), first)
          << "burst decision must be constant within a block";
    }
  }
  EXPECT_NEAR(static_cast<double>(burst_blocks) / static_cast<double>(blocks),
              spec.burst_probability, 3.0 * std::sqrt(0.2 * 0.8 / static_cast<double>(blocks)));
}

TEST(FaultPlan, RetriesOfTheSameReportRedrawIndependently) {
  const FaultPlan plan(parse_fault_spec("fail=0.5"), 3);
  bool fail_then_succeed = false;
  for (std::uint64_t seq = 0; seq < 100 && !fail_then_succeed; ++seq) {
    fail_then_succeed =
        plan.downstream(1, seq, 0).failed && !plan.downstream(1, seq, 1).failed;
  }
  EXPECT_TRUE(fail_then_succeed) << "a retry could never succeed after a failure";
}

// ------------------------------------------------------------------ Backoff

TEST(Backoff, DeterministicExponentialWithBoundedJitter) {
  BackoffPolicy policy;  // base 100, x2, max 10000, jitter 0.5
  ASSERT_NO_THROW(policy.validate());
  for (std::uint32_t attempt = 0; attempt < 10; ++attempt) {
    const std::uint32_t d1 = backoff_us(policy, 99, attempt);
    const std::uint32_t d2 = backoff_us(policy, 99, attempt);
    EXPECT_EQ(d1, d2);
    const double cap =
        std::min<double>(policy.max_us, policy.base_us * std::pow(policy.multiplier, attempt));
    EXPECT_GE(d1, static_cast<std::uint32_t>(cap * (1.0 - policy.jitter)) - 1);
    EXPECT_LE(d1, static_cast<std::uint32_t>(cap) + 1);
  }
}

TEST(Backoff, ZeroJitterIsExactAndCapped) {
  BackoffPolicy policy;
  policy.jitter = 0.0;
  EXPECT_EQ(backoff_us(policy, 1, 0), 100u);
  EXPECT_EQ(backoff_us(policy, 1, 1), 200u);
  EXPECT_EQ(backoff_us(policy, 1, 2), 400u);
  EXPECT_EQ(backoff_us(policy, 1, 20), policy.max_us);  // far past the ceiling
}

TEST(Backoff, DistinctKeysDesynchronize) {
  const BackoffPolicy policy;
  bool differs = false;
  for (std::uint64_t key = 0; key < 32 && !differs; ++key) {
    differs = backoff_us(policy, key, 3) != backoff_us(policy, key + 1000, 3);
  }
  EXPECT_TRUE(differs) << "jitter ignores the key: retry storms stay synchronized";
}

TEST(Backoff, RejectsInvalidPolicies) {
  BackoffPolicy p;
  p.multiplier = 0.5;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = {};
  p.jitter = 1.5;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = {};
  p.base_us = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

// ----------------------------------------------------------- CircuitBreaker

TEST(CircuitBreaker, TripsAfterConsecutiveFailuresAndCoolsDownInStreamTime) {
  CircuitBreaker breaker({/*failure_threshold=*/3, /*cooldown_s=*/60});
  ASSERT_TRUE(breaker.enabled());
  EXPECT_TRUE(breaker.allow(0));
  EXPECT_FALSE(breaker.on_failure(0));
  EXPECT_FALSE(breaker.on_failure(0));
  EXPECT_TRUE(breaker.on_failure(0)) << "third consecutive failure must trip";
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::open);
  EXPECT_EQ(breaker.trips(), 1u);
  EXPECT_FALSE(breaker.allow(30)) << "still cooling down";
  EXPECT_TRUE(breaker.allow(60)) << "cooldown elapsed: probe admitted";
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::half_open);
}

TEST(CircuitBreaker, HalfOpenProbeOutcomeDecidesTheState) {
  CircuitBreaker breaker({2, 10});
  (void)breaker.on_failure(0);
  ASSERT_TRUE(breaker.on_failure(0));
  ASSERT_TRUE(breaker.allow(10));  // half-open probe
  EXPECT_TRUE(breaker.on_failure(10)) << "failed probe re-trips";
  EXPECT_FALSE(breaker.allow(19)) << "fresh cooldown from the failed probe";
  ASSERT_TRUE(breaker.allow(20));
  breaker.on_success();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::closed);
  EXPECT_TRUE(breaker.allow(20));
  EXPECT_EQ(breaker.trips(), 2u);
}

TEST(CircuitBreaker, SuccessResetsTheConsecutiveCount) {
  CircuitBreaker breaker({3, 60});
  (void)breaker.on_failure(0);
  (void)breaker.on_failure(0);
  breaker.on_success();  // streak broken
  (void)breaker.on_failure(0);
  (void)breaker.on_failure(0);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::closed);
}

TEST(CircuitBreaker, ZeroThresholdDisables) {
  CircuitBreaker breaker({0, 60});
  EXPECT_FALSE(breaker.enabled());
  for (int i = 0; i < 100; ++i) (void)breaker.on_failure(0);
  EXPECT_TRUE(breaker.allow(0));
  EXPECT_EQ(breaker.trips(), 0u);
}

// ------------------------------------------------- resilient_downstream_call

ResilienceConfig fast_config() {
  ResilienceConfig cfg;
  cfg.sleep_for_real = false;
  return cfg;
}

TEST(ResilientCall, NoPlanSucceedsOnTheFirstAttempt) {
  const ResilienceConfig cfg = fast_config();
  const DownstreamCallResult r = resilient_downstream_call(
      cfg, nullptr, nullptr, nullptr, 1, 0, 0, std::chrono::microseconds(30));
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.attempts, 1u);
  EXPECT_EQ(r.virtual_elapsed_us, 30u);
  EXPECT_FALSE(r.short_circuited);
  EXPECT_FALSE(r.deadline_exceeded);
}

TEST(ResilientCall, RetryPolicyExhaustsItsBudgetAgainstAHardDownDownstream) {
  const FaultPlan plan(parse_fault_spec("fail=1"), 5);
  ResilienceConfig cfg = fast_config();
  cfg.max_retries = 3;
  cfg.deadline_us = 0;  // isolate the retry budget
  const DownstreamCallResult r = resilient_downstream_call(
      cfg, &plan, nullptr, nullptr, 1, 0, 0, std::chrono::microseconds(0));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.attempts, 1u + cfg.max_retries);
}

TEST(ResilientCall, SuppressPolicyNeverRetries) {
  const FaultPlan plan(parse_fault_spec("fail=1"), 5);
  ResilienceConfig cfg = fast_config();
  cfg.policy = DegradePolicy::suppress;
  cfg.max_retries = 3;  // ignored under suppress
  const DownstreamCallResult r = resilient_downstream_call(
      cfg, &plan, nullptr, nullptr, 1, 0, 0, std::chrono::microseconds(0));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.attempts, 1u);
}

TEST(ResilientCall, VirtualDeadlineCutsTheRetryLoopShort) {
  const FaultPlan plan(parse_fault_spec("fail=1"), 5);
  ResilienceConfig cfg = fast_config();
  cfg.max_retries = 100;
  cfg.deadline_us = 25'000;
  const DownstreamCallResult r = resilient_downstream_call(
      cfg, &plan, nullptr, nullptr, 1, 0, 0, std::chrono::microseconds(10'000));
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.deadline_exceeded);
  EXPECT_LE(r.attempts, 3u);  // 3 * 10 ms of attempt latency alone overruns
  EXPECT_GE(r.virtual_elapsed_us, cfg.deadline_us);
}

TEST(ResilientCall, TrippedBreakerShortCircuitsBeforeAnyAttempt) {
  const FaultPlan plan(parse_fault_spec("fail=1"), 5);
  ResilienceConfig cfg = fast_config();
  cfg.max_retries = 1;
  CircuitBreaker breaker({/*failure_threshold=*/2, /*cooldown_s=*/60});
  const DownstreamCallResult first = resilient_downstream_call(
      cfg, &plan, &breaker, nullptr, 1, 0, /*stream_now=*/0, std::chrono::microseconds(0));
  EXPECT_FALSE(first.ok);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::open);
  const DownstreamCallResult second = resilient_downstream_call(
      cfg, &plan, &breaker, nullptr, 1, 1, /*stream_now=*/10, std::chrono::microseconds(0));
  EXPECT_TRUE(second.short_circuited);
  EXPECT_EQ(second.attempts, 0u);
  // After the cooldown the breaker admits a probe again.
  const DownstreamCallResult probe = resilient_downstream_call(
      cfg, &plan, &breaker, nullptr, 1, 2, /*stream_now=*/60, std::chrono::microseconds(0));
  EXPECT_GE(probe.attempts, 1u);
}

// ------------------------------------------------------- Gateway under chaos

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

  /// Answers per user in submission order. Worker answers arrive in
  /// order already, but inline rejections (submit thread) race with
  /// them in wall-clock arrival order, so sort by the unique seq.
  void sort_by_seq() {
    for (auto& [user, reports] : by_user) {
      std::sort(reports.begin(), reports.end(),
                [](const ProtectedReport& a, const ProtectedReport& b) { return a.seq < b.seq; });
    }
  }
};

GatewayConfig chaos_gateway_config() {
  GatewayConfig cfg;
  cfg.workers = 4;
  cfg.queue_capacity = 1 << 14;  // large: only injected bursts reject
  cfg.epsilon = 0.05;
  cfg.budget_eps = 0.5;
  cfg.budget_window_s = 1800;
  cfg.seed = 77;
  cfg.faults = parse_fault_spec(
      "fail=0.25,latency_p=0.1,latency_us=200,stall_p=0.02,stall_us=500,"
      "skew_p=0.1,skew_s=300,burst_p=0.05,burst_len=8");
  cfg.resilience.sleep_for_real = false;
  return cfg;
}

bool identical_reports(const ProtectedReport& a, const ProtectedReport& b) {
  if (a.seq != b.seq || a.status != b.status || a.downstream_attempts != b.downstream_attempts ||
      a.protected_event.has_value() != b.protected_event.has_value()) {
    return false;
  }
  if (!a.protected_event.has_value()) return true;
  // Bit-exact doubles: memcmp, not ==, so -0.0 vs 0.0 or NaN would show.
  return a.protected_event->time == b.protected_event->time &&
         std::memcmp(&a.protected_event->location.x, &b.protected_event->location.x, 8) == 0 &&
         std::memcmp(&a.protected_event->location.y, &b.protected_event->location.y, 8) == 0;
}

TEST(GatewayChaos, EveryReportAnsweredExactlyOnceUnderHeavyFaults) {
  const trace::Dataset data = testutil::two_stop_dataset(12);
  const GatewayConfig cfg = chaos_gateway_config();
  ASSERT_GE(cfg.faults.fail_probability, 0.20) << "soak must inject >= 20% failures";
  Capture capture;
  LoadResult load;
  TelemetrySnapshot snap;
  {
    Gateway gateway(cfg, capture.sink());
    load = replay_dataset(data, gateway);
    snap = gateway.telemetry().snapshot();
  }
  EXPECT_EQ(load.submitted, data.total_events());
  EXPECT_EQ(capture.total, load.submitted) << "a report was dropped or answered twice";
  EXPECT_EQ(snap.received, load.submitted);
  EXPECT_EQ(snap.delivered + snap.suppressed_budget + snap.rejected_queue_full +
                snap.degraded_suppressed + snap.degraded_fallback,
            snap.received)
      << "every received report must land in exactly one terminal status";
  EXPECT_GT(snap.downstream_failures, 0u);
  EXPECT_GT(snap.downstream_retries, 0u);
  EXPECT_EQ(snap.downstream_retries, snap.backoff_count);
  // Large queue: the only rejections are the injected bursts.
  EXPECT_EQ(snap.rejected_queue_full, snap.injected_burst_rejects);
  // Per-user answers stay in submission order once inline rejections are
  // merged back by seq.
  capture.sort_by_seq();
  for (const auto& [user, reports] : capture.by_user) {
    for (std::size_t i = 1; i < reports.size(); ++i) {
      EXPECT_LT(reports[i - 1].seq, reports[i].seq) << "user " << user << " answered twice";
    }
  }
}

TEST(GatewayChaos, SameSeedReplaysBitIdentically) {
  const trace::Dataset data = testutil::two_stop_dataset(10);
  const GatewayConfig cfg = chaos_gateway_config();
  Capture a, b;
  {
    Gateway gateway(cfg, a.sink());
    replay_dataset(data, gateway);
  }
  {
    Gateway gateway(cfg, b.sink());
    replay_dataset(data, gateway);
  }
  a.sort_by_seq();
  b.sort_by_seq();
  ASSERT_EQ(a.total, b.total);
  for (const auto& [user, ra] : a.by_user) {
    const auto it = b.by_user.find(user);
    ASSERT_NE(it, b.by_user.end());
    const auto& rb = it->second;
    ASSERT_EQ(ra.size(), rb.size()) << "user " << user;
    for (std::size_t i = 0; i < ra.size(); ++i) {
      EXPECT_TRUE(identical_reports(ra[i], rb[i]))
          << "user " << user << " seq " << ra[i].seq << " differs between same-seed runs";
    }
  }
}

TEST(GatewayChaos, DistinctFaultSeedsProduceDistinctSchedules) {
  const trace::Dataset data = testutil::two_stop_dataset(6);
  GatewayConfig cfg = chaos_gateway_config();
  Capture a, b;
  cfg.fault_seed = 1;
  {
    Gateway gateway(cfg, a.sink());
    replay_dataset(data, gateway);
  }
  cfg.fault_seed = 2;
  {
    Gateway gateway(cfg, b.sink());
    replay_dataset(data, gateway);
  }
  a.sort_by_seq();
  b.sort_by_seq();
  bool differs = a.total != b.total;
  for (const auto& [user, ra] : a.by_user) {
    const auto& rb = b.by_user[user];
    if (ra.size() != rb.size()) {
      differs = true;
      continue;
    }
    for (std::size_t i = 0; i < ra.size(); ++i) {
      differs = differs || !identical_reports(ra[i], rb[i]);
    }
  }
  EXPECT_TRUE(differs) << "the fault seed does not reach the schedule";
}

TEST(GatewayChaos, TelemetryReconcilesWithOfflineScheduleReplay) {
  // The FaultPlan is pure, so the test can replay the exact schedule the
  // gateway saw and predict every injection counter to the unit.
  const trace::Dataset data = testutil::two_stop_dataset(8);
  GatewayConfig cfg = chaos_gateway_config();
  cfg.resilience.breaker.failure_threshold = 0;  // isolate plan-driven paths
  cfg.resilience.deadline_us = 0;
  cfg.resilience.max_retries = 2;
  Capture capture;
  TelemetrySnapshot snap;
  const FaultPlan* plan_view = nullptr;
  FaultSpec spec;
  std::uint64_t plan_seed = 0;
  {
    Gateway gateway(cfg, capture.sink());
    plan_view = gateway.fault_plan();
    ASSERT_NE(plan_view, nullptr);
    spec = plan_view->spec();
    plan_seed = plan_view->seed();
    replay_dataset(data, gateway);
    snap = gateway.telemetry().snapshot();
  }
  const FaultPlan plan(spec, plan_seed);  // rebuilt offline from identity

  std::uint64_t bursts = 0, stalls = 0, skews = 0;
  std::uint64_t attempts = 0, failures = 0, retries = 0;
  capture.sort_by_seq();
  for (const auto& [user, reports] : capture.by_user) {
    const std::uint64_t uhash = stable_hash64(user);
    for (const ProtectedReport& r : reports) {
      if (r.status == ReportStatus::rejected_queue_full) {
        EXPECT_TRUE(plan.burst_reject(r.seq))
            << "seq " << r.seq << " rejected outside any scheduled burst";
        ++bursts;
        continue;
      }
      EXPECT_FALSE(plan.burst_reject(r.seq))
          << "seq " << r.seq << " should have been burst-rejected at the gate";
      stalls += plan.stall_us(uhash, r.seq) > 0 ? 1 : 0;
      skews += plan.clock_skew_s(uhash, r.seq) != 0 ? 1 : 0;
      if (r.status == ReportStatus::suppressed_budget) {
        EXPECT_EQ(r.downstream_attempts, 0u) << "budget-suppressed report called downstream";
        continue;  // no downstream call for unprotected reports
      }
      // Replay the retry loop: breaker and deadline are off, so attempts
      // depend on the plan alone.
      std::uint32_t k = 0;
      bool ok = false;
      for (; k <= cfg.resilience.max_retries; ++k) {
        ++attempts;
        if (!plan.downstream(uhash, r.seq, k).failed) {
          ok = true;
          break;
        }
        ++failures;
        if (k < cfg.resilience.max_retries) ++retries;
      }
      EXPECT_EQ(r.downstream_attempts, ok ? k + 1 : k) << "seq " << r.seq;
      EXPECT_EQ(r.status == ReportStatus::delivered, ok) << "seq " << r.seq;
    }
  }
  EXPECT_EQ(snap.injected_burst_rejects, bursts);
  EXPECT_EQ(snap.worker_stalls, stalls);
  EXPECT_EQ(snap.clock_skews, skews);
  EXPECT_EQ(snap.downstream_attempts, attempts);
  EXPECT_EQ(snap.downstream_failures, failures);
  EXPECT_EQ(snap.downstream_retries, retries);
}

TEST(GatewayChaos, FallbackCloakAnswersOnTheCloakingGrid) {
  const trace::Dataset data = testutil::two_stop_dataset(6);
  GatewayConfig cfg = chaos_gateway_config();
  cfg.faults = parse_fault_spec("fail=1");  // downstream hard-down
  cfg.resilience.policy = DegradePolicy::fallback_cloak;
  cfg.resilience.fallback_cell_m = 5'000.0;
  Capture capture;
  TelemetrySnapshot snap;
  {
    Gateway gateway(cfg, capture.sink());
    replay_dataset(data, gateway);
    snap = gateway.telemetry().snapshot();
  }
  EXPECT_EQ(snap.delivered, 0u) << "nothing can be delivered when every attempt fails";
  EXPECT_GT(snap.degraded_fallback, 0u);
  EXPECT_EQ(snap.degraded_suppressed, 0u);
  for (const auto& [user, reports] : capture.by_user) {
    for (const ProtectedReport& r : reports) {
      if (r.status != ReportStatus::degraded_fallback) continue;
      ASSERT_TRUE(r.protected_event.has_value()) << "fallback must still answer with a point";
      // Cell centers are fixed points of the cloak: snapping again must
      // be a no-op iff the answer really lies on the fallback grid.
      const geo::Point p = r.protected_event->location;
      const geo::Point snapped = lppm::cloak_point(p, cfg.resilience.fallback_cell_m);
      EXPECT_DOUBLE_EQ(p.x, snapped.x);
      EXPECT_DOUBLE_EQ(p.y, snapped.y);
    }
  }
}

TEST(GatewayChaos, SuppressPolicyShedsWithoutRetrying) {
  const trace::Dataset data = testutil::two_stop_dataset(6);
  GatewayConfig cfg = chaos_gateway_config();
  cfg.resilience.policy = DegradePolicy::suppress;
  Capture capture;
  TelemetrySnapshot snap;
  {
    Gateway gateway(cfg, capture.sink());
    replay_dataset(data, gateway);
    snap = gateway.telemetry().snapshot();
  }
  EXPECT_EQ(snap.downstream_retries, 0u);
  EXPECT_EQ(snap.backoff_count, 0u);
  EXPECT_GT(snap.degraded_suppressed, 0u);
  EXPECT_EQ(snap.degraded_fallback, 0u);
  for (const auto& [user, reports] : capture.by_user) {
    for (const ProtectedReport& r : reports) {
      if (r.status == ReportStatus::degraded_suppressed) {
        EXPECT_FALSE(r.protected_event.has_value());
        EXPECT_EQ(r.downstream_attempts, 1u);
      }
    }
  }
}

TEST(GatewayChaos, ClockSkewIsClampedToMonotonePerUserTime) {
  const trace::Dataset data = testutil::two_stop_dataset(8);
  GatewayConfig cfg = chaos_gateway_config();
  cfg.faults = parse_fault_spec("skew_p=0.5,skew_s=600");  // violent clocks only
  Capture capture;
  TelemetrySnapshot snap;
  {
    Gateway gateway(cfg, capture.sink());
    replay_dataset(data, gateway);
    snap = gateway.telemetry().snapshot();
  }
  EXPECT_GT(snap.clock_skews, 0u);
  EXPECT_GT(snap.timestamps_clamped, 0u)
      << "±600 s of skew on 60 s-spaced reports must send some clock backwards";
  // The budget accountant requires monotone per-user time; the gateway
  // must deliver it no matter what the injected clocks do.
  capture.sort_by_seq();
  for (const auto& [user, reports] : capture.by_user) {
    trace::Timestamp prev = 0;
    for (const ProtectedReport& r : reports) {
      if (!r.protected_event.has_value()) continue;
      EXPECT_GE(r.protected_event->time, prev) << "user " << user << " time ran backwards";
      prev = r.protected_event->time;
    }
  }
  // Nothing was lost to the chaos: the exactly-once identity still holds.
  EXPECT_EQ(snap.delivered + snap.suppressed_budget + snap.rejected_queue_full +
                snap.degraded_suppressed + snap.degraded_fallback,
            snap.received);
}

TEST(GatewayChaos, BreakerTripsAndShortCircuitsUnderHardDownDownstream) {
  const trace::Dataset data = testutil::two_stop_dataset(6);
  GatewayConfig cfg = chaos_gateway_config();
  cfg.faults = parse_fault_spec("fail=1");
  cfg.resilience.breaker.failure_threshold = 4;
  cfg.resilience.breaker.cooldown_s = 300;
  TelemetrySnapshot snap;
  {
    Gateway gateway(cfg, [](const ProtectedReport&) {});
    replay_dataset(data, gateway);
    snap = gateway.telemetry().snapshot();
  }
  EXPECT_GT(snap.breaker_trips, 0u);
  EXPECT_GT(snap.breaker_short_circuits, 0u);
  // Short-circuited calls spare the downstream: attempts stay well under
  // the no-breaker worst case of every report exhausting its retries.
  const std::uint64_t worst_case =
      (snap.received - snap.rejected_queue_full) * (1u + cfg.resilience.max_retries);
  EXPECT_LT(snap.downstream_attempts, worst_case / 2);
}

}  // namespace
}  // namespace locpriv::service
