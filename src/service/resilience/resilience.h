// The resilience policy of the gateway's downstream call, and the loop
// that executes it.
//
// Once a report is protected, the gateway forwards it to the LBS. That
// call can fail or hang; the machinery here survives it: a per-request
// deadline, bounded retries with seeded exponential backoff, a per-shard
// circuit breaker, and an explicit graceful-degradation policy for when
// everything is exhausted — suppress (drop the report) or fallback_cloak
// (answer with a coarse grid-cloaked point instead of dropping it).
//
// Two clocks, deliberately separate: *decisions* (deadline, breaker
// cooldown) run on virtual time — simulated attempt latencies and
// backoff delays summed deterministically — while holding the answer
// for those delays in real time is optional and never influences the
// outcome. Nothing here sleeps: the call returns the real-time hold and
// the gateway's lane keeps the answer that long. That is how a chaos
// soak can be realistic and bit-reproducible at once.
#pragma once

#include <chrono>
#include <cstdint>
#include <string_view>

#include "service/resilience/backoff.h"
#include "service/resilience/circuit_breaker.h"
#include "service/resilience/fault_plan.h"

namespace locpriv::service {

class Telemetry;

/// What to do when a downstream call cannot be completed normally.
enum class DegradePolicy {
  retry,           ///< retry within limits, then drop the report
  suppress,        ///< no retries: first failure drops the report
  fallback_cloak,  ///< retry within limits, then answer with a coarse
                   ///< grid-cloaked point (lppm/grid_cloaking) instead
                   ///< of dropping
};

[[nodiscard]] const char* to_string(DegradePolicy p);
/// Parses "retry" | "suppress" | "fallback_cloak"; throws
/// std::invalid_argument otherwise.
[[nodiscard]] DegradePolicy parse_degrade_policy(std::string_view s);

struct ResilienceConfig {
  DegradePolicy policy = DegradePolicy::retry;
  /// Retries after the first attempt (ignored under policy suppress).
  std::uint32_t max_retries = 3;
  /// Virtual per-request deadline over attempt latencies + backoffs;
  /// 0 disables the deadline.
  std::uint64_t deadline_us = 50'000;
  BackoffPolicy backoff;
  CircuitBreakerConfig breaker;
  /// Cell edge (meters) of the fallback cloaking grid.
  double fallback_cell_m = 5'000.0;
  /// Hold answers in real time for simulated latencies, stalls and
  /// backoffs (soak realism; also how GatewayConfig::downstream_latency
  /// has always behaved). Decisions never depend on this; tests turn it
  /// off for speed.
  bool sleep_for_real = true;

  void validate() const;  ///< throws std::invalid_argument
};

/// Outcome of one resilient downstream call.
struct DownstreamCallResult {
  bool ok = false;
  std::uint32_t attempts = 0;  ///< attempts actually made (0 iff short-circuited before any)
  bool short_circuited = false;   ///< breaker refused (possibly after some attempts)
  bool deadline_exceeded = false; ///< virtual deadline ran out before success
  std::uint64_t virtual_elapsed_us = 0;  ///< simulated latency + backoff total
  /// Real time the answer is held for this call: every attempt latency
  /// and backoff through real_hold(). Zero unless sleep_for_real is set.
  std::chrono::microseconds hold{0};
};

/// Real time a simulated delay of `us` holds an answer: `us` capped at
/// 20 ms, so a hostile fault spec cannot wedge a lane, or zero when
/// `cfg.sleep_for_real` is off. Virtual time is never capped.
[[nodiscard]] std::chrono::microseconds real_hold(const ResilienceConfig& cfg, std::uint64_t us);

/// Executes one downstream call for report (`user_hash`, `seq`) under
/// `cfg`. `plan` may be null (no injected faults: the call succeeds on
/// the first attempt after `base_latency`); `breaker` may be null
/// (disabled); `telemetry` may be null (events dropped). `stream_now`
/// is the report's stream time — it drives the breaker cooldown.
/// Deterministic in (cfg, plan, breaker state, user_hash, seq).
[[nodiscard]] DownstreamCallResult resilient_downstream_call(
    const ResilienceConfig& cfg, const FaultPlan* plan, CircuitBreaker* breaker,
    Telemetry* telemetry, std::uint64_t user_hash, std::uint64_t seq,
    trace::Timestamp stream_now, std::chrono::microseconds base_latency);

}  // namespace locpriv::service
