#include "service/resilience/resilience.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "service/telemetry.h"
#include "stats/rng.h"

namespace locpriv::service {

const char* to_string(DegradePolicy p) {
  switch (p) {
    case DegradePolicy::retry: return "retry";
    case DegradePolicy::suppress: return "suppress";
    case DegradePolicy::fallback_cloak: return "fallback_cloak";
  }
  return "unknown";
}

DegradePolicy parse_degrade_policy(std::string_view s) {
  if (s == "retry") return DegradePolicy::retry;
  if (s == "suppress") return DegradePolicy::suppress;
  if (s == "fallback_cloak") return DegradePolicy::fallback_cloak;
  throw std::invalid_argument("unknown degradation policy '" + std::string(s) +
                              "' (retry | suppress | fallback_cloak)");
}

std::chrono::microseconds real_hold(const ResilienceConfig& cfg, std::uint64_t us) {
  if (!cfg.sleep_for_real) return std::chrono::microseconds(0);
  return std::chrono::microseconds(std::min<std::uint64_t>(us, 20'000));
}

void ResilienceConfig::validate() const {
  backoff.validate();
  if (fallback_cell_m <= 0.0) {
    throw std::invalid_argument("ResilienceConfig: fallback_cell_m must be > 0");
  }
}

DownstreamCallResult resilient_downstream_call(const ResilienceConfig& cfg, const FaultPlan* plan,
                                               CircuitBreaker* breaker, Telemetry* telemetry,
                                               std::uint64_t user_hash, std::uint64_t seq,
                                               trace::Timestamp stream_now,
                                               std::chrono::microseconds base_latency) {
  DownstreamCallResult result;
  const std::uint32_t max_retries =
      cfg.policy == DegradePolicy::suppress ? 0 : cfg.max_retries;
  const std::uint64_t backoff_key = stats::derive_seed(user_hash, seq);

  for (std::uint32_t attempt = 0;; ++attempt) {
    if (breaker != nullptr && !breaker->allow(stream_now)) {
      result.short_circuited = true;
      if (telemetry != nullptr) telemetry->record_breaker_short_circuit();
      return result;
    }

    const DownstreamOutcome outcome =
        plan != nullptr ? plan->downstream(user_hash, seq, attempt) : DownstreamOutcome{};
    const std::uint64_t latency_us =
        static_cast<std::uint64_t>(base_latency.count()) + outcome.latency_us;
    result.virtual_elapsed_us += latency_us;
    ++result.attempts;
    if (telemetry != nullptr) telemetry->record_downstream_attempt();
    result.hold += real_hold(cfg, latency_us);

    if (!outcome.failed) {
      if (breaker != nullptr) breaker->on_success();
      result.ok = true;
      return result;
    }

    if (telemetry != nullptr) telemetry->record_downstream_failure();
    if (breaker != nullptr && breaker->on_failure(stream_now) && telemetry != nullptr) {
      telemetry->record_breaker_trip();
    }
    if (attempt >= max_retries) return result;
    if (cfg.deadline_us > 0 && result.virtual_elapsed_us >= cfg.deadline_us) {
      result.deadline_exceeded = true;
      if (telemetry != nullptr) telemetry->record_deadline_exceeded();
      return result;
    }

    const std::uint32_t delay_us = backoff_us(cfg.backoff, backoff_key, attempt);
    result.virtual_elapsed_us += delay_us;
    if (cfg.deadline_us > 0 && result.virtual_elapsed_us >= cfg.deadline_us) {
      result.deadline_exceeded = true;
      if (telemetry != nullptr) telemetry->record_deadline_exceeded();
      return result;
    }
    if (telemetry != nullptr) telemetry->record_retry(delay_us);
    result.hold += real_hold(cfg, delay_us);
  }
}

}  // namespace locpriv::service
