// Per-shard circuit breaker for the downstream LBS call.
//
// When the downstream is hard-down, retrying every report multiplies
// load by (1 + max_retries) exactly when the service can least afford
// it. The breaker watches consecutive attempt failures and, past a
// threshold, short-circuits calls for a cooldown period, then lets one
// probe through (half-open) to test recovery.
//
// Determinism: the breaker is owned by one gateway lane and sees that
// lane's reports in submission order, and its cooldown is measured in
// *stream time* (report timestamps), not wall time. A lane's request
// sequence is a deterministic function of the submitted stream, so
// breaker decisions — and therefore the gateway's output — are
// bit-reproducible for a fixed lane count.
#pragma once

#include <cstdint>

#include "trace/event.h"

namespace locpriv::service {

struct CircuitBreakerConfig {
  /// Consecutive attempt failures that trip the breaker; 0 disables it.
  std::uint32_t failure_threshold = 5;
  /// Stream-time the breaker stays open before admitting a probe.
  trace::Timestamp cooldown_s = 60;
};

class CircuitBreaker {
 public:
  enum class State { closed, open, half_open };

  explicit CircuitBreaker(CircuitBreakerConfig cfg) : cfg_(cfg) {}

  /// May an attempt proceed at stream time `now`? Transitions
  /// open -> half_open once the cooldown has elapsed (the caller's
  /// attempt is the probe). Always true when disabled.
  [[nodiscard]] bool allow(trace::Timestamp now);

  /// Reports the probe/attempt outcome. A half-open success closes the
  /// breaker; a half-open failure re-opens it (fresh cooldown from
  /// `now`). Returns true when this failure tripped the breaker
  /// (closed -> open or half_open -> open).
  void on_success();
  bool on_failure(trace::Timestamp now);

  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] std::uint64_t trips() const { return trips_; }
  [[nodiscard]] bool enabled() const { return cfg_.failure_threshold > 0; }

 private:
  CircuitBreakerConfig cfg_;
  State state_ = State::closed;
  std::uint32_t consecutive_failures_ = 0;
  trace::Timestamp opened_at_ = 0;
  std::uint64_t trips_ = 0;
};

}  // namespace locpriv::service
