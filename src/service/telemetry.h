// Live observability of the serving gateway: lock-free counters for the
// hot path, mutex-guarded histograms for distributions, and a JSON
// snapshot for dashboards / offline analysis.
//
// Counters are plain relaxed atomics — the gateway bumps them on every
// report, and any thread may snapshot them without contending. The two histograms (service
// latency, per-user ε spend at delivery time) take a short mutex; an
// add into a fixed-bin stats::Histogram is a handful of instructions,
// so the critical section is far cheaper than the Laplace sampling it
// measures.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>

#include "io/json.h"
#include "stats/histogram.h"

namespace locpriv::service {

/// Point-in-time copy of every gauge the gateway exposes. Plain values —
/// safe to hold, print or serialize after the gateway is gone.
struct TelemetrySnapshot {
  // Counters. received = delivered + suppressed_budget + rejected_queue_full
  // once the gateway has drained.
  std::uint64_t received = 0;
  std::uint64_t delivered = 0;
  std::uint64_t suppressed_budget = 0;    ///< ε window exhausted
  std::uint64_t rejected_queue_full = 0;  ///< backpressure suppression
  std::uint64_t sessions_created = 0;
  std::uint64_t sessions_evicted_idle = 0;
  std::uint64_t sessions_evicted_lru = 0;

  // Service-time distribution (µs, measured around the protection call).
  std::uint64_t latency_count = 0;
  double latency_p50_us = 0.0;
  double latency_p95_us = 0.0;
  double latency_p99_us = 0.0;

  // ε spent inside the sliding window, sampled at each delivery.
  std::uint64_t eps_count = 0;
  double eps_p50 = 0.0;
  double eps_max_seen = 0.0;

  // Resilience: the downstream call loop and fault injection. After a
  // drain, received = delivered + suppressed_budget + rejected_queue_full
  //                 + degraded_suppressed + degraded_fallback,
  // downstream_retries = downstream_attempts - calls, and
  // injected_burst_rejects <= rejected_queue_full.
  std::uint64_t downstream_attempts = 0;
  std::uint64_t downstream_failures = 0;
  std::uint64_t downstream_retries = 0;
  std::uint64_t breaker_trips = 0;
  std::uint64_t breaker_short_circuits = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t degraded_suppressed = 0;  ///< downstream gave up, report dropped
  std::uint64_t degraded_fallback = 0;    ///< answered with a grid-cloaked point
  std::uint64_t injected_burst_rejects = 0;
  std::uint64_t worker_stalls = 0;
  std::uint64_t clock_skews = 0;
  std::uint64_t timestamps_clamped = 0;  ///< backwards client clocks sanitized

  // Backoff delays issued before retries (µs).
  std::uint64_t backoff_count = 0;
  double backoff_p50_us = 0.0;
  double backoff_p95_us = 0.0;
};

/// Shared telemetry sink. All record_* methods are thread-safe; the
/// gateway calls them from the thread that drives it.
class Telemetry {
 public:
  /// `latency_hi_us` / `eps_hi` / `backoff_hi_us` bound the histogram
  /// ranges; samples above land in the overflow tally and saturate the
  /// quantiles at the bound.
  Telemetry(double latency_hi_us = 50'000.0, double eps_hi = 1.0,
            double backoff_hi_us = 20'000.0);

  void record_received() { received_.fetch_add(1, std::memory_order_relaxed); }
  void record_rejected_queue_full() {
    rejected_queue_full_.fetch_add(1, std::memory_order_relaxed);
  }
  void record_session_created() { sessions_created_.fetch_add(1, std::memory_order_relaxed); }
  void record_session_evicted_idle() { evicted_idle_.fetch_add(1, std::memory_order_relaxed); }
  void record_session_evicted_lru() { evicted_lru_.fetch_add(1, std::memory_order_relaxed); }

  /// A report the session answered. `eps_spent_window` is the budget
  /// spend after this delivery (NaN when the session has no budget).
  void record_delivered(double latency_us, double eps_spent_window);
  /// A report the session suppressed (budget exhausted).
  void record_suppressed(double latency_us);

  // Resilience events (see resilience/resilience.h for the call loop).
  void record_downstream_attempt() {
    downstream_attempts_.fetch_add(1, std::memory_order_relaxed);
  }
  void record_downstream_failure() {
    downstream_failures_.fetch_add(1, std::memory_order_relaxed);
  }
  /// A retry was scheduled after `backoff_us` of (virtual) delay.
  void record_retry(double backoff_us);
  void record_breaker_trip() { breaker_trips_.fetch_add(1, std::memory_order_relaxed); }
  void record_breaker_short_circuit() {
    breaker_short_circuits_.fetch_add(1, std::memory_order_relaxed);
  }
  void record_deadline_exceeded() {
    deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Downstream gave up and the report was dropped (policy suppress /
  /// retry exhaustion).
  void record_degraded_suppressed(double latency_us);
  /// Downstream gave up and the report was answered with a coarse
  /// grid-cloaked point. ε was spent at protection time, so the spend
  /// is still sampled (NaN when the session has no budget).
  void record_degraded_fallback(double latency_us, double eps_spent_window);
  void record_injected_burst_reject() {
    injected_burst_rejects_.fetch_add(1, std::memory_order_relaxed);
  }
  void record_worker_stall() { worker_stalls_.fetch_add(1, std::memory_order_relaxed); }
  void record_clock_skew() { clock_skews_.fetch_add(1, std::memory_order_relaxed); }
  /// A report's timestamp ran backwards and was clamped to the user's
  /// previous report time before budget accounting.
  void record_timestamp_clamped() {
    timestamps_clamped_.fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] TelemetrySnapshot snapshot() const;

  /// Stable-schema JSON report (documented in docs/SERVICE.md). Includes
  /// a `process` block with the caller's resident set, so a per-shard
  /// snapshot doubles as the page-sharing evidence the service bench
  /// collects.
  [[nodiscard]] io::JsonValue to_json() const;

 private:
  std::atomic<std::uint64_t> received_{0};
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> suppressed_budget_{0};
  std::atomic<std::uint64_t> rejected_queue_full_{0};
  std::atomic<std::uint64_t> sessions_created_{0};
  std::atomic<std::uint64_t> evicted_idle_{0};
  std::atomic<std::uint64_t> evicted_lru_{0};

  std::atomic<std::uint64_t> downstream_attempts_{0};
  std::atomic<std::uint64_t> downstream_failures_{0};
  std::atomic<std::uint64_t> downstream_retries_{0};
  std::atomic<std::uint64_t> breaker_trips_{0};
  std::atomic<std::uint64_t> breaker_short_circuits_{0};
  std::atomic<std::uint64_t> deadline_exceeded_{0};
  std::atomic<std::uint64_t> degraded_suppressed_{0};
  std::atomic<std::uint64_t> degraded_fallback_{0};
  std::atomic<std::uint64_t> injected_burst_rejects_{0};
  std::atomic<std::uint64_t> worker_stalls_{0};
  std::atomic<std::uint64_t> clock_skews_{0};
  std::atomic<std::uint64_t> timestamps_clamped_{0};

  mutable std::mutex latency_mutex_;
  stats::Histogram latency_us_;
  mutable std::mutex eps_mutex_;
  stats::Histogram eps_spend_;
  double eps_max_seen_ = 0.0;
  mutable std::mutex backoff_mutex_;
  stats::Histogram backoff_us_;
};

/// This process's resident set (VmRSS from /proc/self/status), in KiB.
/// 0 when the value is unavailable (non-Linux). Cheap enough to call on
/// every telemetry snapshot.
[[nodiscard]] std::uint64_t resident_set_kb();

}  // namespace locpriv::service
