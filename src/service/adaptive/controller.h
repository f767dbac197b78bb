// The per-user feedback loop that closes the paper's configuration
// cycle online.
//
// Offline, the framework sweeps ε, fits the log-linear model (Eq. 2)
// and inverts it once. The PrivacyController runs the same three steps
// continuously on one user's live stream: estimate the current
// privacy/utility operating point from a sliding window of delivered
// (actual, protected) pairs, re-fit the model locally around the
// operating points seen so far, and invert it (clamped — see
// core::invert_clamped) toward the user's ObjectiveSpec setpoint. A
// bounded actuator turns the proposal into an ε move: dead-band around
// the target, per-decision |Δ ln ε| clamp, cooldown between moves, and
// a hard [eps_min, eps_max] domain, so the loop is stable under noisy
// estimates instead of chasing them.
//
// Determinism: the controller is a pure function of the delivered pair
// sequence (values and virtual timestamps). It never reads a wall
// clock, thread id or RNG, so identical streams produce identical
// decision sequences at any lane count, with tracing on or off.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "metrics/metric.h"
#include "service/adaptive/objective.h"
#include "trace/event.h"

namespace locpriv::service::adaptive {

/// What a decision did.
enum class ControlAction {
  kHoldInBand,        ///< every controlled axis inside its dead-band
  kHoldCooldown,      ///< out of band, but the last move is too recent
  kHoldInsufficient,  ///< window below min_window_pairs (or estimate unusable)
  kHoldFrozen,        ///< out of band, but monitor mode (max_step = 0)
  kStep,              ///< ε moved toward the inverted target
  kSaturateLow,       ///< inversion demanded ε below eps_min; pinned there
  kSaturateHigh,      ///< inversion demanded ε above eps_max; pinned there
};

[[nodiscard]] const char* to_string(ControlAction a);

/// One control decision, emitted every period. NaN measured values mean
/// the axis was off or the window was insufficient.
struct ControlDecision {
  std::uint64_t index = 0;        ///< per-user decision number, 0-based
  trace::Timestamp time = 0;      ///< virtual time of the triggering report
  std::size_t window_pairs = 0;   ///< delivered pairs in the window
  double measured_privacy = 0.0;
  double measured_utility = 0.0;
  bool privacy_in_band = true;    ///< vacuously true when the axis is off
  bool utility_in_band = true;
  double eps_before = 0.0;
  double eps_after = 0.0;
  ControlAction action = ControlAction::kHoldInBand;
};

/// One user's loop state. Not thread-safe — it lives inside the user's
/// StreamSession, which the session manager already serializes.
class PrivacyController {
 public:
  /// `privacy` / `utility` may be null only when the corresponding axis
  /// is off in `spec` (validated). `initial_eps` is clamped into
  /// [eps_min, eps_max]. Throws std::invalid_argument on a bad spec.
  PrivacyController(ObjectiveSpec spec, double initial_eps,
                    std::shared_ptr<const metrics::Metric> privacy,
                    std::shared_ptr<const metrics::Metric> utility);

  /// Feeds one delivered pair. Returns a decision when one was due at
  /// this report, nullopt otherwise. `original.time` is the sanitized
  /// (monotone) virtual time; decisions trigger on it.
  [[nodiscard]] std::optional<ControlDecision> on_delivered(const trace::Event& original,
                                                            const trace::Event& protected_event);

  /// Current ε — what the session must spend/noise with for the NEXT
  /// report.
  [[nodiscard]] double epsilon() const { return eps_; }
  [[nodiscard]] const ObjectiveSpec& spec() const { return spec_; }
  /// Band state of the most recent decision (true before any decision).
  [[nodiscard]] bool in_band() const { return in_band_; }
  [[nodiscard]] std::uint64_t decision_count() const { return decisions_; }

 private:
  struct Pair {
    trace::Event original;
    trace::Event protected_event;
  };
  /// One past estimate: ε (as ln ε) and the metrics measured under it.
  struct OperatingPoint {
    double ln_eps = 0.0;
    double privacy = 0.0;
    double utility = 0.0;
  };

  void evict(trace::Timestamp now);
  [[nodiscard]] ControlDecision decide(trace::Timestamp now);
  /// Proposed ln ε steering `axis_target` on one axis; see .cpp.
  [[nodiscard]] double invert_axis(bool privacy_axis, double measured, double target,
                                   ControlAction& action) const;

  ObjectiveSpec spec_;
  std::shared_ptr<const metrics::Metric> privacy_;
  std::shared_ptr<const metrics::Metric> utility_;
  double eps_;
  std::deque<Pair> window_;
  std::deque<OperatingPoint> history_;  ///< capped; newest at the back
  std::uint64_t decisions_ = 0;
  std::size_t delivered_since_decision_ = 0;
  trace::Timestamp last_decision_time_ = 0;
  trace::Timestamp last_move_time_ = 0;
  bool moved_once_ = false;
  bool in_band_ = true;
};

}  // namespace locpriv::service::adaptive
