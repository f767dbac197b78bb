// The obfuscation gateway: the serving core of the framework, run to
// completion on the thread that drives it.
//
// An app server pushes raw location reports in with submit(); protected
// (or suppressed) reports come back through a sink callback. submit()
// protects the report on the calling thread: a sharded session manager
// holds each user's StreamSession + ε budget, and a telemetry layer
// counts every outcome. The simulated downstream LBS call is the only
// wait, and nothing sleeps for it: each answer is held in one of
// `workers` *lanes* (user-hash routed) until its downstream delay has
// passed. A lane is a FIFO with one downstream call in flight, so W
// lanes overlap W downstream waits without W threads. The driver —
// the shard's event loop, or a replay loop — calls release_due() as
// time passes, bounded by next_due(). Every submitted report is
// answered through the sink exactly once — delivered, suppressed by
// budget, or rejected by backpressure.
//
// The default session factory instantiates the paper's deployment mode:
// BudgetedGeoIndSession with the configured ε and sliding-window budget,
// seeded per user with derive_seed(seed, stable_hash64(user)) so any
// replay of the same stream is bit-identical regardless of lane count.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "service/adaptive/objective.h"
#include "service/resilience/resilience.h"
#include "service/session_manager.h"
#include "service/telemetry.h"
#include "trace/event.h"

namespace locpriv::service {

namespace adaptive {
class ControlLog;
}  // namespace adaptive

/// Why a report came back the way it did.
enum class ReportStatus {
  delivered,            ///< protected event attached
  suppressed_budget,    ///< session returned nothing (for the default
                        ///< factory: ε window exhausted; a custom
                        ///< dropout session lands here too)
  rejected_queue_full,  ///< backpressure: never reached a session
  degraded_suppressed,  ///< downstream call gave up; report dropped
  degraded_fallback,    ///< downstream call gave up; answered with a
                        ///< coarse grid-cloaked point instead
};

[[nodiscard]] const char* to_string(ReportStatus s);

/// The gateway's answer to one submitted report.
struct ProtectedReport {
  std::string user_id;
  std::uint64_t seq = 0;  ///< strictly increasing per user
  trace::Event original;
  std::optional<trace::Event> protected_event;  ///< set iff delivered or
                                                ///< degraded_fallback
  ReportStatus status = ReportStatus::delivered;
  /// Downstream attempts made for this report (0 when the report never
  /// reached the downstream call: suppressed, rejected, or no
  /// downstream configured).
  std::uint32_t downstream_attempts = 0;
  /// The cookie passed to submit(), echoed back verbatim (0 for the
  /// cookie-less overload): an opaque caller correlator. The network
  /// front end stores a connection handle here so an answer can find
  /// its way back to the socket that submitted the report.
  std::uint64_t cookie = 0;
};

struct GatewayConfig {
  /// Downstream lanes: answers held for the downstream call, each lane
  /// with one call in flight (>= 1).
  std::size_t workers = 4;
  std::size_t queue_capacity = 1024;  ///< held answers per lane (>= 1)
  SessionManagerConfig sessions;

  // Default (Geo-I) session factory parameters.
  double epsilon = 0.01;
  double budget_eps = 0.3;  ///< total ε per sliding window
  trace::Timestamp budget_window_s = 3600;
  std::uint64_t seed = 2016;

  /// Simulated downstream LBS round-trip per delivered report. A real
  /// gateway forwards the protected event to the service and awaits the
  /// answer; this models that wait in benches/simulations by holding the
  /// answer in its lane (see ResilienceConfig::sleep_for_real). Zero = off.
  std::chrono::microseconds downstream_latency{0};

  /// Fault injection: an all-zero spec (the default) injects nothing.
  /// Every fault decision is a pure function of (faults, fault_seed,
  /// request identity) — see resilience/fault_plan.h.
  FaultSpec faults;
  /// Seed of the fault schedule; 0 derives one from `seed`.
  std::uint64_t fault_seed = 0;
  /// Deadline / retry / breaker / degradation policy of the downstream
  /// call (active whenever faults or downstream_latency are configured).
  ResilienceConfig resilience;

  /// Closed-loop ε control (see service/adaptive/): when set, the
  /// default factory builds AdaptiveGeoIndSessions that steer each
  /// user's ε toward these objectives instead of the static-ε
  /// BudgetedGeoIndSession; `epsilon` becomes the loop's initial value
  /// and every decision is recorded in control_log(). nullopt = the
  /// classic static deployment.
  std::optional<adaptive::ObjectiveSpec> objectives;
};

/// Deterministic per-user session seed used by the default factory.
[[nodiscard]] std::uint64_t user_seed(std::uint64_t root_seed, std::string_view user_id);

class Gateway {
 public:
  using Clock = std::chrono::steady_clock;

  /// Receives every answer, on the thread that drives the gateway
  /// (inside submit(), release_due() or drain()); calls never run
  /// concurrently, and a sink must not call back into the gateway. One
  /// user's answers arrive in submission order, except that a
  /// backpressure rejection is answered at once and may overtake the
  /// user's held answers.
  using Sink = std::function<void(const ProtectedReport&)>;

  /// Gateway with the default budgeted Geo-I session per user. Throws
  /// std::invalid_argument when `workers` or `queue_capacity` is 0.
  Gateway(const GatewayConfig& cfg, Sink sink);
  /// Gateway with a custom per-user session factory (any streaming LPPM).
  Gateway(const GatewayConfig& cfg, SessionManager::SessionFactory factory, Sink sink);

  /// Drains: every held answer reaches the sink first.
  ~Gateway();

  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;

  /// Protects one report on the calling thread, after releasing every
  /// answer already due. Never blocks: when the user's lane already
  /// holds `queue_capacity` answers the report is answered at once with
  /// rejected_queue_full and false is returned. True = accepted; the
  /// answer reaches the sink before submit() returns when it owes no
  /// downstream wait and its lane is empty, otherwise from a later
  /// release_due(). `cookie` is an opaque caller correlator echoed back
  /// on the answer (ProtectedReport::cookie).
  bool submit(const std::string& user_id, const trace::Event& event, std::uint64_t cookie = 0);

  /// When the earliest held answer is due; nullopt when none is held.
  [[nodiscard]] std::optional<Clock::time_point> next_due() const;

  /// Hands every answer due by `now` to the sink, each lane in FIFO
  /// order. Answers are never released early.
  void release_due(Clock::time_point now);

  /// Sleeps until each held answer is due and releases it; submit()
  /// refuses afterwards. Idempotent.
  void drain();

  /// Hot-reloads policy without dropping session state. Everything that
  /// can throw — validation, the session factory with its metrics, the
  /// fault schedule — is built first: on std::invalid_argument the old
  /// policy stays in force and the gateway keeps serving. Then held
  /// answers are released (sleeping until due), and `next`'s factory
  /// parameters, objectives, fault schedule, resilience policy and lanes
  /// are swapped in. The SessionManager survives — live sessions keep
  /// their ε budgets and their old policy until evicted; only sessions
  /// created after the reload see the new one (`next.sessions` is
  /// ignored for the same reason). Pass a `factory` to swap in a custom
  /// session factory; empty = the configured default.
  void reload(const GatewayConfig& next, SessionManager::SessionFactory factory = {});

  [[nodiscard]] const Telemetry& telemetry() const { return *telemetry_; }
  [[nodiscard]] std::size_t active_sessions() const { return sessions_->session_count(); }
  /// The active fault schedule; nullptr when no faults are configured.
  [[nodiscard]] const FaultPlan* fault_plan() const { return plan_.get(); }
  /// Every control decision made so far; nullptr when `objectives` is
  /// unset (static deployment has no control plane).
  [[nodiscard]] const adaptive::ControlLog* control_log() const { return control_log_.get(); }

 private:
  struct Held {
    Clock::time_point due;
    ProtectedReport report;
  };
  /// One downstream lane: the circuit breaker of its calls, when its
  /// call in flight completes, and the answers waiting on it.
  struct Lane {
    explicit Lane(const CircuitBreakerConfig& breaker_cfg) : breaker(breaker_cfg) {}
    CircuitBreaker breaker;
    Clock::time_point free_at{};
    std::deque<Held> held;
  };

  /// Protects one report and runs its downstream call; `hold` receives
  /// the real-time wait the answer owes (0 when nothing is held).
  ProtectedReport handle(std::size_t lane, std::uint64_t user_hash, const std::string& user_id,
                         const trace::Event& event, std::uint64_t seq, std::uint64_t cookie,
                         std::chrono::microseconds& hold);
  void reject(const std::string& user_id, const trace::Event& event, std::uint64_t seq,
              std::uint64_t cookie);
  /// Releases every held answer, sleeping until each is due.
  void release_all();

  GatewayConfig cfg_;
  Sink sink_;
  std::unique_ptr<Telemetry> telemetry_;
  std::unique_ptr<adaptive::ControlLog> control_log_;  ///< null = static ε
  std::unique_ptr<SessionManager> sessions_;
  std::unique_ptr<FaultPlan> plan_;  ///< null = no injection
  std::vector<Lane> lanes_;
  std::uint64_t next_seq_ = 0;
  bool drained_ = false;
};

}  // namespace locpriv::service
