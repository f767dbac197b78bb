#include "service/gateway.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <thread>
#include <utility>

#include "lppm/grid_cloaking.h"
#include "metrics/registry.h"
#include "obs/tracer.h"
#include "service/adaptive/control_log.h"
#include "service/adaptive/session.h"
#include "stats/rng.h"

namespace locpriv::service {

const char* to_string(ReportStatus s) {
  switch (s) {
    case ReportStatus::delivered: return "delivered";
    case ReportStatus::suppressed_budget: return "suppressed_budget";
    case ReportStatus::rejected_queue_full: return "rejected_queue_full";
    case ReportStatus::degraded_suppressed: return "degraded_suppressed";
    case ReportStatus::degraded_fallback: return "degraded_fallback";
  }
  return "unknown";
}

std::uint64_t user_seed(std::uint64_t root_seed, std::string_view user_id) {
  return stats::derive_seed(root_seed, stable_hash64(user_id));
}

namespace {

// Stream tag separating the fault-schedule seed space from the noise
// seed space when fault_seed is derived from the root seed.
constexpr std::uint64_t kFaultSeedStream = 0xFA177ULL;

SessionManager::SessionFactory default_factory(const GatewayConfig& cfg) {
  const double epsilon = cfg.epsilon;
  const double budget_eps = cfg.budget_eps;
  const trace::Timestamp window = cfg.budget_window_s;
  const std::uint64_t seed = cfg.seed;
  return [epsilon, budget_eps, window, seed](const std::string& user_id) {
    return std::make_unique<lppm::BudgetedGeoIndSession>(
        epsilon, lppm::GeoIndBudget(epsilon, budget_eps, window), user_seed(seed, user_id));
  };
}

// Closed-loop factory: one AdaptiveGeoIndSession per user, sharing the
// axis metrics (stateless evaluators, safe across threads) and feeding
// decisions into the gateway's control log. The metrics are resolved
// once here so an unknown metric name fails at construction, not on the
// first report.
SessionManager::SessionFactory adaptive_factory(const GatewayConfig& cfg,
                                                adaptive::ControlLog* log) {
  const adaptive::ObjectiveSpec spec = *cfg.objectives;
  spec.validate();
  std::shared_ptr<const metrics::Metric> privacy;
  std::shared_ptr<const metrics::Metric> utility;
  if (spec.privacy_on()) privacy = metrics::create_metric(spec.privacy_metric);
  if (spec.utility_on()) utility = metrics::create_metric(spec.utility_metric);
  const double epsilon = cfg.epsilon;
  const double budget_eps = cfg.budget_eps;
  const trace::Timestamp window = cfg.budget_window_s;
  const std::uint64_t seed = cfg.seed;
  return [spec, privacy, utility, epsilon, budget_eps, window, seed,
          log](const std::string& user_id) {
    return std::make_unique<adaptive::AdaptiveGeoIndSession>(
        spec, epsilon, lppm::GeoIndBudget(epsilon, budget_eps, window), user_seed(seed, user_id),
        privacy, utility, [log, user_id](const adaptive::ControlDecision& d) {
          log->record(user_id, d);
        });
  };
}

std::unique_ptr<FaultPlan> make_fault_plan(const GatewayConfig& cfg) {
  if (!cfg.faults.any()) return nullptr;
  const std::uint64_t fault_seed =
      cfg.fault_seed != 0 ? cfg.fault_seed : stats::derive_seed(cfg.seed, kFaultSeedStream);
  return std::make_unique<FaultPlan>(cfg.faults, fault_seed);
}

void validate_lanes(const GatewayConfig& cfg) {
  if (cfg.workers == 0) {
    throw std::invalid_argument("Gateway: need at least one lane (workers >= 1)");
  }
  if (cfg.queue_capacity == 0) {
    throw std::invalid_argument("Gateway: queue_capacity must be >= 1");
  }
}

}  // namespace

Gateway::Gateway(const GatewayConfig& cfg, Sink sink)
    : Gateway(cfg, SessionManager::SessionFactory{}, std::move(sink)) {}

Gateway::Gateway(const GatewayConfig& cfg, SessionManager::SessionFactory factory, Sink sink)
    : cfg_(cfg), sink_(std::move(sink)) {
  if (!sink_) throw std::invalid_argument("Gateway: sink must be callable");
  validate_lanes(cfg_);
  cfg_.resilience.validate();
  // ε histogram sized to the budget: spend can never legitimately
  // exceed it, so overflow in the ε histogram would itself be a bug
  // signal.
  telemetry_ = std::make_unique<Telemetry>(/*latency_hi_us=*/50'000.0,
                                           /*eps_hi=*/cfg.budget_eps * 1.05);
  if (cfg_.objectives.has_value()) control_log_ = std::make_unique<adaptive::ControlLog>();
  // An empty factory means "the configured default": static budgeted
  // Geo-I, or the closed loop when objectives are set. A caller-
  // supplied factory always wins (objectives then only allocate the —
  // unused — control log).
  if (!factory) {
    factory = cfg_.objectives.has_value() ? adaptive_factory(cfg_, control_log_.get())
                                          : default_factory(cfg_);
  }
  sessions_ = std::make_unique<SessionManager>(cfg.sessions, std::move(factory), telemetry_.get());
  plan_ = make_fault_plan(cfg_);
  lanes_.assign(cfg_.workers, Lane(cfg_.resilience.breaker));
}

Gateway::~Gateway() { drain(); }

bool Gateway::submit(const std::string& user_id, const trace::Event& event, std::uint64_t cookie) {
  obs::Span submit_span("service", "gateway.submit");
  telemetry_->record_received();
  const std::uint64_t seq = next_seq_++;
  if (drained_) {
    reject(user_id, event, seq, cookie);
    return false;
  }
  release_due(Clock::now());

  // Injected queue-overflow burst: a deterministic (seq-scheduled)
  // rejection exercising the same degradation path a real overflow
  // takes, without depending on lane timing.
  if (plan_ != nullptr && plan_->burst_reject(seq)) {
    telemetry_->record_injected_burst_reject();
    reject(user_id, event, seq, cookie);
    return false;
  }
  const std::uint64_t user_hash = stable_hash64(user_id);
  const std::size_t index = user_hash % lanes_.size();
  Lane& lane = lanes_[index];
  // Backpressure: degrade gracefully by answering with a suppression
  // right here instead of holding answers without bound.
  if (lane.held.size() >= cfg_.queue_capacity) {
    reject(user_id, event, seq, cookie);
    return false;
  }

  std::chrono::microseconds hold{0};
  ProtectedReport out = handle(index, user_hash, user_id, event, seq, cookie, hold);
  if (hold.count() == 0 && lane.held.empty()) {
    sink_(out);
    return true;
  }
  // One downstream call in flight per lane: this one starts when the
  // lane's previous call completes.
  const Clock::time_point due = std::max(Clock::now(), lane.free_at) + hold;
  lane.free_at = due;
  lane.held.push_back(Held{due, std::move(out)});
  return true;
}

std::optional<Gateway::Clock::time_point> Gateway::next_due() const {
  std::optional<Clock::time_point> earliest;
  for (const Lane& lane : lanes_) {
    if (!lane.held.empty() && (!earliest || lane.held.front().due < *earliest)) {
      earliest = lane.held.front().due;
    }
  }
  return earliest;
}

void Gateway::release_due(Clock::time_point now) {
  for (Lane& lane : lanes_) {
    while (!lane.held.empty() && lane.held.front().due <= now) {
      const ProtectedReport out = std::move(lane.held.front().report);
      lane.held.pop_front();
      sink_(out);
    }
  }
}

void Gateway::release_all() {
  while (const std::optional<Clock::time_point> due = next_due()) {
    std::this_thread::sleep_until(*due);
    release_due(Clock::now());
  }
}

void Gateway::drain() {
  release_all();
  drained_ = true;
}

void Gateway::reload(const GatewayConfig& next, SessionManager::SessionFactory factory) {
  GatewayConfig cfg = next;
  cfg.sessions = cfg_.sessions;  // the live SessionManager keeps its config
  validate_lanes(cfg);
  cfg.resilience.validate();
  // Build everything that can throw before touching any state: an
  // invalid ObjectiveSpec, an unknown metric or a bad fault spec throws
  // here and the old policy stays in force, lanes and all.
  std::unique_ptr<adaptive::ControlLog> control_log;
  if (cfg.objectives.has_value() && control_log_ == nullptr) {
    control_log = std::make_unique<adaptive::ControlLog>();
  }
  adaptive::ControlLog* log = control_log_ != nullptr ? control_log_.get() : control_log.get();
  if (!factory) {
    factory = cfg.objectives.has_value() ? adaptive_factory(cfg, log) : default_factory(cfg);
  }
  std::unique_ptr<FaultPlan> plan = make_fault_plan(cfg);

  // Answers held under the old policy go out before its lanes are
  // replaced.
  release_all();
  cfg_ = std::move(cfg);
  if (control_log != nullptr) control_log_ = std::move(control_log);
  sessions_->set_factory(std::move(factory));
  plan_ = std::move(plan);
  lanes_.assign(cfg_.workers, Lane(cfg_.resilience.breaker));
}

void Gateway::reject(const std::string& user_id, const trace::Event& event, std::uint64_t seq,
                     std::uint64_t cookie) {
  telemetry_->record_rejected_queue_full();
  ProtectedReport out;
  out.user_id = user_id;
  out.seq = seq;
  out.original = event;
  out.status = ReportStatus::rejected_queue_full;
  out.cookie = cookie;
  sink_(out);
}

ProtectedReport Gateway::handle(std::size_t lane, std::uint64_t user_hash,
                                const std::string& user_id, const trace::Event& original,
                                std::uint64_t seq, std::uint64_t cookie,
                                std::chrono::microseconds& hold) {
  obs::Span handle_span("service", "worker.handle");
  handle_span.arg("lane", static_cast<double>(lane)).arg("seq", static_cast<double>(seq));
  const auto t0 = Clock::now();

  // Injected stall and client clock skew. The skewed timestamp
  // *is* the report's timestamp from here on — a client with a wrong
  // clock stamps its reports with it — so budget accounting, idle
  // eviction and the output event all see the skewed value.
  trace::Event event = original;
  if (plan_ != nullptr) {
    if (const std::uint32_t stall = plan_->stall_us(user_hash, seq); stall > 0) {
      telemetry_->record_worker_stall();
      hold += real_hold(cfg_.resilience, stall);
    }
    if (const trace::Timestamp skew = plan_->clock_skew_s(user_hash, seq); skew != 0) {
      telemetry_->record_clock_skew();
      event.time = std::max<trace::Timestamp>(0, event.time + skew);
    }
  }

  std::optional<trace::Event> protected_event;
  double eps_spent = std::numeric_limits<double>::quiet_NaN();
  {
    obs::Span session_span("service", "session.report");
    SessionManager::LockedSession locked = sessions_->acquire(user_id, event.time);
    // A backwards clock — injected skew here, a genuinely dirty client in
    // production — is clamped to the user's previous report time by the
    // session manager: budget accounting requires monotone time, and a
    // bad timestamp must degrade, not kill the gateway.
    if (locked.time_clamped()) {
      telemetry_->record_timestamp_clamped();
      event.time = locked.monotonic_time();
    }
    protected_event = locked.session().report(event);
    if (protected_event.has_value()) {
      if (const auto* budgeted =
              dynamic_cast<const lppm::BudgetedGeoIndSession*>(&locked.session())) {
        eps_spent = budgeted->budget_state().spent(event.time);
      } else if (const auto* adapted =
                     dynamic_cast<const adaptive::AdaptiveGeoIndSession*>(&locked.session())) {
        eps_spent = adapted->budget_state().spent(event.time);
      }
    }
  }

  ReportStatus status =
      protected_event.has_value() ? ReportStatus::delivered : ReportStatus::suppressed_budget;
  std::uint32_t attempts = 0;
  const bool downstream_active = plan_ != nullptr || cfg_.downstream_latency.count() > 0;
  if (protected_event.has_value() && downstream_active) {
    obs::Span downstream_span("service", "downstream.call");
    const DownstreamCallResult call = resilient_downstream_call(
        cfg_.resilience, plan_.get(), &lanes_[lane].breaker, telemetry_.get(), user_hash, seq,
        event.time, cfg_.downstream_latency);
    downstream_span.arg("attempts", static_cast<double>(call.attempts))
        .arg("ok", call.ok ? 1.0 : 0.0);
    attempts = call.attempts;
    hold += call.hold;
    if (!call.ok) {
      if (cfg_.resilience.policy == DegradePolicy::fallback_cloak) {
        // Answer with a coarse grid-cloaked point instead of dropping.
        // The cloak is applied to the *protected* location: the answer
        // stays a post-processing of the ε-geo-indistinguishable output.
        protected_event->location =
            lppm::cloak_point(protected_event->location, cfg_.resilience.fallback_cell_m);
        status = ReportStatus::degraded_fallback;
      } else {
        protected_event.reset();
        status = ReportStatus::degraded_suppressed;
      }
    }
  }

  // Service time: processing plus the downstream wait the answer is
  // held for.
  const double latency_us =
      std::chrono::duration<double, std::micro>(Clock::now() - t0 + hold).count();
  switch (status) {
    case ReportStatus::delivered:
      telemetry_->record_delivered(latency_us, eps_spent);
      break;
    case ReportStatus::suppressed_budget:
      telemetry_->record_suppressed(latency_us);
      break;
    case ReportStatus::degraded_suppressed:
      telemetry_->record_degraded_suppressed(latency_us);
      break;
    case ReportStatus::degraded_fallback:
      telemetry_->record_degraded_fallback(latency_us, eps_spent);
      break;
    case ReportStatus::rejected_queue_full:
      break;  // unreachable: rejections are answered in submit()
  }

  ProtectedReport out;
  out.user_id = user_id;
  out.seq = seq;
  out.original = original;
  out.protected_event = std::move(protected_event);
  out.status = status;
  out.downstream_attempts = attempts;
  out.cookie = cookie;
  return out;
}

}  // namespace locpriv::service
