#include "service/adaptive/controller.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "core/configurator.h"
#include "core/sweep.h"
#include "metrics/eval_context.h"
#include "obs/tracer.h"
#include "stats/regression.h"
#include "trace/dataset.h"

namespace locpriv::service::adaptive {
namespace {

/// Operating points kept for the local re-fit. Old points come from a
/// behaviour that may no longer hold — a short memory is a feature.
constexpr std::size_t kMaxOperatingPoints = 16;

/// Minimum ln-ε spread before the history supports a fit; below it the
/// prior slope is the better gradient estimate.
constexpr double kMinLnEpsVariance = 1e-8;

}  // namespace

const char* to_string(ControlAction a) {
  switch (a) {
    case ControlAction::kHoldInBand: return "hold_in_band";
    case ControlAction::kHoldCooldown: return "hold_cooldown";
    case ControlAction::kHoldInsufficient: return "hold_insufficient";
    case ControlAction::kHoldFrozen: return "hold_frozen";
    case ControlAction::kStep: return "step";
    case ControlAction::kSaturateLow: return "saturate_lo";
    case ControlAction::kSaturateHigh: return "saturate_hi";
  }
  return "unknown";
}

PrivacyController::PrivacyController(ObjectiveSpec spec, double initial_eps,
                                     std::shared_ptr<const metrics::Metric> privacy,
                                     std::shared_ptr<const metrics::Metric> utility)
    : spec_(std::move(spec)), privacy_(std::move(privacy)), utility_(std::move(utility)) {
  spec_.validate();
  if (spec_.privacy_on() && privacy_ == nullptr) {
    throw std::invalid_argument("PrivacyController: privacy axis enabled but metric is null");
  }
  if (spec_.utility_on() && utility_ == nullptr) {
    throw std::invalid_argument("PrivacyController: utility axis enabled but metric is null");
  }
  if (!(initial_eps > 0.0)) {
    throw std::invalid_argument("PrivacyController: initial_eps must be > 0");
  }
  eps_ = std::clamp(initial_eps, spec_.eps_min, spec_.eps_max);
}

void PrivacyController::evict(trace::Timestamp now) {
  if (spec_.window_pairs > 0) {
    while (window_.size() > spec_.window_pairs) window_.pop_front();
  }
  if (spec_.window_s > 0) {
    const trace::Timestamp cutoff = now - spec_.window_s;
    while (!window_.empty() && window_.front().original.time < cutoff) window_.pop_front();
  }
}

std::optional<ControlDecision> PrivacyController::on_delivered(
    const trace::Event& original, const trace::Event& protected_event) {
  window_.push_back({original, protected_event});
  evict(original.time);
  ++delivered_since_decision_;
  const bool by_count =
      spec_.period_reports > 0 && delivered_since_decision_ >= spec_.period_reports;
  const bool by_time =
      spec_.period_s > 0 && original.time - last_decision_time_ >= spec_.period_s;
  if (!by_count && !by_time) return std::nullopt;
  delivered_since_decision_ = 0;
  last_decision_time_ = original.time;
  return decide(original.time);
}

double PrivacyController::invert_axis(bool privacy_axis, double measured, double target,
                                      ControlAction& action) const {
  const double prior = privacy_axis ? spec_.prior_privacy_slope : spec_.prior_utility_slope;
  // Local slope: refit over the operating-point history when it spans
  // enough of the ε axis AND agrees in sign with the physical prior
  // (more ε = less noise); a sign-flipped or degenerate local fit is a
  // window artifact that would steer the loop the wrong way.
  double slope = prior;
  std::vector<double> xs;
  std::vector<double> ys;
  xs.reserve(history_.size());
  ys.reserve(history_.size());
  for (const OperatingPoint& p : history_) {
    const double y = privacy_axis ? p.privacy : p.utility;
    if (!std::isfinite(y)) continue;
    xs.push_back(p.ln_eps);
    ys.push_back(y);
  }
  if (xs.size() >= 2) {
    double mean = 0.0;
    for (const double x : xs) mean += x;
    mean /= static_cast<double>(xs.size());
    double var = 0.0;
    for (const double x : xs) var += (x - mean) * (x - mean);
    var /= static_cast<double>(xs.size());
    if (var > kMinLnEpsVariance) {
      const stats::LinearFit fit = stats::fit_linear(xs, ys);
      if (std::isfinite(fit.slope) && fit.slope * prior > 0.0) slope = fit.slope;
    }
  }

  // Anchor the line through the CURRENT operating point, not the fit's
  // own intercept: the target is reached by following the local
  // gradient from where the user actually is (a secant step), which
  // stays honest when the history mixes pre- and post-drift behaviour.
  core::AxisModel axis;
  axis.fit.slope = slope;
  axis.fit.intercept = measured - slope * std::log(eps_);
  axis.param_low = spec_.eps_min;
  axis.param_high = spec_.eps_max;
  const core::InversionResult r = core::invert_clamped(axis, lppm::Scale::kLog, target);
  switch (r.status) {
    case core::InversionStatus::kOk: action = ControlAction::kStep; break;
    case core::InversionStatus::kSaturatedLow: action = ControlAction::kSaturateLow; break;
    case core::InversionStatus::kSaturatedHigh: action = ControlAction::kSaturateHigh; break;
    case core::InversionStatus::kZeroSlope: action = ControlAction::kHoldInsufficient; break;
  }
  return std::log(r.param);
}

ControlDecision PrivacyController::decide(trace::Timestamp now) {
  obs::Span span("adaptive", "controller.decide");

  ControlDecision d;
  d.index = decisions_++;
  d.time = now;
  d.window_pairs = window_.size();
  d.eps_before = eps_;
  d.eps_after = eps_;
  d.measured_privacy = std::numeric_limits<double>::quiet_NaN();
  d.measured_utility = std::numeric_limits<double>::quiet_NaN();
  span.arg("window", static_cast<double>(d.window_pairs)).arg("eps_before", d.eps_before);

  // An unverifiable estimate counts as out of band for the enabled
  // axes: "in band" is a positive claim the decision could not check.
  const auto hold_insufficient = [&]() {
    d.privacy_in_band = !spec_.privacy_on();
    d.utility_in_band = !spec_.utility_on();
    in_band_ = false;
    d.action = ControlAction::kHoldInsufficient;
    return d;
  };
  if (window_.size() < spec_.min_window_pairs) return hold_insufficient();

  // Re-estimate the operating point on the window: one single-user
  // dataset pair, fresh per-decision caches so the two metrics still
  // share derived artifacts (the caches key by trace index and must
  // not outlive this window's datasets).
  {
    std::vector<trace::Event> originals;
    std::vector<trace::Event> delivered;
    originals.reserve(window_.size());
    delivered.reserve(window_.size());
    for (const Pair& p : window_) {
      originals.push_back(p.original);
      delivered.push_back(p.protected_event);
    }
    const trace::Trace actual_trace("window", std::move(originals));
    const trace::Trace protected_trace("window", std::move(delivered));
    trace::Dataset actual;
    trace::Dataset protected_data;
    actual.add(actual_trace);
    protected_data.add(protected_trace);
    const auto actual_cache = std::make_shared<metrics::ArtifactCache>();
    const auto protected_cache = std::make_shared<metrics::ArtifactCache>();
    const metrics::EvalContext ctx(actual, protected_data, actual_cache, protected_cache);
    try {
      if (spec_.privacy_on()) d.measured_privacy = privacy_->evaluate(ctx);
      if (spec_.utility_on()) d.measured_utility = utility_->evaluate(ctx);
    } catch (const std::exception&) {
      // A metric that cannot score this window (degenerate trace for
      // its derivations) is an insufficient estimate, not a crash.
      return hold_insufficient();
    }
  }
  if ((spec_.privacy_on() && !std::isfinite(d.measured_privacy)) ||
      (spec_.utility_on() && !std::isfinite(d.measured_utility))) {
    return hold_insufficient();
  }

  history_.push_back({std::log(eps_), d.measured_privacy, d.measured_utility});
  if (history_.size() > kMaxOperatingPoints) history_.pop_front();

  d.privacy_in_band = !spec_.privacy_on() ||
                      std::abs(d.measured_privacy - spec_.privacy_target) <= spec_.privacy_tol;
  d.utility_in_band = !spec_.utility_on() ||
                      std::abs(d.measured_utility - spec_.utility_target) <= spec_.utility_tol;
  in_band_ = d.privacy_in_band && d.utility_in_band;
  span.arg("in_band", in_band_ ? 1.0 : 0.0);

  if (in_band_) {
    d.action = ControlAction::kHoldInBand;
    return d;
  }
  if (spec_.monitor_only()) {
    d.action = ControlAction::kHoldFrozen;
    return d;
  }
  if (moved_once_ && spec_.cooldown_s > 0 && now - last_move_time_ < spec_.cooldown_s) {
    d.action = ControlAction::kHoldCooldown;
    return d;
  }

  // Steer the privacy axis first: privacy is the guarantee, utility the
  // price. Utility gets the actuator only while privacy is content.
  ControlAction action = ControlAction::kStep;
  const double target_ln =
      !d.privacy_in_band
          ? invert_axis(true, d.measured_privacy, spec_.privacy_target, action)
          : invert_axis(false, d.measured_utility, spec_.utility_target, action);
  if (action == ControlAction::kHoldInsufficient) {
    d.action = action;
    return d;
  }

  const double ln_before = std::log(eps_);
  const double delta = std::clamp(target_ln - ln_before, -spec_.max_step, spec_.max_step);
  const double ln_after = std::clamp(ln_before + delta, std::log(spec_.eps_min),
                                     std::log(spec_.eps_max));
  eps_ = std::clamp(std::exp(ln_after), spec_.eps_min, spec_.eps_max);
  d.eps_after = eps_;
  if (eps_ != d.eps_before) {
    last_move_time_ = now;
    moved_once_ = true;
  }
  d.action = action;
  span.arg("eps_after", d.eps_after).arg("action", to_string(action));
  return d;
}

}  // namespace locpriv::service::adaptive
