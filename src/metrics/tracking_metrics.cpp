#include "metrics/tracking_metrics.h"

#include <vector>

#include "metrics/artifacts.h"
#include "poi/staypoint.h"

namespace locpriv::metrics {
namespace {

/// Hash of the parameters the prior fit depends on (the raster
/// geometry; the fitting population is keyed separately — split id for
/// split priors, trace index for leave-one-out ones).
std::uint64_t prior_params_hash(const attack::TrackingConfig& cfg) {
  return ParamHash().add(cfg.cell_size_m).digest();
}

/// Hash of everything the de-noised estimate depends on besides the
/// protected trace itself: the full filter configuration plus which
/// prior variant (and partition) it ran under.
std::uint64_t estimate_params_hash(const EvalContext& ctx, const attack::TrackingConfig& cfg) {
  ParamHash h;
  h.add(cfg.cell_size_m)
      .add(cfg.obs_scale_m)
      .add(cfg.min_obs_scale_m)
      .add(cfg.process_sigma_mps)
      .add(cfg.max_speed_mps)
      .add(cfg.velocity_smoothing)
      .add(cfg.prior_weight)
      .add(cfg.search_radius_factor);
  if (const SplitView* sv = ctx.split(); sv != nullptr) {
    h.add("split").add(sv->id);
  } else {
    h.add("loo");
  }
  return h.digest();
}

}  // namespace

std::shared_ptr<const attack::TrackingPrior> tracking_prior_artifact(
    const EvalContext& ctx, std::size_t user, const attack::TrackingConfig& cfg) {
  if (const SplitView* sv = ctx.split(); sv != nullptr) {
    // One prior per partition, shared by every scored user: the
    // attacker's population knowledge is the train side, whether the
    // scored user is held out (test Pr) or not (train Pr).
    const std::uint64_t params = ParamHash().add(cfg.cell_size_m).add(sv->id).digest();
    return ctx.dataset_artifact<attack::TrackingPrior>(
        Side::kActual, "tracking-prior", params,
        [&] { return attack::fit_tracking_prior(ctx.actual(), sv->train, cfg); });
  }
  // No split: leave-one-out. Fitting on everyone would hand the
  // adversary the target's own trace as population knowledge.
  return ctx.artifact<attack::TrackingPrior>(
      Side::kActual, user, "tracking-prior-loo", prior_params_hash(cfg), [&] {
        std::vector<std::size_t> others;
        others.reserve(ctx.actual().size() - 1);
        for (std::size_t i = 0; i < ctx.actual().size(); ++i) {
          if (i != user) others.push_back(i);
        }
        return attack::fit_tracking_prior(ctx.actual(), others, cfg);
      });
}

std::shared_ptr<const trace::Trace> tracking_estimate_artifact(const EvalContext& ctx,
                                                               std::size_t user,
                                                               const attack::TrackingConfig& cfg) {
  return ctx.artifact<trace::Trace>(
      Side::kProtected, user, "tracking-estimate", estimate_params_hash(ctx, cfg), [&] {
        const std::shared_ptr<const attack::TrackingPrior> prior =
            tracking_prior_artifact(ctx, user, cfg);
        return attack::track_trace(ctx.trace(Side::kProtected, user), *prior, cfg);
      });
}

TrackingError::TrackingError(attack::TrackingConfig cfg) : cfg_(cfg) {}

const std::string& TrackingError::name() const {
  static const std::string kName = "tracking-error";
  return kName;
}

double TrackingError::evaluate_trace(const EvalContext& ctx, std::size_t user) const {
  const std::shared_ptr<const trace::Trace> estimate =
      tracking_estimate_artifact(ctx, user, cfg_);
  return attack::mean_tracking_error_m(ctx.trace(Side::kActual, user), *estimate);
}

TrackingReident::TrackingReident(attack::TrackingConfig tracking, attack::ReidentConfig reident)
    : tracking_(tracking), reident_(reident) {}

const std::string& TrackingReident::name() const {
  static const std::string kName = "tracking-reident";
  return kName;
}

double TrackingReident::evaluate(const EvalContext& ctx) const {
  require_paired(ctx.actual(), ctx.protected_data());
  std::vector<std::size_t> all(ctx.actual().size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  return evaluate_on(ctx, all);
}

double TrackingReident::evaluate_on(const EvalContext& ctx,
                                    std::span<const std::size_t> users) const {
  require_paired(ctx.actual(), ctx.protected_data());
  require_subset(ctx, users);
  // Linkage within the scored population: gallery and targets are the
  // same users, fingerprints from the "poi-set" artifacts on the actual
  // side and from freshly de-noised traces on the protected side.
  std::vector<std::vector<poi::Poi>> known;
  std::vector<std::vector<poi::Poi>> observed;
  known.reserve(users.size());
  observed.reserve(users.size());
  for (const std::size_t u : users) {
    known.push_back(*poi_artifact(ctx, Side::kActual, u, reident_.ground_truth));
    const std::uint64_t params = ParamHash()
                                     .add(estimate_params_hash(ctx, tracking_))
                                     .add(poi_params_hash(reident_.adversary))
                                     .digest();
    observed.push_back(*ctx.artifact<std::vector<poi::Poi>>(
        Side::kProtected, u, "tracking-pois", params, [&] {
          const std::shared_ptr<const trace::Trace> estimate =
              tracking_estimate_artifact(ctx, u, tracking_);
          return poi::extract_pois(*estimate, reident_.adversary);
        }));
  }
  return attack::run_reident_attack(known, observed, reident_).accuracy;
}

}  // namespace locpriv::metrics
