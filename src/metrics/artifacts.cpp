#include "metrics/artifacts.h"

namespace locpriv::metrics {

std::uint64_t staypoint_params_hash(const poi::ExtractorConfig& cfg) {
  return ParamHash()
      .add(cfg.max_distance_m)
      .add(static_cast<std::uint64_t>(cfg.min_duration_s))
      .digest();
}

std::uint64_t poi_params_hash(const poi::ExtractorConfig& cfg) {
  return ParamHash()
      .add(cfg.max_distance_m)
      .add(static_cast<std::uint64_t>(cfg.min_duration_s))
      .add(cfg.merge_radius_m)
      .digest();
}

std::shared_ptr<const std::vector<poi::StayPoint>> staypoints_artifact(
    const EvalContext& ctx, Side side, std::size_t user, const poi::ExtractorConfig& cfg) {
  return ctx.artifact<std::vector<poi::StayPoint>>(
      side, user, "staypoints", staypoint_params_hash(cfg),
      [&] { return poi::extract_stay_points(ctx.trace(side, user), cfg); });
}

std::shared_ptr<const std::vector<poi::Poi>> poi_artifact(const EvalContext& ctx, Side side,
                                                          std::size_t user,
                                                          const poi::ExtractorConfig& cfg) {
  return ctx.artifact<std::vector<poi::Poi>>(
      side, user, "poi-set", poi_params_hash(cfg), [&] {
        const auto stays = staypoints_artifact(ctx, side, user, cfg);
        return poi::cluster_stays(*stays, cfg.merge_radius_m);
      });
}

std::shared_ptr<const geo::CellSet> coverage_artifact(const EvalContext& ctx, Side side,
                                                      std::size_t user, double cell_size_m) {
  return ctx.artifact<geo::CellSet>(
      side, user, "coverage", ParamHash().add(cell_size_m).digest(), [&] {
        const geo::Grid grid(cell_size_m);
        // Rasterize straight off the coordinate columns — no Point copy.
        const trace::Trace& t = ctx.trace(side, user);
        return grid.covered_cells(t.xs(), t.ys());
      });
}

}  // namespace locpriv::metrics
