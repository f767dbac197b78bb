// Standard derived-artifact kinds shared by the built-in metrics.
//
// Each helper pairs an artifact kind name with its derivation-parameter
// hash and builder, so every metric that needs (say) the POI set of
// actual user 3 under the default extractor asks for exactly the same
// cache entry. The kind registry (kind -> C++ type):
//
//   "staypoints"         std::vector<poi::StayPoint>  keyed by stay tolerance/duration
//   "poi-set"            std::vector<poi::Poi>        built from cached stay points
//   "coverage"           geo::CellSet                 keyed by cell size; one flat
//                                                     table of packed cell keys;
//                                                     actual side only (AreaCoverage
//                                                     scores the protected side per
//                                                     call, uncached)
//   "tracking-prior"     attack::TrackingPrior        dataset scope; keyed by raster
//                                                     cell + split-partition id
//   "tracking-prior-loo" attack::TrackingPrior        per user, fitted on everyone
//                                                     else (leave-one-out)
//   "tracking-estimate"  trace::Trace                 de-noised protected trace,
//                                                     keyed by the full filter config
//   "tracking-pois"      std::vector<poi::Poi>        extraction on the estimate
//                                                     (see tracking_metrics.h)
//
// POI sets build on the cached stay points of the same trace, so a POI
// metric and the home/work attack share the expensive stay detection
// whenever their extractors agree (they do, at defaults).
#pragma once

#include <memory>
#include <vector>

#include "geo/grid.h"
#include "metrics/eval_context.h"
#include "poi/staypoint.h"

namespace locpriv::metrics {

/// Hash of the stay-detection parameters (spatial tolerance, duration).
[[nodiscard]] std::uint64_t staypoint_params_hash(const poi::ExtractorConfig& cfg);

/// Hash of the full POI-extraction parameters (stays + merge radius).
[[nodiscard]] std::uint64_t poi_params_hash(const poi::ExtractorConfig& cfg);

/// Cached stay points of `side` user `user` under `cfg`.
[[nodiscard]] std::shared_ptr<const std::vector<poi::StayPoint>> staypoints_artifact(
    const EvalContext& ctx, Side side, std::size_t user, const poi::ExtractorConfig& cfg);

/// Cached POI set of `side` user `user` under `cfg` (clusters the cached
/// stay points; identical to poi::extract_pois on the raw trace).
[[nodiscard]] std::shared_ptr<const std::vector<poi::Poi>> poi_artifact(
    const EvalContext& ctx, Side side, std::size_t user, const poi::ExtractorConfig& cfg);

/// Cached set of grid cells covered by `side` user `user` at `cell_size_m`.
/// The built-in metrics ask for the actual side only.
[[nodiscard]] std::shared_ptr<const geo::CellSet> coverage_artifact(const EvalContext& ctx,
                                                                    Side side, std::size_t user,
                                                                    double cell_size_m);

}  // namespace locpriv::metrics
