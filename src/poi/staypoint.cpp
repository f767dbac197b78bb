#include "poi/staypoint.h"

#include <algorithm>
#include <span>
#include <stdexcept>

namespace locpriv::poi {

std::vector<StayPoint> extract_stay_points(const trace::Trace& t, const ExtractorConfig& cfg) {
  if (!(cfg.max_distance_m > 0.0)) {
    throw std::invalid_argument("extract_stay_points: max_distance must be > 0");
  }
  if (cfg.min_duration_s <= 0) {
    throw std::invalid_argument("extract_stay_points: min_duration must be > 0");
  }

  std::vector<StayPoint> stays;
  // Scan the trace's contiguous coordinate/time columns directly — the
  // window walk and centroid sum are pure column arithmetic, and the
  // accumulation order matches the old Event loop bit for bit.
  const std::span<const double> xs = t.xs();
  const std::span<const double> ys = t.ys();
  const std::span<const trace::Timestamp> times = t.times();
  const std::size_t n = t.size();
  std::size_t i = 0;
  while (i < n) {
    // Grow the window while reports stay near the anchor location.
    const geo::Point anchor{xs[i], ys[i]};
    std::size_t j = i + 1;
    while (j < n && geo::within_distance(anchor, {xs[j], ys[j]}, cfg.max_distance_m)) ++j;
    // Window [i, j) ended; significant if it lasted long enough.
    const trace::Timestamp dwell = times[j - 1] - times[i];
    if (j - i >= 2 && dwell >= cfg.min_duration_s) {
      geo::Point sum{0, 0};
      for (std::size_t k = i; k < j; ++k) sum += geo::Point{xs[k], ys[k]};
      stays.push_back({sum / static_cast<double>(j - i), times[i], times[j - 1], j - i});
      i = j;
    } else {
      ++i;
    }
  }
  return stays;
}

std::vector<Poi> cluster_stays(const std::vector<StayPoint>& stays, double merge_radius_m) {
  if (!(merge_radius_m >= 0.0)) {
    throw std::invalid_argument("cluster_stays: merge_radius must be >= 0");
  }
  // Greedy agglomeration: each stay joins the first cluster whose running
  // centroid is within merge_radius, else starts a new cluster. For the
  // handful of stays per trace this is plenty.
  std::vector<std::vector<StayPoint>> clusters;
  std::vector<geo::Point> centroids;
  for (const StayPoint& s : stays) {
    bool placed = false;
    for (std::size_t c = 0; c < clusters.size(); ++c) {
      if (geo::distance(centroids[c], s.center) <= merge_radius_m) {
        clusters[c].push_back(s);
        // Running unweighted centroid of member stays.
        geo::Point sum{0, 0};
        for (const StayPoint& m : clusters[c]) sum += m.center;
        centroids[c] = sum / static_cast<double>(clusters[c].size());
        placed = true;
        break;
      }
    }
    if (!placed) {
      clusters.push_back({s});
      centroids.push_back(s.center);
    }
  }

  std::vector<Poi> pois;
  pois.reserve(clusters.size());
  for (const auto& cluster : clusters) pois.push_back(merge_stays(cluster));
  std::sort(pois.begin(), pois.end(),
            [](const Poi& a, const Poi& b) { return a.total_duration > b.total_duration; });
  return pois;
}

std::vector<Poi> extract_pois(const trace::Trace& t, const ExtractorConfig& cfg) {
  return cluster_stays(extract_stay_points(t, cfg), cfg.merge_radius_m);
}

}  // namespace locpriv::poi
