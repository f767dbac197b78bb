// Scenario: uniform Geo-I noise is wrong twice — in a dense downtown it
// wastes utility (many plausible places hide you already), in an empty
// suburb it under-protects (300 m of noise around a lone farmhouse still
// identifies the farmhouse). ElasticGeoInd (after the elastic metrics of
// Chatzikokolakis et al., the paper's reference [3]) scales epsilon with
// local site density. This example contrasts the two on a city with a
// dense core and a sparse periphery, measuring POI retrieval separately
// for users living in each zone.
#include <iostream>
#include <memory>
#include <vector>

#include "io/table.h"
#include "lppm/geo_ind.h"
#include "lppm/geo_ind_variants.h"
#include "metrics/poi_retrieval.h"
#include "metrics/distortion.h"
#include "geo/kdtree.h"
#include "stats/rng.h"
#include "synth/scenario.h"
#include "trace/dataset.h"

int main() {
  using namespace locpriv;

  // City with a very dense core: most sites cluster downtown.
  synth::CityConfig city_cfg;
  city_cfg.site_count = 120;
  city_cfg.cluster_count = 2;       // one downtown blob, one outskirt blob
  city_cfg.cluster_stddev_m = 400.0;

  // Commuters anchored downtown vs on the periphery: generate a
  // population and split users by their home's site density. The site
  // catalog must be the *same* city instance the generator uses, so we
  // derive it with the generator's own seed scheme (stream 0).
  const std::uint64_t population_seed = 77;
  synth::CommuterScenarioConfig scenario;
  scenario.city = city_cfg;
  scenario.user_count = 10;
  scenario.commuter.days = 1;
  const trace::Dataset users = synth::make_commuter_dataset(scenario, population_seed);

  const synth::CityModel city(city_cfg, stats::derive_seed(population_seed, 0));
  std::vector<geo::Point> sites;
  for (const synth::Site& s : city.sites()) sites.push_back(s.location);
  const geo::KdTree catalog(sites);

  // Popularity-weighted homes all land in the clusters, so add a handful
  // of rural users explicitly: homes at the extent corner farthest from
  // any catalog site — the "lone farmhouse" case elastic protection is for.
  geo::Point rural_home{0, 0};
  double best_isolation = -1.0;
  for (const double sx : {-1.0, 1.0}) {
    for (const double sy : {-1.0, 1.0}) {
      const geo::Point corner{sx * 0.9 * city_cfg.half_extent_m,
                              sy * 0.9 * city_cfg.half_extent_m};
      const double isolation = geo::distance(corner, catalog.point(catalog.nearest(corner)));
      if (isolation > best_isolation) {
        best_isolation = isolation;
        rural_home = corner;
      }
    }
  }
  trace::Dataset population;
  for (const trace::Trace& t : users) population.add(t);
  for (int r = 0; r < 3; ++r) {
    // A simple rural day: home -> errand 2 km away -> home, long stays.
    const geo::Point home{rural_home.x + r * 120.0, rural_home.y};
    const geo::Point errand{home.x, home.y - 2000.0};
    trace::Trace t("rural-" + std::to_string(r));
    trace::Timestamp now = 0;
    for (; now <= 6 * 3600; now += 120) t.append({now, home});
    for (int s = 1; s <= 10; ++s, now += 60) t.append({now, geo::lerp(home, errand, s / 10.0)});
    const trace::Timestamp errand_end = now + 2 * 3600;
    for (; now <= errand_end; now += 120) t.append({now, errand});
    for (int s = 1; s <= 10; ++s, now += 60) t.append({now, geo::lerp(errand, home, s / 10.0)});
    const trace::Timestamp day_end = now + 6 * 3600;
    for (; now <= day_end; now += 120) t.append({now, home});
    population.add(std::move(t));
  }

  const double eps = 0.02;
  const lppm::GeoIndistinguishability uniform(eps);
  const lppm::ElasticGeoInd elastic(sites, eps);

  const trace::Dataset uniform_protected = uniform.protect_dataset(population, 9);
  const trace::Dataset elastic_protected = elastic.protect_dataset(population, 9);

  const metrics::PoiRetrieval retrieval;
  const metrics::MeanDistortion distortion;
  const metrics::EvalContext uniform_ctx(population, uniform_protected);
  const metrics::EvalContext elastic_ctx(population, elastic_protected);

  io::Table table({"user", "home zone", "uniform: retrieved", "elastic: retrieved",
                   "uniform: distortion m", "elastic: distortion m"});
  for (std::size_t u = 0; u < population.size(); ++u) {
    const geo::Point home = population[u][0].location;
    const std::size_t density = catalog.within_radius(home, 1000.0).size();
    const char* zone = density >= 10 ? "dense" : "sparse";
    table.add_row(
        {population[u].user_id(), zone,
         io::Table::num(retrieval.evaluate_trace(uniform_ctx, u), 2),
         io::Table::num(retrieval.evaluate_trace(elastic_ctx, u), 2),
         io::Table::num(distortion.evaluate_trace(uniform_ctx, u), 3),
         io::Table::num(distortion.evaluate_trace(elastic_ctx, u), 3)});
  }
  table.print(std::cout);

  std::cout << "\nreading: elastic protection spends extra noise only where the user is\n"
               "exposed (sparse zones) and keeps distortion near the uniform level in\n"
               "dense zones — the density-adaptive trade the elastic-metric line of\n"
               "work argues for, reproduced end to end.\n";
  return 0;
}
