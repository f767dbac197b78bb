#include "lppm/registry.h"

#include <functional>
#include <map>
#include <stdexcept>

#include "lppm/dropout.h"
#include "lppm/gaussian.h"
#include "lppm/geo_ind.h"
#include "lppm/grid_cloaking.h"
#include "lppm/noop.h"
#include "lppm/promesse.h"
#include "lppm/simplification.h"
#include "lppm/temporal_cloaking.h"

namespace locpriv::lppm {
namespace {

using Factory = std::function<std::unique_ptr<Mechanism>()>;

const std::map<std::string, Factory>& factories() {
  static const std::map<std::string, Factory> kFactories = {
      {"geo-indistinguishability", [] { return std::make_unique<GeoIndistinguishability>(); }},
      {"gaussian-perturbation", [] { return std::make_unique<GaussianPerturbation>(); }},
      {"grid-cloaking", [] { return std::make_unique<GridCloaking>(); }},
      {"temporal-cloaking", [] { return std::make_unique<TemporalCloaking>(); }},
      {"promesse", [] { return std::make_unique<Promesse>(); }},
      {"release-dropout", [] { return std::make_unique<ReleaseDropout>(); }},
      {"path-simplification", [] { return std::make_unique<PathSimplification>(); }},
      {"noop", [] { return std::make_unique<NoopMechanism>(); }},
  };
  return kFactories;
}

}  // namespace

std::vector<std::string> mechanism_names() {
  std::vector<std::string> names;
  names.reserve(factories().size());
  for (const auto& [name, factory] : factories()) names.push_back(name);
  return names;
}

bool mechanism_is_deterministic(const std::string& name) {
  return create_mechanism(name)->deterministic();
}

std::unique_ptr<Mechanism> create_mechanism(const std::string& name) {
  const auto it = factories().find(name);
  if (it == factories().end()) {
    std::string msg = "create_mechanism: unknown mechanism '" + name + "'; valid names:";
    for (const std::string& n : mechanism_names()) msg += " " + n;
    throw std::invalid_argument(msg);
  }
  return it->second();
}

std::unique_ptr<Mechanism> create_mechanism(const std::string& name, const ParamMap& params) {
  std::unique_ptr<Mechanism> mechanism = create_mechanism(name);
  for (const auto& [param, value] : params) {
    bool known = false;
    for (const ParameterSpec& spec : mechanism->parameters()) known = known || spec.name == param;
    if (!known) {
      std::string msg = "create_mechanism: mechanism '" + name + "' has no parameter '" + param +
                        "'; valid parameters:";
      if (mechanism->parameters().empty()) msg += " (none)";
      for (const ParameterSpec& spec : mechanism->parameters()) msg += " " + spec.name;
      throw std::invalid_argument(msg);
    }
    mechanism->set_parameter(param, value);  // range-checked by the mechanism
  }
  return mechanism;
}

}  // namespace locpriv::lppm
